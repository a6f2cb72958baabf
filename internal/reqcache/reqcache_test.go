package reqcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sstiming/internal/engine"
)

func bg() context.Context { return context.Background() }

func computeVal(v string, size int64, runs *atomic.Int64) func(context.Context) ([]byte, int64, error) {
	return func(context.Context) ([]byte, int64, error) {
		if runs != nil {
			runs.Add(1)
		}
		return []byte(v), size, nil
	}
}

func TestDoMissThenHit(t *testing.T) {
	met := engine.NewMetrics()
	c := New(8, 0, met)
	var runs atomic.Int64
	k := KeyFrom("a")

	v, st, err := c.Do(bg(), k, "fp1", computeVal("one", 3, &runs))
	if err != nil || string(v) != "one" || st != Miss {
		t.Fatalf("first Do = (%v, %v, %v), want (one, Miss, nil)", v, st, err)
	}
	v, st, err = c.Do(bg(), k, "fp1", computeVal("two", 3, &runs))
	if err != nil || string(v) != "one" || st != Hit {
		t.Fatalf("second Do = (%v, %v, %v), want cached (one, Hit, nil)", v, st, err)
	}
	if runs.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", runs.Load())
	}
	if met.Get(engine.CacheHits) != 1 || met.Get(engine.CacheMisses) != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1",
			met.Get(engine.CacheHits), met.Get(engine.CacheMisses))
	}
	if c.Len() != 1 || c.Bytes() != 3 {
		t.Fatalf("Len/Bytes = %d/%d, want 1/3", c.Len(), c.Bytes())
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(8, 0, nil)
	k := KeyFrom("boom")
	var runs atomic.Int64
	fail := func(context.Context) ([]byte, int64, error) {
		runs.Add(1)
		return nil, 0, errors.New("engine rejected it")
	}
	if _, _, err := c.Do(bg(), k, "fp", fail); err == nil {
		t.Fatal("error swallowed")
	}
	if _, _, err := c.Do(bg(), k, "fp", fail); err == nil {
		t.Fatal("error cached as success")
	}
	if runs.Load() != 2 {
		t.Fatalf("failed compute ran %d times, want 2 (errors never cached)", runs.Load())
	}
	if c.Len() != 0 {
		t.Fatalf("failed compute left %d entries resident", c.Len())
	}
}

func TestLRUEntryCap(t *testing.T) {
	met := engine.NewMetrics()
	c := New(2, 0, met)
	for i := 0; i < 3; i++ {
		k := KeyFrom(fmt.Sprintf("k%d", i))
		if _, _, err := c.Do(bg(), k, "fp", computeVal(fmt.Sprint(i), 1, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d after inserting 3 into cap-2 cache, want 2", c.Len())
	}
	if _, ok := c.Get(KeyFrom("k0")); ok {
		t.Fatal("oldest entry survived past the entry cap")
	}
	if _, ok := c.Get(KeyFrom("k2")); !ok {
		t.Fatal("newest entry was evicted")
	}
	if met.Get(engine.CacheEvictions) != 1 {
		t.Fatalf("evictions = %d, want 1", met.Get(engine.CacheEvictions))
	}

	// Touching k1 promotes it; inserting k3 must now evict k2, not k1.
	c.Get(KeyFrom("k1"))
	if _, _, err := c.Do(bg(), KeyFrom("k3"), "fp", computeVal("3", 1, nil)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(KeyFrom("k1")); !ok {
		t.Fatal("recently-touched entry was evicted instead of the LRU one")
	}
	if _, ok := c.Get(KeyFrom("k2")); ok {
		t.Fatal("LRU entry survived")
	}
}

func TestByteBudget(t *testing.T) {
	met := engine.NewMetrics()
	c := New(0, 10, met)
	for i := 0; i < 3; i++ {
		k := KeyFrom(fmt.Sprintf("b%d", i))
		if _, _, err := c.Do(bg(), k, "fp", computeVal(fmt.Sprint(i), 4, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Bytes() > 10 {
		t.Fatalf("resident bytes %d exceed the 10-byte budget", c.Bytes())
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (4+4 fits, 4+4+4 does not)", c.Len())
	}

	// A value alone above the budget is not cached at all — and evicts
	// nothing.
	before := c.Len()
	if _, st, err := c.Do(bg(), KeyFrom("huge"), "fp", computeVal("x", 100, nil)); err != nil || st != Miss {
		t.Fatalf("oversized Do = (%v, %v)", st, err)
	}
	if c.Len() != before {
		t.Fatalf("oversized value disturbed residency: %d -> %d", before, c.Len())
	}
	if _, ok := c.Get(KeyFrom("huge")); ok {
		t.Fatal("value above the whole byte budget was cached")
	}
}

// TestMaxEntryBytesAdmission: with a per-entry cap installed, an oversized
// value is computed and served every time — never cached, never disturbing
// resident entries — and each refusal is counted as oversized. Values at or
// under the cap cache normally.
func TestMaxEntryBytesAdmission(t *testing.T) {
	met := engine.NewMetrics()
	c := New(8, 0, met)
	c.SetMaxEntryBytes(10)

	// At the cap: cached normally.
	if _, st, err := c.Do(bg(), KeyFrom("small"), "fp", computeVal("s", 10, nil)); err != nil || st != Miss {
		t.Fatalf("small Do = (%v, %v)", st, err)
	}
	if _, ok := c.Get(KeyFrom("small")); !ok {
		t.Fatal("at-cap value was refused admission")
	}

	// Over the cap: served, not cached, recompute on every call.
	var runs atomic.Int64
	big := computeVal("B", 11, &runs)
	for i := 1; i <= 2; i++ {
		v, st, err := c.Do(bg(), KeyFrom("big"), "fp", big)
		if err != nil || string(v) != "B" || st != Miss {
			t.Fatalf("big Do #%d = (%v, %v, %v), want (B, Miss, nil)", i, v, st, err)
		}
	}
	if runs.Load() != 2 {
		t.Fatalf("oversized compute ran %d times, want 2 (never cached)", runs.Load())
	}
	if _, ok := c.Get(KeyFrom("big")); ok {
		t.Fatal("over-cap value was cached")
	}
	if c.Len() != 1 || c.Bytes() != 10 {
		t.Fatalf("Len/Bytes = %d/%d, want 1/10 (oversized value must not disturb residency)",
			c.Len(), c.Bytes())
	}
	if met.Get(engine.CacheOversized) != 2 {
		t.Fatalf("oversized = %d, want 2", met.Get(engine.CacheOversized))
	}

	// The oversized value is also un-aliasable: there is no resident entry
	// to alias to.
	c.SetAlias(KeyFrom("raw-big"), KeyFrom("big"))
	if _, ok := c.GetVia(KeyFrom("raw-big")); ok {
		t.Fatal("alias to an uncached oversized value resolved")
	}
}

func TestInvalidateByFingerprint(t *testing.T) {
	met := engine.NewMetrics()
	c := New(0, 0, met)
	c.Do(bg(), KeyFrom("old1"), "fpA", computeVal("1", 1, nil))
	c.Do(bg(), KeyFrom("old2"), "fpA", computeVal("2", 1, nil))
	c.Do(bg(), KeyFrom("new1"), "fpB", computeVal("3", 1, nil))

	if n := c.Invalidate("fpB"); n != 2 {
		t.Fatalf("Invalidate dropped %d entries, want 2", n)
	}
	if _, ok := c.Get(KeyFrom("old1")); ok {
		t.Fatal("stale-fingerprint entry survived invalidation")
	}
	if _, ok := c.Get(KeyFrom("new1")); !ok {
		t.Fatal("current-fingerprint entry was dropped")
	}
	if met.Get(engine.CacheInvalidations) != 2 {
		t.Fatalf("invalidations = %d, want 2", met.Get(engine.CacheInvalidations))
	}
	if c.Len() != 1 || c.Bytes() != 1 {
		t.Fatalf("Len/Bytes = %d/%d after invalidation, want 1/1", c.Len(), c.Bytes())
	}
}

// TestSingleflightSharesOneCompute: N concurrent callers for the same key
// observe exactly one compute; everyone gets the same value.
func TestSingleflightSharesOneCompute(t *testing.T) {
	met := engine.NewMetrics()
	c := New(8, 0, met)
	k := KeyFrom("shared")
	var runs atomic.Int64
	gate := make(chan struct{})
	compute := func(context.Context) ([]byte, int64, error) {
		runs.Add(1)
		<-gate // hold the flight open until every goroutine has joined
		return []byte("val"), 3, nil
	}

	const n = 16
	var started, done sync.WaitGroup
	results := make([]string, n)
	statuses := make([]Status, n)
	for i := 0; i < n; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			started.Done()
			v, st, err := c.Do(bg(), k, "fp", compute)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			results[i] = string(v)
			statuses[i] = st
		}(i)
	}
	started.Wait()
	time.Sleep(20 * time.Millisecond) // let followers reach the flight wait
	close(gate)
	done.Wait()

	if runs.Load() != 1 {
		t.Fatalf("compute ran %d times under %d concurrent callers, want 1", runs.Load(), n)
	}
	misses, coalesced, hits := 0, 0, 0
	for i := range results {
		if results[i] != "val" {
			t.Fatalf("goroutine %d got %q", i, results[i])
		}
		switch statuses[i] {
		case Miss:
			misses++
		case Coalesced:
			coalesced++
		case Hit:
			hits++
		}
	}
	if misses != 1 {
		t.Fatalf("%d leaders, want exactly 1 (coalesced %d, hits %d)", misses, coalesced, hits)
	}
	if coalesced+hits != n-1 {
		t.Fatalf("followers = %d coalesced + %d hits, want %d total", coalesced, hits, n-1)
	}
}

// TestCancelledLeaderDoesNotPoisonFollowers: the leader's context is
// cancelled mid-compute; followers must not receive the leader's context
// error — one of them re-runs the compute and succeeds.
func TestCancelledLeaderDoesNotPoisonFollowers(t *testing.T) {
	c := New(8, 0, nil)
	k := KeyFrom("poison")
	var runs atomic.Int64
	leaderIn := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(bg())

	compute := func(ctx context.Context) ([]byte, int64, error) {
		n := runs.Add(1)
		if n == 1 {
			close(leaderIn)
			<-ctx.Done() // the leader dies with its own context error
			return nil, 0, ctx.Err()
		}
		return []byte("recovered"), 9, nil
	}

	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, k, "fp", compute)
		leaderErr <- err
	}()
	<-leaderIn

	const followers = 4
	var wg sync.WaitGroup
	errs := make([]error, followers)
	vals := make([][]byte, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _, errs[i] = c.Do(bg(), k, "fp", compute)
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // followers join the leader's flight
	cancelLeader()
	wg.Wait()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want its own context.Canceled", err)
	}
	for i := 0; i < followers; i++ {
		if errs[i] != nil {
			t.Fatalf("follower %d inherited an error: %v (leader cancellation must not poison followers)", i, errs[i])
		}
		if string(vals[i]) != "recovered" {
			t.Fatalf("follower %d value = %v, want recovered", i, vals[i])
		}
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("compute ran %d times, want 2 (dead leader + one recovery leader)", got)
	}
}

// TestFollowerDeadlineWhileWaiting: a follower whose own context expires
// while waiting on the leader gets its context error immediately, not the
// leader's eventual result.
func TestFollowerDeadlineWhileWaiting(t *testing.T) {
	c := New(8, 0, nil)
	k := KeyFrom("slow")
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Do(bg(), k, "fp", func(context.Context) ([]byte, int64, error) {
		close(started)
		<-release
		return []byte("late"), 4, nil
	})
	<-started

	ctx, cancel := context.WithTimeout(bg(), 10*time.Millisecond)
	defer cancel()
	_, _, err := c.Do(ctx, k, "fp", computeVal("never", 1, nil))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired follower got %v, want DeadlineExceeded", err)
	}
	close(release)
}

func TestKeyFromFraming(t *testing.T) {
	if KeyFrom("ab", "c") == KeyFrom("a", "bc") {
		t.Fatal("length framing broken: (ab,c) and (a,bc) collide")
	}
	if KeyFrom("x") != KeyFrom("x") {
		t.Fatal("KeyFrom is not deterministic")
	}
}

// TestAliasFastPath: the raw-bytes alias layer answers byte-identical
// re-posts without the canonical path, self-heals dangling aliases, refuses
// to alias a value that was never cached, and is dropped wholesale on
// invalidation and on cap overflow.
func TestAliasFastPath(t *testing.T) {
	met := engine.NewMetrics()
	c := New(2, 0, met)
	raw, canon := KeyFrom("raw-bytes"), KeyFrom("canonical")

	// An alias may only point at a resident entry.
	c.SetAlias(raw, canon)
	if c.AliasLen() != 0 {
		t.Fatal("alias to a non-resident key was recorded")
	}
	if _, ok := c.GetVia(raw); ok {
		t.Fatal("GetVia answered through a refused alias")
	}

	if _, _, err := c.Do(bg(), canon, "fp1", computeVal("v", 1, nil)); err != nil {
		t.Fatal(err)
	}
	c.SetAlias(raw, canon)
	hitsBefore := met.Get(engine.CacheHits)
	v, ok := c.GetVia(raw)
	if !ok || string(v) != "v" {
		t.Fatalf("GetVia = (%v, %v), want (v, true)", v, ok)
	}
	if met.Get(engine.CacheHits) != hitsBefore+1 {
		t.Fatal("an alias hit was not counted as a cache hit")
	}

	// Evicting the canonical entry leaves the alias dangling: the next
	// GetVia misses AND removes it.
	for i := 0; i < 2; i++ {
		k := KeyFrom(fmt.Sprintf("fill-%d", i))
		if _, _, err := c.Do(bg(), k, "fp1", computeVal("f", 1, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get(canon); ok {
		t.Fatal("canonical entry survived eviction; test setup broken")
	}
	if _, ok := c.GetVia(raw); ok {
		t.Fatal("GetVia answered through a dangling alias")
	}
	if c.AliasLen() != 0 {
		t.Fatal("dangling alias was not dropped on lookup")
	}

	// Invalidation drops the alias layer with the entries.
	k := KeyFrom("post-reload")
	if _, _, err := c.Do(bg(), k, "fp1", computeVal("v2", 1, nil)); err != nil {
		t.Fatal(err)
	}
	c.SetAlias(KeyFrom("raw2"), k)
	if c.Invalidate("fp2") == 0 {
		t.Fatal("nothing invalidated; test setup broken")
	}
	if c.AliasLen() != 0 {
		t.Fatal("aliases survived invalidation")
	}
}

// TestAliasCapResets: overflowing the alias budget resets the map instead of
// growing without bound.
func TestAliasCapResets(t *testing.T) {
	c := New(2, 0, engine.NewMetrics()) // alias cap = 8
	canon := KeyFrom("canonical")
	if _, _, err := c.Do(bg(), canon, "fp1", computeVal("v", 1, nil)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		c.SetAlias(KeyFrom(fmt.Sprintf("raw-%d", i)), canon)
		if n := c.AliasLen(); n > 8 {
			t.Fatalf("alias map grew to %d, above the cap of 8", n)
		}
	}
}

// TestSingleflightOversizedFollowers: a burst of concurrent callers lands
// on one key whose value exceeds the per-entry admission cap. The leader
// must still compute exactly once and hand the value to every follower
// (Coalesced), the value must never become resident, and the refusal is
// counted once per flight — oversized admission and singleflight must not
// interfere. Runs under -race in the cache-conformance suite.
func TestSingleflightOversizedFollowers(t *testing.T) {
	met := engine.NewMetrics()
	c := New(8, 0, met)
	c.SetMaxEntryBytes(10)
	k := KeyFrom("oversized-shared")
	var runs atomic.Int64
	gate := make(chan struct{})
	compute := func(context.Context) ([]byte, int64, error) {
		runs.Add(1)
		<-gate // hold the flight open until every follower has joined
		return []byte("huge"), 100, nil
	}

	const n = 9 // 1 leader + 8 followers
	var started, done sync.WaitGroup
	statuses := make([]Status, n)
	for i := 0; i < n; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			started.Done()
			v, st, err := c.Do(bg(), k, "fp", compute)
			if err != nil || string(v) != "huge" {
				t.Errorf("goroutine %d: (%v, %v)", i, v, err)
				return
			}
			statuses[i] = st
		}(i)
	}
	started.Wait()
	time.Sleep(20 * time.Millisecond) // let followers reach the flight wait
	close(gate)
	done.Wait()

	if runs.Load() != 1 {
		t.Fatalf("compute ran %d times under %d concurrent callers, want 1", runs.Load(), n)
	}
	misses, coalesced := 0, 0
	for i, st := range statuses {
		switch st {
		case Miss:
			misses++
		case Coalesced:
			coalesced++
		default:
			t.Fatalf("goroutine %d: status %v — an oversized value can never Hit", i, st)
		}
	}
	if misses != 1 || coalesced != n-1 {
		t.Fatalf("%d leaders + %d coalesced, want 1 + %d", misses, coalesced, n-1)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("oversized value became resident: Len/Bytes = %d/%d", c.Len(), c.Bytes())
	}
	if got := met.Get(engine.CacheOversized); got != 1 {
		t.Fatalf("oversized refusals = %d, want 1 (one per flight, not per follower)", got)
	}

	// Never cached: the next caller recomputes, still uncached, counted again.
	v, st, err := c.Do(bg(), k, "fp", compute)
	if err != nil || string(v) != "huge" || st != Miss {
		t.Fatalf("recompute = (%v, %v, %v), want (huge, Miss, nil)", v, st, err)
	}
	if runs.Load() != 2 || c.Len() != 0 {
		t.Fatalf("recompute: runs=%d Len=%d, want 2 and 0", runs.Load(), c.Len())
	}
	if got := met.Get(engine.CacheOversized); got != 2 {
		t.Fatalf("oversized refusals after recompute = %d, want 2", got)
	}
}
