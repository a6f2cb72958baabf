package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/netlist"
	"sstiming/internal/prechar"
)

// normalizeBody strips the per-request identity fields (request_id,
// elapsed_ms) and re-encodes with encoding/json's sorted map keys, so two
// responses can be compared byte for byte. Everything else — every timing
// number, every window, the critical path — must match exactly: the cache
// contract is exactness, not approximation.
func normalizeBody(t *testing.T, raw []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("response is not JSON: %v\n%.300s", err, raw)
	}
	delete(m, "request_id")
	delete(m, "elapsed_ms")
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// postCached POSTs and returns (status, X-Cache header, normalized body).
func postCached(t *testing.T, url string, body any) (int, string, string) {
	t.Helper()
	resp, raw := postJSON(t, url, body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), normalizeBody(t, raw)
}

// TestCacheEquivalenceTable: across endpoints, modes and option
// combinations, the second identical request is a hit and its body is
// byte-identical to the cold run's.
func TestCacheEquivalenceTable(t *testing.T) {
	src := benchText(t, benchgen.C17())
	for _, tc := range wireCases {
		t.Run(tc.name, func(t *testing.T) {
			_, hs := newTestServer(t, Options{CacheEntries: 64})
			body := tc.with(src)
			st1, cache1, body1 := postCached(t, hs.URL+tc.ep, body)
			st2, cache2, body2 := postCached(t, hs.URL+tc.ep, body)
			if st1 != http.StatusOK || st2 != http.StatusOK {
				t.Fatalf("statuses %d/%d, want 200/200", st1, st2)
			}
			if cache1 != "miss" || cache2 != "hit" {
				t.Fatalf("X-Cache %q then %q, want miss then hit", cache1, cache2)
			}
			if body1 != body2 {
				t.Fatalf("cache hit differs from the cold run:\ncold: %s\nhit:  %s", body1, body2)
			}
		})
	}
}

// shuffleGateLines permutes a .bench netlist's gate statements while keeping
// declarations in place: a semantically identical netlist that is textually
// different, exactly what canonicalization must see through.
func shuffleGateLines(t *testing.T, rng *rand.Rand, src string) string {
	t.Helper()
	var head, gates []string
	for _, line := range strings.Split(src, "\n") {
		if strings.Contains(line, "=") {
			gates = append(gates, line)
		} else if strings.TrimSpace(line) != "" {
			head = append(head, line)
		}
	}
	rng.Shuffle(len(gates), func(i, j int) { gates[i], gates[j] = gates[j], gates[i] })
	return strings.Join(append(head, gates...), "\n") + "\n"
}

// cubeValues are the two-frame values the campaign assigns to random PIs.
var cubeValues = []string{"01", "10", "00", "11", "0x", "1x", "x0", "x1"}

// TestCacheConformance is the randomized cache-equivalence campaign behind
// `make cache-conformance`: random benchgen circuits are POSTed twice to
// /analyze (the repeat with its gate statements shuffled) and twice to
// /refine under a random PI cube; every repeat must be a hit with a
// byte-identical body. The campaign honours CHAOS_SEED and prints the seed
// on failure.
func TestCacheConformance(t *testing.T) {
	met := engine.NewMetrics()
	_, hs := newTestServer(t, Options{CacheEntries: 256, Workers: 4, Metrics: met})
	rng := rand.New(rand.NewSource(chaosSeed(t, 42)))
	const seeds = 12
	for i := 0; i < seeds; i++ {
		c, err := benchgen.GenerateRand(benchgen.RandomProfile(fmt.Sprintf("cc%d", i), rng), rng)
		if err != nil {
			t.Fatal(err)
		}
		src := benchText(t, c)

		st1, cache1, body1 := postCached(t, hs.URL+"/analyze", map[string]any{"netlist": src, "windows": true})
		st2, cache2, body2 := postCached(t, hs.URL+"/analyze",
			map[string]any{"netlist": shuffleGateLines(t, rng, src), "windows": true})
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("seed %d: /analyze statuses %d/%d", i, st1, st2)
		}
		if cache1 != "miss" || cache2 != "hit" {
			t.Fatalf("seed %d: /analyze X-Cache %q then %q (gate order split the cache?)", i, cache1, cache2)
		}
		if body1 != body2 {
			t.Fatalf("seed %d: /analyze hit differs from cold run", i)
		}

		cube := map[string]string{}
		for _, pi := range c.PIs {
			if rng.Intn(2) == 0 {
				cube[pi] = cubeValues[rng.Intn(len(cubeValues))]
			}
		}
		req := map[string]any{"netlist": src, "cube": cube}
		st1, cache1, body1 = postCached(t, hs.URL+"/refine", req)
		st2, cache2, body2 = postCached(t, hs.URL+"/refine", req)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("seed %d: /refine statuses %d/%d", i, st1, st2)
		}
		if cache1 != "miss" || cache2 != "hit" {
			t.Fatalf("seed %d: /refine X-Cache %q then %q", i, cache1, cache2)
		}
		if body1 != body2 {
			t.Fatalf("seed %d: /refine hit differs from cold run", i)
		}
	}
	if hits := met.Get(engine.CacheHits); hits < 2*seeds {
		t.Fatalf("service/cache_hits = %d after %d repeats, want >= %d", hits, 2*seeds, 2*seeds)
	}
}

// postRaw is a goroutine-safe POST (no testing.T calls): concurrency tests
// collect results over channels instead of failing mid-flight.
func postRaw(url string, body any) (int, string, []byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, "", nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, "", nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Cache"), data, err
}

// TestSingleflightSharesOneEngineRun: N concurrent identical /analyze
// requests run the engine exactly once — observed through the engine's own
// sta/gates counter, which counts every propagated gate and would be N×gates
// if the burst fanned out.
func TestSingleflightSharesOneEngineRun(t *testing.T) {
	met := engine.NewMetrics()
	_, hs := newTestServer(t, Options{CacheEntries: 64, Workers: 4, Metrics: met})
	rng := rand.New(rand.NewSource(chaosSeed(t, 7)))
	c, err := benchgen.GenerateRand(benchgen.RandomProfile("sf", rng), rng)
	if err != nil {
		t.Fatal(err)
	}
	body := map[string]any{"netlist": benchText(t, c), "windows": true}

	const n = 16
	statuses := make(chan int, n)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, _, _, err := postRaw(hs.URL+"/analyze", body)
			statuses <- st
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(statuses)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("a burst request answered %d, want 200", st)
		}
	}
	gates := int64(c.NumGates())
	if got := met.Get(engine.STAGates); got != gates {
		t.Fatalf("engine propagated %d gates across %d identical requests, want exactly one run (%d)", got, n, gates)
	}
	if misses := met.Get(engine.CacheMisses); misses != 1 {
		t.Fatalf("service/cache_misses = %d, want 1 (the singleflight leader)", misses)
	}
	if shared := met.Get(engine.CacheHits) + met.Get(engine.CacheCoalesced); shared != n-1 {
		t.Fatalf("hits+coalesced = %d, want %d", shared, n-1)
	}
}

// TestFailedRunIsNotCachedAndDoesNotPoison: a leader whose deadline fires
// answers 504 and leaves nothing resident — the next identical request is a
// clean cold run (miss, not an inherited error, not a poisoned entry).
func TestFailedRunIsNotCachedAndDoesNotPoison(t *testing.T) {
	met := engine.NewMetrics()
	_, hs := newTestServer(t, Options{CacheEntries: 64, Metrics: met})
	// A NOT-chain deep enough that STA cannot finish inside 1ms.
	c := netlist.New("chain")
	c.AddPI("a")
	prev := "a"
	for i := 0; i < 20000; i++ {
		next := fmt.Sprintf("n%d", i)
		c.AddGate(netlist.Inv, next, prev)
		prev = next
	}
	c.AddPO(prev)
	if err := c.Build(); err != nil {
		t.Fatal(err)
	}
	src := benchText(t, c)

	resp, raw := postJSON(t, hs.URL+"/analyze", map[string]any{"netlist": src, "timeout_ms": 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("1ms-deadline analyze = %d, want 504: %.300s", resp.StatusCode, raw)
	}
	st2, cache2, body2 := postCached(t, hs.URL+"/analyze", map[string]any{"netlist": src})
	if st2 != http.StatusOK || cache2 != "miss" {
		t.Fatalf("request after failed leader: status %d X-Cache %q, want 200 miss", st2, cache2)
	}
	st3, cache3, body3 := postCached(t, hs.URL+"/analyze", map[string]any{"netlist": src})
	if st3 != http.StatusOK || cache3 != "hit" {
		t.Fatalf("third request: status %d X-Cache %q, want 200 hit", st3, cache3)
	}
	if body2 != body3 {
		t.Fatal("hit differs from the recovered cold run")
	}
}

// TestOversizedResponseServedNotCached: with a per-entry admission cap
// smaller than any real response, every request is answered correctly but
// the cache stays empty — repeats are misses, counted as oversized refusals.
func TestOversizedResponseServedNotCached(t *testing.T) {
	met := engine.NewMetrics()
	_, hs := newTestServer(t, Options{CacheEntries: 64, CacheMaxEntryBytes: 1, Metrics: met})
	body := map[string]any{"netlist": benchText(t, benchgen.C17()), "windows": true}

	st1, cache1, body1 := postCached(t, hs.URL+"/analyze", body)
	st2, cache2, body2 := postCached(t, hs.URL+"/analyze", body)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("statuses %d/%d, want 200/200 (oversized must still be served)", st1, st2)
	}
	if cache1 != "miss" || cache2 != "miss" {
		t.Fatalf("X-Cache %q then %q, want miss twice (over-cap responses never cache)", cache1, cache2)
	}
	if body1 != body2 {
		t.Fatal("the two uncached runs disagree")
	}
	if got := met.Get(engine.CacheOversized); got != 2 {
		t.Fatalf("service/cache_oversized = %d, want 2", got)
	}
	if got := met.Get(engine.CacheHits); got != 0 {
		t.Fatalf("cache hits = %d, want 0", got)
	}
}

// TestReloadInvalidatesCache: a hot reload that changes the library content
// invalidates every cached answer; a failed reload and a content-identical
// reload both keep the warm cache.
func TestReloadInvalidatesCache(t *testing.T) {
	base := prechar.MustLibrary()
	var nextLib *core.Library
	var nextErr error
	met := engine.NewMetrics()
	s, hs := newTestServer(t, Options{
		CacheEntries: 64,
		Metrics:      met,
		LibLoader:    func() (*core.Library, error) { return nextLib, nextErr },
	})
	body := map[string]any{"netlist": benchText(t, benchgen.C17()), "windows": true}

	if st, c, _ := postCached(t, hs.URL+"/analyze", body); st != 200 || c != "miss" {
		t.Fatalf("cold run: %d %q", st, c)
	}
	if st, c, _ := postCached(t, hs.URL+"/analyze", body); st != 200 || c != "hit" {
		t.Fatalf("warm run: %d %q", st, c)
	}

	// A failed reload keeps the old library serving AND its cache valid.
	nextErr = errors.New("loader fell over")
	if resp, raw := postJSON(t, hs.URL+"/reload", map[string]any{}); resp.StatusCode != 422 {
		t.Fatalf("failed reload = %d, want 422: %.300s", resp.StatusCode, raw)
	}
	if st, c, _ := postCached(t, hs.URL+"/analyze", body); st != 200 || c != "hit" {
		t.Fatalf("after failed reload: %d %q, want a still-warm hit", st, c)
	}
	if got := met.Get(engine.CacheInvalidations); got != 0 {
		t.Fatalf("failed reload invalidated %d entries, want 0", got)
	}

	// A content-identical reload keeps the fingerprint and the warm cache.
	nextErr = nil
	nextLib = &core.Library{TechName: base.TechName, Vdd: base.Vdd, Cells: base.Cells}
	if resp, raw := postJSON(t, hs.URL+"/reload", map[string]any{}); resp.StatusCode != 200 {
		t.Fatalf("identical reload = %d: %.300s", resp.StatusCode, raw)
	}
	if st, c, _ := postCached(t, hs.URL+"/analyze", body); st != 200 || c != "hit" {
		t.Fatalf("after identical reload: %d %q, want a still-warm hit", st, c)
	}
	if got := met.Get(engine.CacheInvalidations); got != 0 {
		t.Fatalf("identical reload invalidated %d entries, want 0", got)
	}

	// A content change invalidates: the old entry must never serve again.
	perturbed := &core.Library{TechName: base.TechName, Vdd: base.Vdd,
		Cells: make(map[string]*core.CellModel, len(base.Cells))}
	for name, m := range base.Cells {
		clone := *m
		perturbed.Cells[name] = &clone
	}
	inv := *perturbed.Cells["INV"]
	inv.RefLoad *= 1.5
	perturbed.Cells["INV"] = &inv
	nextLib = perturbed
	if resp, raw := postJSON(t, hs.URL+"/reload", map[string]any{}); resp.StatusCode != 200 {
		t.Fatalf("perturbed reload = %d: %.300s", resp.StatusCode, raw)
	}
	if got := met.Get(engine.CacheInvalidations); got < 1 {
		t.Fatalf("service/cache_invalidations = %d after a content-changing reload, want >= 1", got)
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("%d stale entries still resident after invalidation", n)
	}
	st, c, _ := postCached(t, hs.URL+"/analyze", body)
	if st != 200 || c != "miss" {
		t.Fatalf("after content reload: %d %q, want a cold miss against the new library", st, c)
	}
}
