package reqcache

import (
	"container/list"
	"context"
	"sync"

	"sstiming/internal/engine"
)

// Status reports how a Do call was satisfied.
type Status int

const (
	// Miss: this caller was the singleflight leader and ran compute.
	Miss Status = iota
	// Hit: the value was already resident.
	Hit
	// Coalesced: another caller's in-flight compute produced the value;
	// this caller only waited.
	Coalesced
)

// String returns the status label used in X-Cache headers and metrics.
func (s Status) String() string {
	switch s {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// entry is one resident value.
type entry struct {
	key  Key
	fp   string // library fingerprint, for reload invalidation
	val  []byte
	size int64
}

// flight is one in-progress compute other callers may wait on. The leader
// fills val/err and closes done exactly once.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// Cache is a bounded content-addressed cache with singleflight semantics.
// Values are encoded response bytes, immutable once inserted: callers must
// not mutate a returned slice (handlers splice their per-request identity
// fields around it into a fresh body instead).
//
// Entries are addressed by their canonical key (hash of the canonicalized
// request semantics). On top of that sits the alias layer: a map from
// raw-request keys (hash of the request bytes as posted) to canonical keys.
// Canonicalizing costs a full netlist parse, which on small circuits rivals
// the engine run itself, so for the common hot pattern — a client re-posting
// byte-identical requests — GetVia answers from the raw hash alone and the
// parse never happens. Aliases are pure acceleration: a dangling or missing
// alias just drops the caller down to the canonical path.
type Cache struct {
	maxEntries    int
	maxBytes      int64
	maxEntryBytes int64
	aliasCap      int
	met           *engine.Metrics

	mu      sync.Mutex
	lru     *list.List // front = most recent; values are *entry
	byKey   map[Key]*list.Element
	bytes   int64
	flights map[Key]*flight
	aliases map[Key]Key // raw-bytes key -> canonical key
}

// New builds a cache holding at most maxEntries values and maxBytes total
// value bytes (either <= 0 means "no bound on that axis"; a cache with both
// bounds absent still works, it just never evicts). met may be nil.
func New(maxEntries int, maxBytes int64, met *engine.Metrics) *Cache {
	// Many raw spellings can share one canonical entry, so the alias map is
	// allowed a few times the entry budget; it holds two hashes per slot, so
	// even the fallback cap is tens of kilobytes, not a second cache.
	aliasCap := 4 * maxEntries
	if aliasCap <= 0 {
		aliasCap = 4096
	}
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		aliasCap:   aliasCap,
		met:        met,
		lru:        list.New(),
		byKey:      make(map[Key]*list.Element),
		flights:    make(map[Key]*flight),
		aliases:    make(map[Key]Key),
	}
}

// SetMaxEntryBytes installs a per-entry admission cap: a value whose size
// exceeds n bytes is still computed and returned to its caller, but never
// inserted — one pathological response (a windows dump for a huge netlist,
// say) must not evict the whole working set to cache something that will
// likely never repeat. n <= 0 (the default) means no per-entry bound.
// Refusals are counted under service/cache_oversized.
func (c *Cache) SetMaxEntryBytes(n int64) {
	c.mu.Lock()
	c.maxEntryBytes = n
	c.mu.Unlock()
}

// Do returns the value addressed by key, computing it at most once across
// concurrent callers:
//
//   - resident key: the value is returned immediately (Hit);
//   - in-flight key: the caller waits for the leader's result (Coalesced)
//     or for its own ctx — an expired waiter gets its ctx error, never a
//     partial result;
//   - otherwise the caller becomes the leader, runs compute under its own
//     ctx, and the successful result is inserted and shared (Miss).
//
// Failed computes are never cached, and a leader's error is never handed to
// its followers: a cancelled (or otherwise failed) leader must not poison
// the burst, so each follower retries — the first to re-arrive becomes the
// new leader and re-runs the engine. compute's (value, size) is the value to
// cache and its byte-accounting weight; the weight is the caller's to choose
// and need not be len(value).
func (c *Cache) Do(ctx context.Context, key Key, fp string, compute func(ctx context.Context) ([]byte, int64, error)) ([]byte, Status, error) {
	for {
		c.mu.Lock()
		if el, ok := c.byKey[key]; ok {
			c.lru.MoveToFront(el)
			val := el.Value.(*entry).val
			c.mu.Unlock()
			c.met.Add(engine.CacheHits, 1)
			return val, Hit, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
				if f.err == nil {
					c.met.Add(engine.CacheCoalesced, 1)
					return f.val, Coalesced, nil
				}
				// Leader failed: its error (a context cancellation, a
				// deadline 504, a contained panic) belongs to the leader's
				// request alone. Loop and recompute.
				continue
			case <-ctx.Done():
				return nil, Coalesced, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		val, size, err := compute(ctx)
		f.val, f.err = val, err
		c.mu.Lock()
		delete(c.flights, key)
		if err == nil {
			c.insertLocked(key, fp, val, size)
		}
		c.mu.Unlock()
		close(f.done)
		c.met.Add(engine.CacheMisses, 1)
		return val, Miss, err
	}
}

// GetVia returns the resident value behind an alias of raw, promoting it —
// the exact-bytes fast path (counted as a Hit). A dangling alias (its
// canonical entry was evicted or invalidated) is dropped and reported as a
// miss, sending the caller down the canonical parse-and-Do path.
func (c *Cache) GetVia(raw Key) ([]byte, bool) {
	c.mu.Lock()
	ck, ok := c.aliases[raw]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	el, ok := c.byKey[ck]
	if !ok {
		delete(c.aliases, raw)
		c.mu.Unlock()
		return nil, false
	}
	c.lru.MoveToFront(el)
	val := el.Value.(*entry).val
	c.mu.Unlock()
	c.met.Add(engine.CacheHits, 1)
	return val, true
}

// SetAlias records raw -> canonical so the next byte-identical request skips
// canonicalization. Aliasing a key with no resident entry is refused (the
// value was never cached — e.g. it alone exceeded the byte budget). A full
// alias map is reset wholesale rather than evicted entry-wise: aliases carry
// no computation worth preserving, only a parse.
func (c *Cache) SetAlias(raw, canonical Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byKey[canonical]; !ok {
		return
	}
	if len(c.aliases) >= c.aliasCap {
		c.aliases = make(map[Key]Key, c.aliasCap)
	}
	c.aliases[raw] = canonical
}

// AliasLen returns the resident alias count.
func (c *Cache) AliasLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.aliases)
}

// Get returns the resident value for key, if any, promoting it. Lookup
// without compute — for tests and metrics probes.
func (c *Cache) Get(key Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// insertLocked adds the value and evicts from the LRU tail until both
// budgets hold. A value alone exceeding the byte budget — or the per-entry
// admission cap — is not cached at all (caching it would immediately evict
// everything including itself); the refusal is counted as oversized.
func (c *Cache) insertLocked(key Key, fp string, val []byte, size int64) {
	if size < 0 {
		size = 0
	}
	if (c.maxBytes > 0 && size > c.maxBytes) ||
		(c.maxEntryBytes > 0 && size > c.maxEntryBytes) {
		c.met.Add(engine.CacheOversized, 1)
		return
	}
	if el, ok := c.byKey[key]; ok {
		// Benign race: a previous flight for the same key already landed.
		old := el.Value.(*entry)
		c.bytes += size - old.size
		old.val, old.size, old.fp = val, size, fp
		c.lru.MoveToFront(el)
	} else {
		c.byKey[key] = c.lru.PushFront(&entry{key: key, fp: fp, val: val, size: size})
		c.bytes += size
	}
	for (c.maxEntries > 0 && c.lru.Len() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes) {
		el := c.lru.Back()
		if el == nil {
			break
		}
		c.removeLocked(el)
		c.met.Add(engine.CacheEvictions, 1)
	}
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.byKey, e.key)
	c.bytes -= e.size
}

// Invalidate drops every entry whose library fingerprint differs from
// keepFP and returns how many were dropped (also counted under
// service/cache_invalidations). Called after a successful hot reload:
// stale-fingerprint entries are unreachable anyway (the fingerprint is part
// of every key), but dropping them returns their memory immediately and
// makes staleness impossible by construction rather than by key hygiene.
func (c *Cache) Invalidate(keepFP string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*entry).fp != keepFP {
			c.removeLocked(el)
			n++
		}
		el = next
	}
	if n > 0 {
		// Raw keys embed the fingerprint too, so stale aliases could never
		// hit — but they would sit as dead weight until the cap reset, so
		// drop the whole layer now. Live aliases re-learn on first re-post.
		c.aliases = make(map[Key]Key, c.aliasCap)
	}
	c.met.Add(engine.CacheInvalidations, int64(n))
	return n
}

// Len returns the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes returns the resident value bytes.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
