// Package reqcache is the timing service's content-addressed analysis
// cache: deterministic analysis results (simultaneous-switching windows are
// pure functions of netlist × library × options) keyed on the SHA-256 of a
// canonical netlist encoding plus the serving library's fingerprint, bounded
// by an entry count and a byte budget with LRU eviction, and fronted by a
// singleflight layer so N concurrent identical requests share exactly one
// engine run.
//
// Entries are encoded response bytes, not response structs: the service
// encodes each response once, on the miss, and every hit splices its own
// request_id and elapsed_ms around the cached bytes instead of encoding
// again.
//
// Exactness is the design point: because the delay model is deterministic,
// a cache hit is byte-identical to a cold run (modulo the spliced
// per-request identity fields), never an approximation — so the cache needs
// no TTL and no staleness tolerance, only invalidation when the library
// fingerprint changes under a hot reload.
package reqcache

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unsafe"

	"sstiming/internal/netlist"
)

// Key is a content-address: the SHA-256 of every response-relevant input
// (canonical netlist, library fingerprint, analysis options). Comparable,
// so it can key a map directly.
type Key [sha256.Size]byte

// String returns the short hex form (for logs and tests).
func (k Key) String() string { return fmt.Sprintf("%x", k[:8]) }

// KeyFrom hashes the given parts into a Key. Parts are length-framed
// ("<decimal length>:<bytes>"), so ("ab","c") and ("a","bc") produce
// different keys.
//
// A part is often a whole posted netlist, so it is hashed in place: the
// SHA-256 digest has no WriteString, and io.WriteString would fall back to
// a []byte(p) copy. Viewing the string's bytes is safe because Write never
// modifies or retains its argument (the io.Writer contract).
func KeyFrom(parts ...string) Key {
	h := sha256.New()
	var n [24]byte
	for _, p := range parts {
		h.Write(append(strconv.AppendInt(n[:0], int64(len(p)), 10), ':'))
		h.Write(unsafe.Slice(unsafe.StringData(p), len(p)))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// CanonicalNetlist renders a circuit in a canonical text form: two parses of
// semantically identical netlists (same declarations, gate lines in any
// order) produce identical bytes.
//
// Canonicalization rules (DESIGN.md §13):
//
//   - one line per element, '\n'-terminated, no whitespace variance;
//   - PI and PO declarations keep their declaration order — primary-output
//     order is response-relevant (worst-path ties break in PO order), so it
//     is part of the address, not normalized away;
//   - gate lines are sorted by output net name — well-defined because a
//     built circuit has exactly one driver per net — so the textual order of
//     gate statements never splits the cache;
//   - gate input order is preserved exactly: input index is the cell pin
//     position (stack position in the paper's Figure 3), so reordering
//     inputs is a semantically different circuit;
//   - the circuit name is excluded: the service names every parsed request
//     identically, and a comment-level rename must not split the cache.
//
// The circuit must be structurally valid (Build/EnsureBuilt succeeded);
// CanonicalNetlist does not re-validate.
func CanonicalNetlist(c *netlist.Circuit) []byte {
	var b strings.Builder
	// Rough pre-size: ~16 bytes per declaration, ~32 per gate.
	b.Grow(16*(len(c.PIs)+len(c.POs)) + 32*len(c.Gates))
	for _, pi := range c.PIs {
		b.WriteString("i ")
		b.WriteString(pi)
		b.WriteByte('\n')
	}
	for _, po := range c.POs {
		b.WriteString("o ")
		b.WriteString(po)
		b.WriteByte('\n')
	}
	order := make([]int, len(c.Gates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return c.Gates[order[a]].Output < c.Gates[order[b]].Output
	})
	for _, gi := range order {
		g := &c.Gates[gi]
		b.WriteString("g ")
		b.WriteString(g.Kind.String())
		b.WriteByte(' ')
		b.WriteString(g.Output)
		b.WriteString(" =")
		for _, in := range g.Inputs {
			b.WriteByte(' ')
			b.WriteString(in)
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// CanonicalCube renders a net→two-frame-value cube map canonically: sorted
// "net=vv" pairs joined by ','. Used to address /refine requests.
func CanonicalCube(cube map[string]string) string {
	if len(cube) == 0 {
		return ""
	}
	pairs := make([]string, 0, len(cube))
	for net, v := range cube {
		pairs = append(pairs, net+"="+v)
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// CanonicalNets renders a net-filter list canonically: sorted, deduplicated,
// comma-joined. Two requests filtering the same net set share an address.
func CanonicalNets(nets []string) string {
	if len(nets) == 0 {
		return ""
	}
	s := append([]string(nil), nets...)
	sort.Strings(s)
	out := s[:1]
	for _, n := range s[1:] {
		if n != out[len(out)-1] {
			out = append(out, n)
		}
	}
	return strings.Join(out, ",")
}
