package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. Spans
// stay in memory and are written out once, at the end of the run. Spans of
// one operation share its op ID; a span's parent is the span that caused
// it. A nil *tracer records nothing, so untraced runs pay only a nil check.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// activeSpan is an open span; end closes it.
type activeSpan struct {
	t      *tracer
	id     int64
	parent int64
	op     int64
	name   string
	start  time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an operation ID.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// begin opens a span named name in operation op under parent (0 = root).
func (t *tracer) begin(name string, op, parent int64) activeSpan {
	if t == nil {
		return activeSpan{}
	}
	return activeSpan{t: t, id: t.nextID.Add(1), parent: parent, op: op, name: name, start: time.Now()}
}

// end closes the span and returns its duration.
func (a activeSpan) end() time.Duration {
	if a.t == nil {
		return 0
	}
	d := time.Since(a.start)
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, span{
		ID: a.id, Parent: a.parent, Op: a.op, Name: a.name,
		Start: int64(a.start.Sub(a.t.t0)), Dur: int64(d),
	})
	a.t.mu.Unlock()
	return d
}

// spanStats summarises all spans of one name.
type spanStats struct {
	count int
	dur   []float64 // ms
	self  []float64 // ms: duration minus the union of its children
}

// summary groups the spans by name, with self times.
func (t *tracer) summary() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*spanStats{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.count++
		st.dur = append(st.dur, float64(s.Dur)/1e6)
		st.self = append(st.self, float64(s.Dur-covered(s, children[s.ID]))/1e6)
	}
	return out
}

// covered is how much of parent's interval its children cover (children
// may overlap when they run concurrently).
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.Start+k.Dur, parent.Start+parent.Dur)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if !open || v.a > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = v.a, v.b, true
		} else if v.b > curB {
			curB = v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// medianSelfMs is the median self time of the named spans, and their count.
func medianSelfMs(byName map[string]*spanStats, name string) (float64, int) {
	st := byName[name]
	if st == nil {
		return 0, 0
	}
	return quantile(st.self, 0.5), st.count
}

// write stores every span as JSON and returns report lines summarising
// them by name (count, median duration, median and total self time).
func (t *tracer) write(path string) ([]string, error) {
	t.mu.Lock()
	raw, err := json.Marshal(t.spans)
	n := len(t.spans)
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return nil, err
	}
	byName := t.summary()
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("trace: %d spans written to %s", n, path),
		fmt.Sprintf("  %-30s %7s %12s %12s %12s", "span", "count", "p50_ms", "self_p50_ms", "self_sum_ms")}
	for _, name := range names {
		st := byName[name]
		lines = append(lines, fmt.Sprintf("  %-30s %7d %12.4f %12.4f %12.2f",
			name, st.count, quantile(st.dur, 0.5), quantile(st.self, 0.5), sum(st.self)))
	}
	return lines, nil
}
