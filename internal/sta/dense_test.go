package sta

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/netlist"
	"sstiming/internal/prechar"
)

// standIn returns the benchgen stand-in of an ISCAS85 scale.
func standIn(tb testing.TB, name string) *netlist.Circuit {
	tb.Helper()
	p, ok := benchgen.ProfileByName(name)
	if !ok {
		tb.Fatalf("no profile %s", name)
	}
	c, err := benchgen.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.EnsureBuilt(); err != nil {
		tb.Fatal(err)
	}
	return c
}

// tightConstraint fails both checks on a share of the lines.
func tightConstraint(res *Result) Constraint {
	return Constraint{MinTime: 1.1 * res.MinPOArrival(), MaxTime: 0.9 * res.MaxPOArrival()}
}

// violationsFromMap is the map-based check CheckViolations replaced: it
// walks RequiredTimes' map, so the dense backward pass must agree with it.
func violationsFromMap(r *Result, cons Constraint) []Violation {
	var out []Violation
	for net, lr := range r.RequiredTimes(cons) {
		lt := r.Lines[net]
		for _, d := range []struct {
			w      Window
			q      Required
			rising bool
		}{{lt.Rise, lr.Rise, true}, {lt.Fall, lr.Fall, false}} {
			if math.IsInf(d.q.QL, 1) && math.IsInf(d.q.QS, -1) {
				continue
			}
			if s := d.q.QL - d.w.AL; s < 0 {
				out = append(out, Violation{Net: net, Rising: d.rising, Setup: true, Slack: s})
			}
			if s := d.w.AS - d.q.QS; s < 0 {
				out = append(out, Violation{Net: net, Rising: d.rising, Setup: false, Slack: s})
			}
		}
	}
	SortViolations(out)
	return out
}

// violationOrder is SortViolations' documented order as a comparison.
func violationOrder(a, b Violation) int {
	switch {
	case a.Slack != b.Slack:
		if a.Slack < b.Slack {
			return -1
		}
		return 1
	case a.Net != b.Net:
		return strings.Compare(a.Net, b.Net)
	case a.Rising != b.Rising:
		if a.Rising {
			return -1
		}
		return 1
	case a.Setup != b.Setup:
		if a.Setup {
			return -1
		}
		return 1
	}
	return 0
}

// TestCheckViolationsDeterministic: equal-slack violations (a critical
// path's nets share one slack) come out in the same total order on every
// call.
func TestCheckViolationsDeterministic(t *testing.T) {
	lib := prechar.MustLibrary()
	res, err := Analyze(standIn(t, "c880"), Options{Lib: lib, Mode: ModeProposed})
	if err != nil {
		t.Fatal(err)
	}
	cons := tightConstraint(res)
	first := res.CheckViolations(cons)
	ties := 0
	for i := 1; i < len(first); i++ {
		if c := violationOrder(first[i-1], first[i]); c >= 0 {
			t.Fatalf("violations %d and %d out of order: %+v, %+v", i-1, i, first[i-1], first[i])
		}
		if first[i-1].Slack == first[i].Slack {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no equal-slack violations: the test does not exercise tie-breaking")
	}
	for k := 0; k < 20; k++ {
		if got := res.CheckViolations(cons); !reflect.DeepEqual(got, first) {
			t.Fatalf("call %d returned a different slice", k)
		}
	}
	if want := violationsFromMap(res, cons); !reflect.DeepEqual(first, want) {
		t.Fatalf("dense check found %d violations, map-based check %d", len(first), len(want))
	}
}

// TestAnalyzeAllocsPerGate pins the allocation budget of a full serial
// analysis: at most one allocation per gate on the c7552 stand-in.
func TestAnalyzeAllocsPerGate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget: full analysis of c7552")
	}
	lib := prechar.MustLibrary()
	c := standIn(t, "c7552")
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Analyze(c, Options{Lib: lib, Mode: ModeProposed, Jobs: 1}); err != nil {
			t.Fatal(err)
		}
	})
	perGate := allocs / float64(c.NumGates())
	t.Logf("%v allocations per run, %.3f per gate", allocs, perGate)
	if perGate > 1 {
		t.Fatalf("sta.Analyze allocates %.2f times per gate (%v per run), budget 1", perGate, allocs)
	}
}

// BenchmarkRequiredTimes times the backward pass and its map on c7552.
func BenchmarkRequiredTimes(b *testing.B) {
	lib := prechar.MustLibrary()
	res, err := Analyze(standIn(b, "c7552"), Options{Lib: lib, Mode: ModeProposed, Jobs: 1})
	if err != nil {
		b.Fatal(err)
	}
	cons := tightConstraint(res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		required = res.RequiredTimes(cons)
	}
}

// required keeps the benchmark's result alive.
var required map[string]*LineRequired
