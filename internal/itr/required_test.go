package itr

import (
	"math"
	"reflect"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/nineval"
	"sstiming/internal/prechar"
	"sstiming/internal/sta"
)

func TestRequiredEmptyCubeMatchesSTA(t *testing.T) {
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	cons := sta.Constraint{MinTime: 0, MaxTime: 5e-9}

	staRes, err := sta.Analyze(c, sta.Options{Lib: lib, Mode: sta.ModeProposed})
	if err != nil {
		t.Fatal(err)
	}
	staReq := staRes.RequiredTimes(cons)

	itrRes, err := Refine(c, nineval.Cube{}, Options{Lib: lib, Mode: sta.ModeProposed})
	if err != nil {
		t.Fatal(err)
	}
	itrReq := itrRes.RequiredTimes(cons, lib)

	for net, sr := range staReq {
		ir, ok := itrReq[net]
		if !ok {
			t.Fatalf("ITR required missing net %s", net)
		}
		if math.Abs(sr.Rise.QL-ir.Rise.QL) > 1e-15 || math.Abs(sr.Fall.QL-ir.Fall.QL) > 1e-15 {
			t.Errorf("%s: QL differ: sta (%g,%g) itr (%g,%g)",
				net, sr.Rise.QL, sr.Fall.QL, ir.Rise.QL, ir.Fall.QL)
		}
		if math.Abs(sr.Rise.QS-ir.Rise.QS) > 1e-15 || math.Abs(sr.Fall.QS-ir.Fall.QS) > 1e-15 {
			t.Errorf("%s: QS differ: sta (%g,%g) itr (%g,%g)",
				net, sr.Rise.QS, sr.Fall.QS, ir.Rise.QS, ir.Fall.QS)
		}
	}
}

func TestRequiredDropsImpossibleDirections(t *testing.T) {
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	// Hold PI 1 steady high in both frames: its falling transition is
	// impossible, so it must get no falling required window.
	cube := nineval.Cube{"1": nineval.V11}
	res, err := Refine(c, cube, Options{Lib: lib, Mode: sta.ModeProposed})
	if err != nil {
		t.Fatal(err)
	}
	req := res.RequiredTimes(sta.Constraint{MinTime: 0, MaxTime: 5e-9}, lib)
	lr, ok := req["1"]
	if !ok {
		t.Fatal("missing required for PI 1")
	}
	if !math.IsInf(lr.Fall.QL, 1) || !math.IsInf(lr.Fall.QS, -1) {
		t.Errorf("falling required window should be undefined: %+v", lr.Fall)
	}
}

func TestRequiredViolationsUnderRefinement(t *testing.T) {
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	res, err := Refine(c, nineval.Cube{}, Options{Lib: lib, Mode: sta.ModeProposed})
	if err != nil {
		t.Fatal(err)
	}
	// Loose constraint: clean.
	if v := res.CheckViolations(sta.Constraint{MinTime: 0, MaxTime: 1e-6}, lib); len(v) != 0 {
		t.Errorf("loose constraint should pass, got %d violations", len(v))
	}
	// Impossible setup constraint: violations.
	if v := res.CheckViolations(sta.Constraint{MinTime: 0, MaxTime: 1e-12}, lib); len(v) == 0 {
		t.Error("tight constraint should fail")
	}
}

func TestRequiredTightensWithStates(t *testing.T) {
	// With a vector partially specified, surviving required windows never
	// get *looser* than STA's (the arcs can only disappear or keep their
	// bounds; dMin can only shrink toward pair corners that STA also
	// considers).
	lib := prechar.MustLibrary()
	c := benchgen.C17()
	cons := sta.Constraint{MinTime: 0.1e-9, MaxTime: 3e-9}

	staRes, err := sta.Analyze(c, sta.Options{Lib: lib, Mode: sta.ModeProposed})
	if err != nil {
		t.Fatal(err)
	}
	staReq := staRes.RequiredTimes(cons)

	cube := nineval.Cube{"1": nineval.V10, "2": nineval.V11}
	res, err := Refine(c, cube, Options{Lib: lib, Mode: sta.ModeProposed})
	if err != nil {
		t.Fatal(err)
	}
	itrReq := res.RequiredTimes(cons, lib)

	for net, ir := range itrReq {
		sr, ok := staReq[net]
		if !ok {
			continue
		}
		li := res.Lines[net]
		if li == nil {
			continue
		}
		// For surviving directions, ITR's QL must be >= STA's QL
		// (fewer constraining arcs -> less tight from above) and QS
		// <= ... actually both can only relax or stay; check the
		// setup bound direction.
		if li.HasRise() && !math.IsInf(sr.Rise.QL, 1) && !math.IsInf(ir.Rise.QL, 1) {
			if ir.Rise.QL < sr.Rise.QL-1e-15 {
				t.Errorf("%s rise QL tightened below STA: %g vs %g", net, ir.Rise.QL, sr.Rise.QL)
			}
		}
	}
}

// TestCheckViolationsDeterministic: ITR violations come out in
// sta.SortViolations order on every call, although the pass walks a map.
func TestCheckViolationsDeterministic(t *testing.T) {
	lib := prechar.MustLibrary()
	p, _ := benchgen.ProfileByName("c432")
	c, err := benchgen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Refine(c, nineval.Cube{}, Options{Lib: lib, Mode: sta.ModeProposed})
	if err != nil {
		t.Fatal(err)
	}
	staRes, err := sta.Analyze(c, sta.Options{Lib: lib, Mode: sta.ModeProposed})
	if err != nil {
		t.Fatal(err)
	}
	cons := sta.Constraint{MinTime: 1.1 * staRes.MinPOArrival(), MaxTime: 0.9 * staRes.MaxPOArrival()}
	first := res.CheckViolations(cons, lib)
	if len(first) < 2 {
		t.Fatalf("only %d violations: the constraint does not exercise ordering", len(first))
	}
	sorted := append([]sta.Violation(nil), first...)
	sta.SortViolations(sorted)
	if !reflect.DeepEqual(first, sorted) {
		t.Fatal("violations are not in sta.SortViolations order")
	}
	for k := 0; k < 20; k++ {
		if got := res.CheckViolations(cons, lib); !reflect.DeepEqual(got, first) {
			t.Fatalf("call %d returned a different slice", k)
		}
	}
	// With the empty cube ITR is STA: the same violations, in the same order.
	if want := staRes.CheckViolations(cons); !reflect.DeepEqual(first, want) {
		t.Fatalf("ITR found %d violations, STA %d (or in another order)", len(first), len(want))
	}
}
