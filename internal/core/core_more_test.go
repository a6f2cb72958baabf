package core

import (
	"bytes"
	"math"
	"testing"
)

func TestTransCtrl2FallbackAndClamps(t *testing.T) {
	m := testModel()
	const T = 0.5e-9

	// Fallback without pair data: the earlier input's transition time.
	m2 := testModel()
	m2.Pairs = nil
	if got := m2.TransCtrl2(0, 1, T, T, 0.2e-9, 0); !approx(got, m2.CtrlPins[0].TransAt(T, 0), 1e-18) {
		t.Errorf("fallback positive skew trans = %g", got)
	}
	if got := m2.TransCtrl2(0, 1, T, T, -0.2e-9, 0); !approx(got, m2.CtrlPins[1].TransAt(T, 0), 1e-18) {
		t.Errorf("fallback negative skew trans = %g", got)
	}

	// SKmin beyond the arms gets clamped inside them.
	m3 := testModel()
	for i := range m3.Pairs {
		m3.Pairs[i].Timing.SKmin = Quad2{K1: 99} // way past SX = 0.5ns
	}
	v := m3.TransCtrl2(0, 1, T, T, 0.4e-9, 0)
	if math.IsNaN(v) || v <= 0 {
		t.Errorf("clamped SKmin produced invalid trans %g", v)
	}

	// Fitted T0 above the arms is clamped down.
	m4 := testModel()
	for i := range m4.Pairs {
		m4.Pairs[i].Timing.T0 = Cross{K1: 99}
	}
	tx := m4.CtrlPins[0].TransAt(T, 0)
	ty := m4.CtrlPins[1].TransAt(T, 0)
	if got := m4.TransCtrl2(0, 1, T, T, 0.05e-9, 0); got > math.Min(tx, ty)+1e-18 {
		t.Errorf("T0 clamp failed: %g > min arm %g", got, math.Min(tx, ty))
	}

	// Negative fitted T0 is floored to a positive value.
	m5 := testModel()
	for i := range m5.Pairs {
		m5.Pairs[i].Timing.T0 = Cross{K1: -5}
	}
	skm := m5.SKminAt(0, 1, T, T)
	if got := m5.TransCtrl2(0, 1, T, T, skm, 0); got <= 0 {
		t.Errorf("negative T0 not floored: %g", got)
	}

	// Far-skew arms return the single-pin transition times.
	if got := m.TransCtrl2(0, 1, T, T, -2e-9, 0); !approx(got, m.CtrlPins[1].TransAt(T, 0), 1e-15) {
		t.Errorf("far negative skew trans = %g", got)
	}
}

func TestSKminAt(t *testing.T) {
	m := testModel()
	if got := m.SKminAt(0, 1, 0.5e-9, 0.5e-9); !approx(got, 0.1e-9, 1e-18) {
		t.Errorf("SKminAt = %g, want 0.1ns", got)
	}
	m.Pairs = nil
	if got := m.SKminAt(0, 1, 0.5e-9, 0.5e-9); got != 0 {
		t.Errorf("SKminAt without pair = %g, want 0", got)
	}
}

func TestLibraryCellLookup(t *testing.T) {
	lib := &Library{Cells: map[string]*CellModel{"NAND2": testModel()}}
	if _, ok := lib.Cell("NAND2"); !ok {
		t.Error("Cell(NAND2) should succeed")
	}
	if _, ok := lib.Cell("NOPE"); ok {
		t.Error("Cell(NOPE) should fail")
	}
	if m := lib.MustCell("NAND2"); m == nil {
		t.Error("MustCell returned nil")
	}
}

func TestWriteLoadJSONInPackage(t *testing.T) {
	lib := &Library{
		TechName: "t",
		Vdd:      3.3,
		Cells:    map[string]*CellModel{"NAND2": testModel()},
	}
	var buf bytes.Buffer
	if err := lib.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLibrary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TechName != "t" || got.Vdd != 3.3 {
		t.Errorf("header lost: %+v", got)
	}
	const T = 0.4e-9
	a := lib.MustCell("NAND2").DelayCtrl2(0, 1, T, T, 0.1e-9, 0)
	b := got.MustCell("NAND2").DelayCtrl2(0, 1, T, T, 0.1e-9, 0)
	if a != b {
		t.Errorf("model changed across JSON: %g vs %g", a, b)
	}
}

func TestCrossCorrectionTerms(t *testing.T) {
	// The extended terms contribute; zeroing them recovers the base form.
	base := Cross{Kxy: 0.1, Kx: 0.2, Ky: 0.3, K1: 0.4}
	ext := base
	ext.Kxx, ext.Kyy, ext.Kxxy, ext.Kxyy = 0.05, 0.06, 0.07, 0.08
	tx, ty := 0.6e-9, 0.9e-9
	if base.Eval(tx, ty) == ext.Eval(tx, ty) {
		t.Error("correction terms had no effect")
	}
	x, y := math.Cbrt(0.6), math.Cbrt(0.9)
	want := (0.1*x*y + 0.2*x + 0.3*y + 0.4 + 0.05*x*x + 0.06*y*y + 0.07*x*x*y + 0.08*x*y*y) * 1e-9
	if got := ext.Eval(tx, ty); !approx(got, want, 1e-22) {
		t.Errorf("extended Eval = %g, want %g", got, want)
	}
}

func TestCtrlResponsePairOrderIndependence(t *testing.T) {
	// The response must not depend on the order events are listed in.
	m := testModel()
	const T = 0.5e-9
	evs := []InputEvent{
		{Pin: 0, Arrival: 1.0e-9, Trans: T},
		{Pin: 1, Arrival: 1.2e-9, Trans: T},
	}
	rev := []InputEvent{evs[1], evs[0]}
	a, err := m.CtrlResponse(evs, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.CtrlResponse(rev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("order dependence: %+v vs %+v", a, b)
	}
}

// pairModel is an n-input cell with the given ordered pairs characterised.
func pairModel(n int, pairs [][2]int) *CellModel {
	m := &CellModel{Name: "T", Kind: "NAND", N: n}
	for k, p := range pairs {
		m.Pairs = append(m.Pairs, PairEntry{X: p[0], Y: p[1], Timing: PairTiming{D0: Cross{K1: float64(k)}}})
	}
	return m
}

// TestPairTableMatchesPair: a table re-resolved across cells of different
// sizes answers exactly as CellModel.Pair, including the pairs a cell does
// not characterise and cells wider than MaxTablePins.
func TestPairTableMatchesPair(t *testing.T) {
	full := func(n int) (ps [][2]int) {
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				if x != y {
					ps = append(ps, [2]int{x, y})
				}
			}
		}
		return ps
	}
	var tab PairTable
	for _, m := range []*CellModel{
		pairModel(4, full(4)),
		pairModel(2, [][2]int{{1, 0}}),
		pairModel(3, [][2]int{{0, 1}, {0, 1}, {2, 0}}), // duplicate: first wins
		pairModel(MaxTablePins+2, full(MaxTablePins+2)),
		pairModel(3, nil),
	} {
		tab.Resolve(m)
		for x := 0; x < m.N; x++ {
			for y := 0; y < m.N; y++ {
				if got, want := tab.Pair(x, y), m.Pair(x, y); got != want {
					t.Fatalf("N=%d pair (%d,%d): table %p, scan %p", m.N, x, y, got, want)
				}
			}
		}
	}
}

// TestCornerFormsMatch: the prepared-corner evaluators are the scalar
// ones, bit for bit.
func TestCornerFormsMatch(t *testing.T) {
	m := testModel()
	m.Pairs[1].Timing.D0.Kx = 0.03
	m.Pairs[1].Timing.SX.Kx = 0.2
	for _, tx := range []float64{0.05e-9, 0.3e-9, 1.1e-9} {
		for _, ty := range []float64{0.07e-9, 0.5e-9} {
			for _, skew := range []float64{-0.4e-9, -0.01e-9, 0, 0.02e-9, 0.6e-9} {
				for _, load := range []float64{0, 5e-15} {
					cx, cy := m.CtrlCorner(1, tx, load), m.CtrlCorner(0, ty, load)
					p10, p01 := m.Pair(1, 0), m.Pair(0, 1)
					if a, b := m.DelayCtrl2At(p10, p01, 1, cx, cy, skew, load), m.DelayCtrl2(1, 0, tx, ty, skew, load); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("DelayCtrl2At %g != DelayCtrl2 %g", a, b)
					}
					if a, b := m.TransCtrl2At(p10, p01, 1, cx, cy, skew, load), m.TransCtrl2(1, 0, tx, ty, skew, load); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("TransCtrl2At %g != TransCtrl2 %g", a, b)
					}
					if a, b := m.Pairs[1].Timing.D0.EvalCbrt(cx.Cbrt, cy.Cbrt), m.Pairs[1].Timing.D0.Eval(tx, ty); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("EvalCbrt %g != Eval %g", a, b)
					}
				}
			}
		}
	}
}
