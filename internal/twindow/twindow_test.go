package twindow_test

import (
	"math"
	"math/rand"
	"testing"

	"sstiming/internal/core"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/prechar"
	"sstiming/internal/twindow"
)

var frames = []nineval.Frame{nineval.F0, nineval.F1, nineval.FX}

// cloneCell deep-copies the parts of a cell model propagation reads.
func cloneCell(m *core.CellModel) *core.CellModel {
	c := *m
	c.CtrlPins = append([]core.PinTiming(nil), m.CtrlPins...)
	c.NonCtrlPins = append([]core.PinTiming(nil), m.NonCtrlPins...)
	c.Pairs = append([]core.PairEntry(nil), m.Pairs...)
	c.NCPairs = append([]core.PairEntry(nil), m.NCPairs...)
	c.MultiFactor = append([]float64(nil), m.MultiFactor...)
	return &c
}

// widen builds an n-input cell from a characterised multi-input one by
// cycling its pin tables and pair surfaces, so the wide-gate paths (pair
// scans past core.MaxTablePins, heap-spilled input scratch) are exercised.
func widen(m *core.CellModel, n int) *core.CellModel {
	c := cloneCell(m)
	c.Name, c.N = "WIDE", n
	c.CtrlPins, c.NonCtrlPins, c.Pairs, c.NCPairs = nil, nil, nil, nil
	for i := 0; i < n; i++ {
		c.CtrlPins = append(c.CtrlPins, m.CtrlPins[i%m.N])
		c.NonCtrlPins = append(c.NonCtrlPins, m.NonCtrlPins[i%m.N])
	}
	k := 0
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if x == y {
				continue
			}
			c.Pairs = append(c.Pairs, core.PairEntry{X: x, Y: y, Timing: m.Pairs[k%len(m.Pairs)].Timing})
			c.NCPairs = append(c.NCPairs, core.PairEntry{X: x, Y: y, Timing: m.NCPairs[k%len(m.NCPairs)].Timing})
			k++
		}
	}
	return c
}

// randomCell picks a library cell (or a widened one) and perturbs it:
// some pair surfaces are dropped (the pin-to-pin fallback), coefficients
// are scaled and the n-way speed-up factors redrawn.
func randomCell(rng *rand.Rand, lib *core.Library) *core.CellModel {
	names := []string{"INV", "NAND2", "NAND3", "NAND4", "NOR2", "NOR3"}
	var m *core.CellModel
	if rng.Intn(8) == 0 {
		m = widen(lib.MustCell("NAND4"), 5+rng.Intn(6))
	} else {
		m = cloneCell(lib.MustCell(names[rng.Intn(len(names))]))
	}
	scale := func(q *core.Quad) {
		for i := range q.K {
			q.K[i] *= 0.8 + 0.4*rng.Float64()
		}
	}
	for i := range m.CtrlPins {
		scale(&m.CtrlPins[i].Delay)
		scale(&m.CtrlPins[i].Trans)
	}
	drop := func(ps []core.PairEntry) []core.PairEntry {
		var out []core.PairEntry
		for _, p := range ps {
			if rng.Intn(5) != 0 {
				p.Timing.D0.K1 *= 0.8 + 0.4*rng.Float64()
				p.Timing.SX.K1 *= 0.8 + 0.4*rng.Float64()
				out = append(out, p)
			}
		}
		return out
	}
	m.Pairs = drop(m.Pairs)
	m.NCPairs = drop(m.NCPairs)
	for i := range m.MultiFactor {
		m.MultiFactor[i] = 1.2 * rng.Float64()
	}
	return m
}

func randomValue(rng *rand.Rand) nineval.Value {
	return nineval.Value{V1: frames[rng.Intn(3)], V2: frames[rng.Intn(3)]}
}

// randomWindow draws a window in the regime the analyses produce, with
// occasional degenerate (zero-width) ranges.
func randomWindow(rng *rand.Rand) twindow.Window {
	w := twindow.Window{AS: 2e-9 * rng.Float64(), TS: 0.02e-9 + 1e-9*rng.Float64()}
	w.AL, w.TL = w.AS, w.TS
	if rng.Intn(4) != 0 {
		w.AL += 1e-9 * rng.Float64()
	}
	if rng.Intn(4) != 0 {
		w.TL += 0.8e-9 * rng.Float64()
	}
	return w
}

func randomLine(rng *rand.Rand) twindow.LineInfo {
	v := randomValue(rng)
	return twindow.LineInfo{Value: v, SRise: v.StateRise(), SFall: v.StateFall(),
		Rise: randomWindow(rng), Fall: randomWindow(rng)}
}

// gateCase is one PropagateGate argument list.
type gateCase struct {
	cell  *core.CellModel
	kind  netlist.GateKind
	ins   []*twindow.LineInfo
	outV  nineval.Value
	load  float64
	mode  twindow.Mode
	ncExt bool
}

func randomCase(rng *rand.Rand, lib *core.Library) gateCase {
	cell := randomCell(rng, lib)
	gc := gateCase{cell: cell, outV: nineval.VXX, mode: twindow.Mode(rng.Intn(2)), ncExt: rng.Intn(2) == 0}
	switch {
	case cell.Kind == "INV" && rng.Intn(2) == 0:
		gc.kind = netlist.Buf
	case cell.Kind == "INV":
		gc.kind = netlist.Inv
	case cell.Kind == "NOR":
		gc.kind = netlist.Nor
	default:
		gc.kind = netlist.Nand
	}
	if rng.Intn(2) == 0 {
		gc.outV = randomValue(rng)
	}
	if rng.Intn(3) != 0 {
		gc.load = 3 * cell.RefLoad * rng.Float64()
	}
	for i := 0; i < cell.N; i++ {
		li := randomLine(rng)
		gc.ins = append(gc.ins, &li)
	}
	return gc
}

func sameWindow(a, b twindow.Window) bool {
	return math.Float64bits(a.AS) == math.Float64bits(b.AS) && math.Float64bits(a.AL) == math.Float64bits(b.AL) &&
		math.Float64bits(a.TS) == math.Float64bits(b.TS) && math.Float64bits(a.TL) == math.Float64bits(b.TL)
}

// checkCase requires PropagateGate to reproduce the frozen reference bit
// for bit, errors included.
func checkCase(t *testing.T, gc gateCase) {
	t.Helper()
	got, gotErr := twindow.PropagateGate(gc.cell, gc.kind, gc.ins, gc.outV, gc.load, gc.mode, gc.ncExt)
	want, wantErr := refPropagateGate(gc.cell, gc.kind, gc.ins, gc.outV, gc.load, gc.mode, gc.ncExt)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s %v mode=%v nc=%v: error %v, reference %v", gc.cell.Name, gc.kind, gc.mode, gc.ncExt, gotErr, wantErr)
	}
	if got.Value != want.Value || got.SRise != want.SRise || got.SFall != want.SFall ||
		!sameWindow(got.Rise, want.Rise) || !sameWindow(got.Fall, want.Fall) {
		t.Fatalf("%s %v mode=%v nc=%v load=%g:\n got  %+v\n want %+v", gc.cell.Name, gc.kind, gc.mode, gc.ncExt, gc.load, got, want)
	}
}

// TestPropagateGateMatchesReference is the seeded differential test of the
// production kernel against the frozen pre-rewrite rules.
func TestPropagateGateMatchesReference(t *testing.T) {
	lib := prechar.MustLibrary()
	rng := rand.New(rand.NewSource(20010618))
	for i := 0; i < 20000; i++ {
		checkCase(t, randomCase(rng, lib))
	}
}

// FuzzPropagateGate drives the differential check with a seeded case whose
// first input's rise and fall windows come from the fuzzer verbatim
// (negative, inverted, infinite and NaN bounds included).
func FuzzPropagateGate(f *testing.F) {
	lib := prechar.MustLibrary()
	f.Add(int64(1), 0.0, 1e-10, 2e-10, 3e-10)
	f.Add(int64(7), 5e-10, 5e-10, 1e-10, 1e-10)
	f.Add(int64(42), 1e-9, 0.0, 4e-10, 2e-10)
	f.Add(int64(3), -1e-10, math.Inf(1), 0.0, 1e-9)
	f.Fuzz(func(t *testing.T, seed int64, as, al, ts, tl float64) {
		rng := rand.New(rand.NewSource(seed))
		gc := randomCase(rng, lib)
		w := twindow.Window{AS: as, AL: al, TS: ts, TL: tl}
		gc.ins[0].Rise, gc.ins[0].Fall = w, w
		checkCase(t, gc)
	})
}

func BenchmarkPropagateGate(b *testing.B) {
	lib := prechar.MustLibrary()
	rng := rand.New(rand.NewSource(1))
	var cases []gateCase
	for _, name := range []string{"INV", "NAND2", "NAND3", "NAND4", "NOR2", "NOR3"} {
		cell := lib.MustCell(name)
		kind := map[string]netlist.GateKind{"INV": netlist.Inv, "NAND": netlist.Nand, "NOR": netlist.Nor}[cell.Kind]
		gc := gateCase{cell: cell, kind: kind, outV: nineval.VXX, mode: twindow.ModeProposed}
		for i := 0; i < cell.N; i++ {
			li := twindow.PILine(nineval.VXX, twindow.PITiming{})
			li.Rise, li.Fall = randomWindow(rng), randomWindow(rng)
			gc.ins = append(gc.ins, &li)
		}
		cases = append(cases, gc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gc := &cases[i%len(cases)]
		var err error
		if propagated, err = twindow.PropagateGate(gc.cell, gc.kind, gc.ins, gc.outV, gc.load, gc.mode, gc.ncExt); err != nil {
			b.Fatal(err)
		}
	}
}

// propagated keeps the benchmark's result alive.
var propagated twindow.LineInfo
