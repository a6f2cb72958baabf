package spice

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sstiming/internal/device"
	"sstiming/internal/engine"
	"sstiming/internal/waveform"
)

// diffCase is one random circuit of the differential campaign, with the
// options and fault plan of its transient.
type diffCase struct {
	c    *Circuit
	opts TransientOpts
	// hook makes a fresh fault hook per run (nil: no faults).
	hook func() FaultHook
	desc string
}

// randCase draws a random R/C/MOSFET/source circuit of 2–40 nodes
// (ground included). Besides ordinary circuits it mixes in what takes the
// solver off its plan: shorted, grounded and parallel sources (singular
// matrices), floating nodes held only by gmin, zero, huge and subnormal
// conductances and capacitances (non-finite multipliers), and wide
// MOSFETs and unit-scale resistors whose conductance crosses the source
// rows' ±1 as they switch (pivot orders that change mid-transient).
func randCase(rng *rand.Rand) diffCase {
	tech := device.Default05um()
	c := NewCircuit()
	nn := 1 + rng.Intn(39)
	if rng.Intn(3) > 0 {
		nn = 1 + rng.Intn(10)
	}
	nodes := []int{0}
	for i := 0; i < nn; i++ {
		nodes = append(nodes, c.Node(fmt.Sprintf("n%d", i)))
	}
	node := func() int { return nodes[rng.Intn(len(nodes))] }
	logU := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	var desc []string
	special := rng.Intn(4) == 0

	// Sources: DC levels and ramps on distinct nodes, a few of them
	// degenerate.
	perm := rng.Perm(nn)
	for i, nv := 0, 1+rng.Intn(min(nn, 4)); i < nv; i++ {
		p, m := nodes[1+perm[i]], 0
		if rng.Intn(5) == 0 {
			m = node()
		}
		switch {
		case special && rng.Intn(6) == 0:
			m = p
			desc = append(desc, "shorted-source")
		case special && rng.Intn(10) == 0:
			p, m = 0, 0
			desc = append(desc, "grounded-source")
		}
		v0, v1 := rng.Float64()*tech.Vdd, rng.Float64()*tech.Vdd
		var wave WaveFunc
		if rng.Intn(2) == 0 {
			wave = waveform.Step(v0)
		} else {
			wave = waveform.Ramp(v0, v1, logU(1e-12, 2e-10), logU(1e-12, 2e-10))
		}
		c.AddVSource(p, m, wave)
		if special && rng.Intn(8) == 0 {
			c.AddVSource(p, m, wave)
			desc = append(desc, "parallel-source")
		}
	}
	// Resistors.
	for i, nr := 0, rng.Intn(2*nn+1); i < nr; i++ {
		ohms := logU(0.1, 1e6)
		if rng.Intn(4) == 0 {
			ohms = logU(0.3, 3)
		}
		if special && rng.Intn(5) == 0 {
			ohms = []float64{0, 1e-320, 1e-300, 1e300, 1e308}[rng.Intn(5)]
			desc = append(desc, fmt.Sprintf("R=%g", ohms))
		}
		c.AddRes(node(), node(), ohms)
	}
	// Capacitors; a node touched by nothing else floats on gmin.
	for i, ncap := 0, rng.Intn(2*nn+1); i < ncap; i++ {
		f := logU(1e-16, 1e-11)
		if special && rng.Intn(5) == 0 {
			f = []float64{1e-320, 1e300, 5e-324}[rng.Intn(3)]
			desc = append(desc, fmt.Sprintf("C=%g", f))
		}
		c.AddCap(node(), node(), f)
	}
	// MOSFETs, some of them very wide.
	for i, nm := 0, rng.Intn(2*nn+1); i < nm; i++ {
		typ, params := device.NMOS, &tech.NMOS
		if rng.Intn(2) == 0 {
			typ, params = device.PMOS, &tech.PMOS
		}
		geom := tech.MinGeom(typ)
		geom.W *= logU(1, 3e4)
		c.AddMOSFET(node(), node(), node(), params, geom)
	}

	steps := 2 + rng.Intn(40)
	opts := TransientOpts{
		TStep:  logU(1e-13, 1e-10),
		Method: Method(rng.Intn(2)),
		VTol:   []float64{0, 1e-9, 1e-4}[rng.Intn(3)],
	}
	opts.TStop = opts.TStep * float64(steps)
	if rng.Intn(4) == 0 {
		opts.MaxNewton = 2 + rng.Intn(6)
	}
	opts.MaxStepHalvings = []int{0, 0, -1, 2}[rng.Intn(4)]
	if rng.Intn(3) == 0 {
		for i := 0; i < 3; i++ {
			opts.Record = append(opts.Record, c.nodeNames[rng.Intn(len(c.nodeNames))])
		}
	}

	dc := diffCase{c: c, opts: opts}
	if rng.Intn(4) == 0 {
		kind := []FaultKind{FaultNaN, FaultNoConverge}[rng.Intn(2)]
		step, attempt := rng.Intn(steps+1), rng.Intn(2)
		persistent := rng.Intn(3) == 0
		dc.hook = func() FaultHook {
			return func(s int, _ float64, a int) FaultKind {
				if s == step && (persistent || a == attempt) {
					return kind
				}
				return FaultNone
			}
		}
		desc = append(desc, fmt.Sprintf("%v@%d/%d persistent=%v", kind, step, attempt, persistent))
	}
	dc.desc = fmt.Sprintf("%d nodes, %d sources, %d R, %d C, %d MOS, %v, %d steps %v",
		len(c.nodeNames), len(c.vsrcs), len(c.ress), len(c.caps), len(c.mosfets),
		opts.Method, steps, desc)
	return dc
}

// runBoth runs the case through the production solver and the frozen
// reference and fails on any difference: recorded samples bit for bit,
// effort counters, error text and SolveError fields.
func runBoth(t *testing.T, dc diffCase) (luStats, error) {
	t.Helper()
	optsGot, optsWant := dc.opts, dc.opts
	optsGot.Metrics, optsWant.Metrics = engine.NewMetrics(), engine.NewMetrics()
	if dc.hook != nil {
		optsGot.FaultHook, optsWant.FaultHook = dc.hook(), dc.hook()
	}
	var lu luStats
	got, gotErr := dc.c.transient(optsGot, &lu)
	want, wantErr := refTransient(dc.c, optsWant)

	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference %v", dc.desc, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error\n  %v\nreference\n  %v", dc.desc, gotErr, wantErr)
		}
		var ge, we *SolveError
		if errors.As(gotErr, &ge) != errors.As(wantErr, &we) {
			t.Fatalf("%s: SolveError presence differs: %v vs %v", dc.desc, gotErr, wantErr)
		}
		if ge != nil {
			g, w := *ge, *we
			if (g.Cause == nil) != (w.Cause == nil) || g.Cause != nil && g.Cause.Error() != w.Cause.Error() {
				t.Fatalf("%s: SolveError cause %v, reference %v", dc.desc, g.Cause, w.Cause)
			}
			g.Cause, w.Cause = nil, nil
			if math.Float64bits(g.Time) != math.Float64bits(w.Time) ||
				math.Float64bits(g.Residual) != math.Float64bits(w.Residual) {
				t.Fatalf("%s: SolveError time/residual %+v, reference %+v", dc.desc, g, w)
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: SolveError %+v, reference %+v", dc.desc, g, w)
			}
		}
	}
	if g, w := optsGot.Metrics.Snapshot().Counters, optsWant.Metrics.Snapshot().Counters; !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: counters %v, reference %v", dc.desc, g, w)
	}
	if gotErr != nil {
		return lu, gotErr
	}
	if len(got.byName) != len(want.byName) {
		t.Fatalf("%s: %d waves, reference %d", dc.desc, len(got.byName), len(want.byName))
	}
	for name, w := range want.byName {
		g := got.Wave(name)
		if g == nil || g.Len() != w.Len() {
			t.Fatalf("%s: wave %q has %v samples, reference %d", dc.desc, name, g, w.Len())
		}
		for i := range w.T {
			if math.Float64bits(g.T[i]) != math.Float64bits(w.T[i]) ||
				math.Float64bits(g.V[i]) != math.Float64bits(w.V[i]) {
				t.Fatalf("%s: wave %q sample %d = (%v, %v), reference (%v, %v)",
					dc.desc, name, i, g.T[i], g.V[i], w.T[i], w.V[i])
			}
		}
	}
	return lu, nil
}

// TestTransientMatchesReference is the seeded differential campaign of the
// structure-aware solver against the frozen dense one. It also requires
// the campaign to have reached every way off the plan, so that a
// generator drift cannot quietly stop testing them.
func TestTransientMatchesReference(t *testing.T) {
	cases := 1000
	if testing.Short() {
		cases = 300
	}
	rng := rand.New(rand.NewSource(20010618))
	var total luStats
	var midReplans, failed, singular, nonFiniteNode int
	for i := 0; i < cases; i++ {
		lu, err := runBoth(t, randCase(rng))
		total.solves += lu.solves
		total.dense += lu.dense
		total.replans += lu.replans
		total.nonFinite += lu.nonFinite
		if lu.replans > 1 {
			midReplans++
		}
		var se *SolveError
		switch {
		case err == nil:
		case errors.As(err, &se) && se.Cause != nil:
			singular++
		case errors.As(err, &se) && se.Kind == ErrNumerical && !se.Injected:
			nonFiniteNode++
		}
		if err != nil {
			failed++
		}
	}
	t.Logf("%d cases: %d solves, %d dense, %d replans (%d transients replanned mid-run), %d off-plan for non-finite values; %d failed (%d singular, %d non-finite unknowns)",
		cases, total.solves, total.dense, total.replans, midReplans, total.nonFinite, failed, singular, nonFiniteNode)
	if total.dense >= total.solves/4 {
		t.Errorf("%d of %d solves ran dense: the plan is not being followed", total.dense, total.solves)
	}
	for _, c := range []struct {
		name string
		n    int
	}{
		{"transients with a mid-run pivot change", midReplans},
		{"off-plan non-finite solves", total.nonFinite},
		{"singular-matrix failures", singular},
		{"non-finite unknown failures", nonFiniteNode},
	} {
		if c.n == 0 {
			t.Errorf("campaign reached no %s", c.name)
		}
	}
}

// fuzzPalette holds the entry values the raw-system checks draw from:
// ordinary magnitudes of both signs, ±1, huge, subnormal and non-finite
// values. A stamped matrix never holds -0 (every entry is a sum begun at
// +0), so the palette has none; right-hand sides may (a source can be -0).
var fuzzPalette = []float64{
	1, -1, 2.5, -0.75, 1e-3, -4e-4, 1e-12, 3e5, -7e7,
	1e300, -1e300, 1e-300, 5e-324, -2e-310, 1e-308,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// fuzzValue decodes one entry: mostly zero or a palette value, otherwise
// a small multiple of 1/8.
func fuzzValue(v byte) float64 {
	switch {
	case v < 16:
		return 0
	case v < 16+byte(len(fuzzPalette)):
		return fuzzPalette[v-16]
	default:
		return float64(int(v)-160) / 8
	}
}

// checkSolves decodes a structural pattern from size and patBits, then a
// system on it from data: one byte per pattern entry and per right-hand
// side entry (255 is -0 there). Every further byte pair edits one entry,
// and each system is solved in turn by one production solver — so most
// meet the plan an earlier one left — and by the frozen dense LU. Every
// solution must match bit for bit and every error verbatim.
func checkSolves(t *testing.T, size uint8, patBits uint64, data []byte) luStats {
	n := 1 + int(size)%16
	rng := rand.New(rand.NewSource(int64(patBits)))
	density := 0.15 + 0.7*float64(patBits&0xff)/255
	var slots []int // pattern entries of a, then every entry of b
	for i := 0; i < n*n; i++ {
		if i%(n+1) == 0 && patBits&0x100 != 0 || rng.Float64() < density {
			slots = append(slots, i)
		}
	}
	pat := make([]bool, n*n)
	for _, i := range slots {
		pat[i] = true
	}
	for i := 0; i < n; i++ {
		slots = append(slots, n*n+1+i)
	}
	sys := make([]float64, n*n+1+n+1) // a with its sink, then b with its sink
	set := func(slot int, v byte) {
		i := slots[slot%len(slots)]
		if i > n*n && v == 255 {
			sys[i] = math.Copysign(0, -1)
		} else {
			sys[i] = fuzzValue(v)
		}
	}
	for slot := range slots {
		if slot < len(data) {
			set(slot, data[slot])
		}
	}
	data = data[min(len(slots), len(data)):]

	s := newSolver(n, pat)
	for round := 0; round < 24; round++ {
		ref := refNewSolver(n)
		copy(ref.a, sys[:n*n])
		copy(ref.b, sys[n*n+1:])
		want, wantErr := ref.solve()
		copy(s.a, sys[:n*n+1])
		copy(s.b, sys[n*n+1:])
		got, gotErr := s.solve()
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("round %d: error %v, reference %v", round, gotErr, wantErr)
		}
		for i := range want {
			if gotErr == nil && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: x[%d] = %v (%#x), reference %v (%#x)", round, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		if len(data) < 2 {
			break
		}
		set(int(data[0]), data[1])
		data = data[2:]
	}
	return s.stats
}

// FuzzSolve drives checkSolves: raw stamped systems through the planned
// solver against the frozen dense solve.
func FuzzSolve(f *testing.F) {
	f.Add(uint8(4), uint64(0x0f0f), []byte{0x20, 0x30, 0x40, 0x50, 0x11, 0x12, 0x13, 0x14, 1, 40, 3, 60})
	f.Add(uint8(12), uint64(0x8421842184218421), []byte("stamped-nand3-like-pattern-values, then edits"))
	f.Add(uint8(6), ^uint64(0), []byte{16, 17, 30, 31, 33, 16, 255, 255, 40, 41, 42, 200, 201, 202})
	f.Add(uint8(3), uint64(0x1ff), []byte{16 + 14, 16, 16, 16, 16 + 14, 16, 16, 16, 16 + 14, 1, 2, 3, 0, 16 + 12, 4, 16 + 17})
	f.Add(uint8(8), uint64(0xdeadbeefcafef00d), []byte{16 + 15, 16 + 17, 16 + 13, 16 + 12, 7, 255, 16 + 16})
	f.Add(uint8(5), uint64(0x1111111), []byte{170, 171, 172, 173, 174, 16 + 12, 16 + 14, 175, 176, 177})
	f.Fuzz(func(t *testing.T, size uint8, patBits uint64, data []byte) {
		checkSolves(t, size, patBits, data)
	})
}

// TestSolveMatchesReference runs checkSolves over seeded random inputs and
// requires them to have reached the plan's every exit: solves that follow
// it, pivots it did not predict, non-finite multipliers and unknowns, and
// singular systems.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7919))
	var total luStats
	for i := 0; i < 3000; i++ {
		data := make([]byte, 2*rng.Intn(300))
		for j := range data {
			// Mostly values near 1/8 multiples with a fair share of zeros
			// and palette values; edits pick any slot.
			if j%2 == 1 || rng.Intn(3) > 0 {
				data[j] = byte(rng.Intn(256))
			} else {
				data[j] = byte(16 + rng.Intn(len(fuzzPalette)))
			}
		}
		st := checkSolves(t, uint8(rng.Intn(16)), rng.Uint64(), data)
		total.solves += st.solves
		total.dense += st.dense
		total.replans += st.replans
		total.nonFinite += st.nonFinite
	}
	t.Logf("%+v", total)
	if planned := total.solves - total.dense; planned < total.solves/4 {
		t.Errorf("only %d of %d solves followed a plan", planned, total.solves)
	}
	if total.replans <= 3000 || total.nonFinite == 0 {
		t.Errorf("stats %+v: no pivot changes or no non-finite values reached", total)
	}
}

// TestSolveFollowsPlan pins the plan's bookkeeping. The first solve is
// dense and builds a plan, a repeat follows it, a pivot the plan did not
// predict falls back and replans, a subnormal pivot (1/pivot = +Inf) leaves
// the plan without rebuilding it, and a singular system fails on the plan.
func TestSolveFollowsPlan(t *testing.T) {
	s := newSolver(2, []bool{true, true, true, true})
	step := func(what string, a, b []float64, want luStats) []float64 {
		t.Helper()
		copy(s.a, a)
		copy(s.b, b)
		x, err := s.solve()
		if (err != nil) != (what == "singular") {
			t.Fatalf("%s: err = %v", what, err)
		}
		if s.stats != want {
			t.Errorf("%s: stats %+v, want %+v", what, s.stats, want)
		}
		return x
	}
	// A node row with conductance g tied to a source branch row by ±1:
	// the pivot of column 0 is the branch row while |g| < 1.
	if x := step("first solve", []float64{1e-3, 1, 1, 0}, []float64{0, 2}, luStats{solves: 1, dense: 1, replans: 1}); x[0] != 2 {
		t.Errorf("x = %v, want node voltage 2", x)
	}
	step("same pivots", []float64{2e-3, 1, 1, 0}, []float64{0, 1}, luStats{solves: 2, dense: 1, replans: 1})
	step("diagonal pivot", []float64{5, 1, 1, 0}, []float64{0, 1}, luStats{solves: 3, dense: 2, replans: 2})
	step("diagonal again", []float64{2, 1, 1, 3}, []float64{1, 1}, luStats{solves: 4, dense: 2, replans: 2})
	x := step("subnormal pivot", []float64{5e-324, 0, 0, 1}, []float64{1, 1}, luStats{solves: 5, dense: 3, replans: 2, nonFinite: 1})
	if !math.IsNaN(x[1]) {
		t.Errorf("x = %v, want the dense loops' 0·Inf = NaN in x[1]", x)
	}
	step("singular", []float64{0, 0, 0, 1}, []float64{1, 1}, luStats{solves: 6, dense: 3, replans: 2, nonFinite: 1})
}
