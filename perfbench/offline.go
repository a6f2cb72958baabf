package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sstiming/internal/atpg"
	"sstiming/internal/benchgen"
	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/itr"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/prechar"
	"sstiming/internal/sta"
	"sstiming/internal/tgraph"
	"sstiming/internal/twindow"
)

// The offline workload streams circuits of the five ISCAS85 scales from
// c432 to c7552: each round analyses every benchgen stand-in plus one
// seeded GenerateRand variant per scale, in seeded order, then runs one
// ITR-pruned ATPG campaign on a c432- or c880-scale circuit. Variants come
// from a fixed pool so their outputs can be checked against the digests in
// expected/offline.json. The seed orders the pool: round r takes the
// (r mod randVariants)-th variant of a seeded permutation per scale, and
// the (r mod campaigns)-th campaign of a seeded permutation of all ATPG
// campaigns, so a run of a few dozen rounds covers the whole pool whatever
// the seed. ATPG cost per fault is heavy-tailed; sampling campaigns at
// random instead made faults/s depend on the seed.
var (
	staScales  = []string{"c432", "c880", "c1908", "c3540", "c7552"}
	atpgScales = []string{"c432", "c880"}
)

const (
	randVariants = 8 // GenerateRand circuits per scale in the pool
	atpgFaults   = 8 // crosstalk faults per ATPG campaign
	faultSeeds   = 2 // fault lists per ATPG circuit
	// The cmd/atpg defaults: alignment window scale and per-fault
	// backtrack budget.
	atpgSkew       = 120e-12
	atpgBacktracks = 48
)

func variantName(scale string, v int) string { return fmt.Sprintf("%s~r%d", scale, v) }

// offlineCircuits generates the pool: every stand-in and randVariants
// seeded variants per scale, keyed by name, with their names in order.
func offlineCircuits() (map[string]*netlist.Circuit, []string, error) {
	out := map[string]*netlist.Circuit{}
	var names []string
	for _, scale := range staScales {
		p, ok := benchgen.ProfileByName(scale)
		if !ok {
			return nil, nil, fmt.Errorf("no benchgen profile %s", scale)
		}
		c, err := benchgen.Generate(p)
		if err != nil {
			return nil, nil, err
		}
		out[scale] = c
		names = append(names, scale)
		for v := 0; v < randVariants; v++ {
			c, err := benchgen.GenerateRand(p, rand.New(rand.NewSource(p.Seed*1000+int64(v)+1)))
			if err != nil {
				return nil, nil, err
			}
			out[variantName(scale, v)] = c
			names = append(names, variantName(scale, v))
		}
	}
	return out, names, nil
}

func atpgKey(name string, faultSeed int64) string { return fmt.Sprintf("%s/%d", name, faultSeed) }

func isATPGCircuit(name string) bool {
	for _, s := range atpgScales {
		if name == s || strings.HasPrefix(name, s+"~") {
			return true
		}
	}
	return false
}

type offlineState struct {
	lib       *core.Library
	texts     map[string]string // .bench text per circuit
	gates     map[string]int
	atpgNames []string
	atpgCirc  map[string]*netlist.Circuit
	faults    map[string][]atpg.Fault // by atpgKey
	exp       *expected
}

// setupOffline loads the library, generates the circuit pool as .bench
// text and prepares the ATPG circuits and fault lists.
func setupOffline(cfg *config) (*offlineState, error) {
	lib, err := prechar.Library()
	if err != nil {
		return nil, err
	}
	exp, err := loadExpected("offline.json", cfg.wrongDigest)
	if err != nil {
		return nil, err
	}
	circuits, names, err := offlineCircuits()
	if err != nil {
		return nil, err
	}
	st := &offlineState{
		lib: lib, exp: exp,
		texts:    map[string]string{},
		gates:    map[string]int{},
		atpgCirc: map[string]*netlist.Circuit{},
		faults:   map[string][]atpg.Fault{},
	}
	for _, name := range names {
		c := circuits[name]
		var b strings.Builder
		if err := c.Write(&b); err != nil {
			return nil, err
		}
		st.texts[name] = b.String()
		st.gates[name] = c.NumGates()
		if isATPGCircuit(name) {
			if err := c.EnsureBuilt(); err != nil {
				return nil, err
			}
			st.atpgNames = append(st.atpgNames, name)
			st.atpgCirc[name] = c
			for fs := int64(1); fs <= faultSeeds; fs++ {
				st.faults[atpgKey(name, fs)] = atpg.RandomFaults(c, atpgFaults, fs, atpgSkew)
			}
		}
	}
	return st, nil
}

// offRound is one round of the offline stream.
type offRound struct {
	sta       []string
	atpgName  string
	faultSeed int64
}

// offSchedule is the seeded order of the pool.
type offSchedule struct {
	rng       *rand.Rand
	variants  [][]int // per scale, a permutation of the variants
	campaigns []int   // permutation of atpgNames x faultSeeds
	atpgNames []string
}

func newOffSchedule(seed int64, atpgNames []string) *offSchedule {
	rng := rand.New(rand.NewSource(seed))
	s := &offSchedule{rng: rng, atpgNames: atpgNames, campaigns: rng.Perm(len(atpgNames) * faultSeeds)}
	for range staScales {
		s.variants = append(s.variants, rng.Perm(randVariants))
	}
	return s
}

func (s *offSchedule) round(r int) offRound {
	var names []string
	for si, scale := range staScales {
		names = append(names, scale, variantName(scale, s.variants[si][r%randVariants]))
	}
	s.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	c := s.campaigns[r%len(s.campaigns)]
	return offRound{sta: names, atpgName: s.atpgNames[c/faultSeeds], faultSeed: int64(1 + c%faultSeeds)}
}

// staOut is everything one STA operation produces.
type staOut struct {
	c    *netlist.Circuit
	res  *sta.Result
	req  map[string]*sta.LineRequired
	viol []sta.Violation
	path []sta.PathStep
}

// constraintFor derives the checked timing requirement from the analysis,
// so every circuit has both passing and failing lines.
func constraintFor(res *sta.Result) sta.Constraint {
	return sta.Constraint{MinTime: 1.1 * res.MinPOArrival(), MaxTime: 0.9 * res.MaxPOArrival()}
}

// runSTAOp is one offline operation: parse the .bench text, analyse it
// with the proposed model at the CLI's default pool width, derive required
// times and violations, and extract the worst path. Traced, sta.Analyze is
// split into its two public halves (tgraph.New, then sta.FromGraph) so each
// layer gets its own span.
func runSTAOp(lib *core.Library, name, text string, jobs int, tr *tracer) (staOut, time.Duration, error) {
	op := tr.newOp()
	root := tr.begin("offline.sta_op", op, 0)
	defer root.end()
	start := time.Now()
	var o staOut
	sp := tr.begin("netlist.Parse", op, root.id)
	c, err := netlist.Parse(name, strings.NewReader(text))
	sp.end()
	if err != nil {
		return o, 0, err
	}
	o.c = c
	if tr == nil {
		o.res, err = sta.Analyze(c, sta.Options{Lib: lib, Mode: sta.ModeProposed, Jobs: jobs})
	} else {
		sp = tr.begin("tgraph.New", op, root.id)
		var g *tgraph.Graph
		g, err = tgraph.New(c, tgraph.Options{Lib: lib, Mode: sta.ModeProposed, Jobs: jobs})
		sp.end()
		if err == nil {
			sp = tr.begin("sta.FromGraph", op, root.id)
			o.res = sta.FromGraph(g)
			sp.end()
		}
	}
	if err != nil {
		return o, 0, err
	}
	cons := constraintFor(o.res)
	sp = tr.begin("sta.RequiredTimes", op, root.id)
	o.req = o.res.RequiredTimes(cons)
	sp.end()
	sp = tr.begin("sta.CheckViolations", op, root.id)
	o.viol = o.res.CheckViolations(cons)
	sp.end()
	sp = tr.begin("sta.WorstPath", op, root.id)
	o.path, err = o.res.WorstPath()
	sp.end()
	return o, time.Since(start), err
}

// staDigest hashes every line's windows and required times, the sorted
// violations and the worst path.
func staDigest(o staOut) string {
	d := newDigester()
	for _, net := range o.c.Nets() {
		d.s(net)
		if lt := o.res.Lines[net]; lt == nil {
			d.i(-1)
		} else {
			for _, w := range []sta.Window{lt.Rise, lt.Fall} {
				d.f(w.AS)
				d.f(w.AL)
				d.f(w.TS)
				d.f(w.TL)
			}
		}
		if lr := o.req[net]; lr == nil {
			d.i(-1)
		} else {
			for _, q := range []sta.Required{lr.Rise, lr.Fall} {
				d.f(q.QS)
				d.f(q.QL)
			}
		}
	}
	viol := append([]sta.Violation(nil), o.viol...)
	sort.Slice(viol, func(i, j int) bool {
		a, b := viol[i], viol[j]
		if a.Net != b.Net {
			return a.Net < b.Net
		}
		if a.Rising != b.Rising {
			return a.Rising
		}
		return a.Setup && !b.Setup
	})
	d.i(int64(len(viol)))
	for _, v := range viol {
		d.s(v.Net)
		d.b(v.Rising)
		d.b(v.Setup)
		d.f(v.Slack)
	}
	d.i(int64(len(o.path)))
	for _, p := range o.path {
		d.s(p.Net)
		d.b(p.Rising)
		d.f(p.Arrival)
	}
	return d.hex()
}

func atpgDigest(s atpg.CampaignStats) string {
	d := newDigester()
	d.i(int64(s.Detected))
	d.i(int64(s.Untestable))
	d.i(int64(s.Aborted))
	d.i(int64(s.TotalBacktracks))
	d.f(s.Efficiency)
	return d.hex()
}

func atpgOptions(lib *core.Library, met *engine.Metrics) atpg.Options {
	return atpg.Options{Lib: lib, UseITR: true, MaxBacktracks: atpgBacktracks, Metrics: met}
}

// computeOfflineExpected recomputes the offline digests on the serial
// reference path.
func computeOfflineExpected() (*expected, error) {
	lib, err := prechar.Library()
	if err != nil {
		return nil, err
	}
	circuits, names, err := offlineCircuits()
	if err != nil {
		return nil, err
	}
	e := &expected{STA: map[string]string{}, ATPG: map[string]string{}}
	for _, name := range names {
		var b strings.Builder
		if err := circuits[name].Write(&b); err != nil {
			return nil, err
		}
		o, _, err := runSTAOp(lib, name, b.String(), 1, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		e.STA[name] = staDigest(o)
		if !isATPGCircuit(name) {
			continue
		}
		c := circuits[name]
		for fs := int64(1); fs <= faultSeeds; fs++ {
			s, err := atpg.RunCampaign(c, atpg.RandomFaults(c, atpgFaults, fs, atpgSkew), atpgOptions(lib, nil))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", atpgKey(name, fs), err)
			}
			e.ATPG[atpgKey(name, fs)] = atpgDigest(s)
		}
	}
	return e, nil
}

func runOffline(cfg *config) (*result, error) {
	st, setups, err := repeatSetup(func() (*offlineState, error) { return setupOffline(cfg) }, func(*offlineState) {})
	if err != nil {
		return nil, err
	}
	r := newResult()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	sched := newOffSchedule(cfg.seed, st.atpgNames)

	var tracedMs, untracedMs []float64
	var staObs, atpgObs []obs // weighted by gates and by faults
	var rounds []offRound

	start := time.Now()
	deadline := cfg.deadline(start)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		rd := sched.round(round)
		rounds = append(rounds, rd)
		// A traced run alternates traced and untraced rounds; the
		// difference between their operation times is the tracing
		// overhead.
		rtr := tr
		if round%2 == 1 {
			rtr = nil
		}
		for _, name := range rd.sta {
			r.attempt()
			o, d, err := runSTAOp(st.lib, name, st.texts[name], 0, rtr)
			if err != nil {
				r.fail("%s: %v", name, err)
				continue
			}
			if rtr != nil {
				tracedMs = append(tracedMs, ms(d))
			} else {
				untracedMs = append(untracedMs, ms(d))
			}
			staObs = append(staObs, obs{at: time.Since(start), d: d, w: float64(st.gates[name])})
			if got, want := staDigest(o), st.exp.STA[name]; got != want {
				r.fail("%s: output digest %.12s, want %.12s", name, got, want)
			}
		}

		r.attempt()
		key := atpgKey(rd.atpgName, rd.faultSeed)
		sp := rtr.begin("atpg.RunCampaign", rtr.newOp(), 0)
		t0 := time.Now()
		cs, err := atpg.RunCampaign(st.atpgCirc[rd.atpgName], st.faults[key], atpgOptions(st.lib, nil))
		d := time.Since(t0)
		sp.end()
		if err != nil {
			r.fail("atpg %s: %v", key, err)
			continue
		}
		atpgObs = append(atpgObs, obs{at: time.Since(start), d: d, w: float64(len(st.faults[key]))})
		if got, want := atpgDigest(cs), st.exp.ATPG[key]; got != want {
			r.fail("atpg %s: outcome digest %.12s, want %.12s", key, got, want)
		}
	}

	// The STA figures are medians over slices of the measured window (see
	// windowedMedian); each slice holds a dozen whole rounds. ATPG cost is
	// too uneven across campaigns to slice, so faults/s is over the run.
	// Durations are scaled to the reference speed (see calib.go); the
	// report also prints them as measured.
	span := time.Since(start)
	cfg.speed.stopSampler()
	figures := func(sp *speedSampler) (gatesPerS, p50, p90, faultsPerS float64) {
		sta := sp.normalize(staObs, start)
		return windowedMedian(sta, span, rate), windowedMedian(sta, span, pct(0.5)),
			windowedMedian(sta, span, pct(0.9)), totalRate(sp.normalize(atpgObs, start))
	}
	gatesPerS, p50, p90, faultsPerS := figures(cfg.speed)
	n, faults := len(staObs), int(weight(atpgObs))
	r.setE2E("work_per_s", gatesPerS, n)
	r.setE2E("op_ms_p50", p50, n)
	r.setE2E("op_ms_p90", p90, n)
	r.setE2E("aux_per_s", faultsPerS, faults)
	r.addNamed("sta_gates_per_s", "1/s", gatesPerS, n)
	r.addNamed("sta_ms_p50", "ms", p50, n)
	r.addNamed("sta_ms_p90", "ms", p90, n)
	r.addNamed("atpg_faults_per_s", "1/s", faultsPerS, faults)
	wg, w50, w90, wf := figures(nil)
	r.notes = append(r.notes, fmt.Sprintf("wall-clock: sta_gates_per_s %.6g, sta_ms_p50 %.6g, sta_ms_p90 %.6g, atpg_faults_per_s %.6g", wg, w50, w90, wf))

	if tr != nil {
		if err := offlineLayers(cfg, st, tr, rounds, r); err != nil {
			return nil, err
		}
		r.setLayer("trace.overhead_pct", 100*(ratio(quantile(tracedMs, 0.5), quantile(untracedMs, 0.5))-1), len(tracedMs))
		lines, err := tr.write(traceFile(cfg))
		if err != nil {
			return nil, err
		}
		r.notes = append(r.notes, lines...)
	}
	return r, finishCommon(cfg, r, setups)
}

func traceFile(cfg *config) string {
	return filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
}

// offlineLayers fills the offline per-layer metrics: span self times from
// the traced rounds, then probes of single layers on the run's circuits,
// then the exact work counters (counted twice; any difference is reported
// as nondeterminism).
func offlineLayers(cfg *config, st *offlineState, tr *tracer, rounds []offRound, r *result) error {
	spans := tr.summary()
	for metricName, span := range map[string]string{
		"netlist.parse_ms":  "netlist.Parse",
		"tgraph.new_ms":     "tgraph.New",
		"sta.from_graph_ms": "sta.FromGraph",
		"sta.required_ms":   "sta.RequiredTimes",
		"sta.worst_path_ms": "sta.WorstPath",
	} {
		v, n := medianSelfMs(spans, span)
		r.setLayer(metricName, v, n)
	}

	// Probes run on the stand-ins: they appear in every run, so the
	// probes see the same circuits whatever the seed.
	var gateNs, serial, parallel, allocs, bytes, gates float64
	var gateN int
	for _, name := range staScales {
		c, err := netlist.Parse(name, strings.NewReader(st.texts[name]))
		if err != nil {
			return err
		}
		op := tr.newOp()
		g, err := tgraph.New(c, tgraph.Options{Lib: st.lib, Mode: sta.ModeProposed})
		if err != nil {
			return err
		}
		d, n, mismatch, err := replayGates(st.lib, c, g, tr, op)
		if err != nil {
			return err
		}
		if mismatch != "" {
			r.fail("twindow replay on %s: %s", name, mismatch)
		}
		gateNs += float64(d.Nanoseconds())
		gateN += n

		// Serial against default pool width, interleaved.
		for rep := 0; rep < 3; rep++ {
			for _, jobs := range []int{1, 0} {
				sp := tr.begin(fmt.Sprintf("sta.Analyze.jobs%d", jobs), op, 0)
				t0 := time.Now()
				if _, err := sta.Analyze(c, sta.Options{Lib: st.lib, Mode: sta.ModeProposed, Jobs: jobs}); err != nil {
					return err
				}
				if jobs == 1 {
					serial += time.Since(t0).Seconds()
				} else {
					parallel += time.Since(t0).Seconds()
				}
				sp.end()
			}
		}

		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if _, err := sta.Analyze(c, sta.Options{Lib: st.lib, Mode: sta.ModeProposed}); err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		allocs += float64(m1.Mallocs - m0.Mallocs)
		bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
		gates += float64(c.NumGates())
	}
	r.setLayer("twindow.gate_ns", ratio(gateNs, float64(gateN)), gateN)
	r.setLayer("engine.serial_over_default", ratio(serial, parallel), 3*len(staScales))
	r.setLayer("sta.allocs_per_gate", ratio(allocs, gates), len(staScales))
	r.setLayer("sta.bytes_per_gate", ratio(bytes, gates), len(staScales))

	if err := probeImplyRefine(cfg, st, tr, r); err != nil {
		return err
	}

	// Exact counters over the run's first two rounds, counted twice.
	counts := func() (map[string]float64, error) {
		met := engine.NewMetrics()
		for _, rd := range rounds[:min(2, len(rounds))] {
			for _, name := range rd.sta {
				c, err := netlist.Parse(name, strings.NewReader(st.texts[name]))
				if err != nil {
					return nil, err
				}
				if _, err := sta.Analyze(c, sta.Options{Lib: st.lib, Mode: sta.ModeProposed, Metrics: met}); err != nil {
					return nil, err
				}
			}
		}
		atpgMet := engine.NewMetrics()
		for _, rd := range rounds[:min(2, len(rounds))] {
			key := atpgKey(rd.atpgName, rd.faultSeed)
			if _, err := atpg.RunCampaign(st.atpgCirc[rd.atpgName], st.faults[key], atpgOptions(st.lib, atpgMet)); err != nil {
				return nil, err
			}
		}
		f := float64(atpgMet.Get(engine.ATPGFaults))
		return map[string]float64{
			"sta.arcs_per_gate":         ratio(float64(met.Get(engine.STAArcs)), float64(met.Get(engine.STAGates))),
			"atpg.decisions_per_fault":  ratio(float64(atpgMet.Get(engine.ATPGDecisions)), f),
			"atpg.backtracks_per_fault": ratio(float64(atpgMet.Get(engine.ATPGBacktracks)), f),
			"tgraph.edits_per_fault":    ratio(float64(atpgMet.Get(engine.TGraphEdits)), f),
		}, nil
	}
	return exactCounters(r, counts)
}

// replayGates re-evaluates twindow.PropagateGate for every gate of a
// converged graph, with the gate's fan-in taken from Graph.Line, and checks
// each output equals the graph's own line.
func replayGates(lib *core.Library, c *netlist.Circuit, g *tgraph.Graph, tr *tracer, op int64) (time.Duration, int, string, error) {
	type job struct {
		cell  *core.CellModel
		kind  netlist.GateKind
		ins   []*twindow.LineInfo
		out   nineval.Value
		load  float64
		want  twindow.LineInfo
		gname string
	}
	jobs := make([]job, 0, len(c.Gates))
	for _, gi := range c.TopoOrder() {
		gate := &c.Gates[gi]
		cell, ok := lib.Cell(gate.CellName())
		if !ok {
			return 0, 0, "", fmt.Errorf("no cell %s", gate.CellName())
		}
		j := job{cell: cell, kind: gate.Kind, out: g.ImpliedCube().Get(gate.Output),
			load: float64(c.FanoutCount(gate.Output)-1) * cell.RefLoad, gname: gate.Output}
		for _, in := range gate.Inputs {
			li, ok := g.Line(in)
			if !ok {
				return 0, 0, "", fmt.Errorf("no line %s", in)
			}
			j.ins = append(j.ins, &li)
		}
		j.want, _ = g.Line(gate.Output)
		jobs = append(jobs, j)
	}
	got := make([]twindow.LineInfo, len(jobs))
	sp := tr.begin("twindow.PropagateGate", op, 0)
	t0 := time.Now()
	for i := range jobs {
		j := &jobs[i]
		li, err := twindow.PropagateGate(j.cell, j.kind, j.ins, j.out, j.load, sta.ModeProposed, false)
		if err != nil {
			return 0, 0, "", err
		}
		got[i] = li
	}
	d := time.Since(t0)
	sp.end()
	for i := range jobs {
		if got[i] != jobs[i].want {
			return d, len(jobs), fmt.Sprintf("gate %s replays to %+v, graph holds %+v", jobs[i].gname, got[i], jobs[i].want), nil
		}
	}
	return d, len(jobs), "", nil
}

// probeImplyRefine times nineval.Imply and itr.Refine on seeded partial
// cubes over the ATPG-scale stand-ins.
func probeImplyRefine(cfg *config, st *offlineState, tr *tracer, r *result) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	vals := []nineval.Value{
		{V1: nineval.F0, V2: nineval.F1}, {V1: nineval.F1, V2: nineval.F0},
		{V1: nineval.F0, V2: nineval.F0}, {V1: nineval.F1, V2: nineval.F1},
		{V1: nineval.FX, V2: nineval.F1}, {V1: nineval.F0, V2: nineval.FX},
	}
	var implyUs, refineMs []float64
	for _, name := range atpgScales {
		c := st.atpgCirc[name]
		for i := 0; i < 40; i++ {
			cube := nineval.Cube{}
			for k := 0; k < 1+len(c.PIs)/4; k++ {
				cube[c.PIs[rng.Intn(len(c.PIs))]] = vals[rng.Intn(len(vals))]
			}
			op := tr.newOp()
			sp := tr.begin("nineval.Imply", op, 0)
			t0 := time.Now()
			_, ok := nineval.Imply(c, cube)
			implyUs = append(implyUs, us(time.Since(t0)))
			sp.end()
			if !ok {
				continue
			}
			sp = tr.begin("itr.Refine", op, 0)
			t0 = time.Now()
			if _, err := itr.Refine(c, cube, itr.Options{Lib: st.lib, Mode: sta.ModeProposed}); err != nil {
				return err
			}
			refineMs = append(refineMs, ms(time.Since(t0)))
			sp.end()
		}
	}
	r.setLayer("nineval.imply_us", quantile(implyUs, 0.5), len(implyUs))
	r.setLayer("itr.refine_ms", quantile(refineMs, 0.5), len(refineMs))
	return nil
}
