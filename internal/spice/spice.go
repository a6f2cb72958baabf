// Package spice implements a small transistor-level transient circuit
// simulator — the reproduction's stand-in for HSPICE.
//
// It performs modified nodal analysis (MNA) with Newton-Raphson iteration at
// every time point and backward-Euler integration of capacitor currents.
// Supported elements are resistors, two-terminal capacitors, independent
// (time-varying) voltage sources, and square-law MOSFETs from package device.
//
// The simulator is sized for cell characterisation: circuits of a few dozen
// nodes, simulated for a few nanoseconds at picosecond resolution. The
// linear part of the MNA system (gmin, resistor and capacitor conductances,
// the source pattern) is stamped once per step size and the capacitor and
// source right-hand side once per time point; a Newton iteration adds only
// the MOSFET stamps. The system is solved by partial-pivot LU along a
// cached pivot plan — the symbolic factorisation of the matrix's structural
// pattern under the last observed pivot sequence — which skips the
// structural zeros. A solve the plan cannot follow (another pivot order, a
// non-finite multiplier or solution) finishes with the dense loops, so the
// results are bit-identical to a dense partial-pivot LU.
package spice

import (
	"context"
	"fmt"
	"math"

	"sstiming/internal/device"
	"sstiming/internal/engine"
	"sstiming/internal/waveform"
)

// Ground is the name of the reference node. It is always node index 0.
const Ground = "0"

// gmin is a small conductance from every node to ground that keeps the
// Jacobian non-singular when devices are cut off.
const gmin = 1e-12

// Circuit is a netlist under construction. Add elements, then call Transient.
type Circuit struct {
	nodeIndex map[string]int
	nodeNames []string

	mosfets []mosfet
	caps    []capacitor
	ress    []resistor
	vsrcs   []vsource
}

type mosfet struct {
	d, g, s int
	params  *device.MOSParams
	geom    device.Geometry
}

type capacitor struct {
	a, b int
	c    float64
}

type resistor struct {
	a, b int
	g    float64
}

// WaveFunc gives the value of an independent voltage source at time t.
type WaveFunc func(t float64) float64

type vsource struct {
	p, m int
	wave WaveFunc
}

// NewCircuit returns an empty circuit containing only the ground node.
func NewCircuit() *Circuit {
	c := &Circuit{nodeIndex: make(map[string]int)}
	c.nodeIndex[Ground] = 0
	c.nodeNames = append(c.nodeNames, Ground)
	return c
}

// Node returns the index of the named node, creating it if necessary.
// "0" and "gnd" both refer to ground.
func (c *Circuit) Node(name string) int {
	if name == "gnd" || name == "GND" {
		name = Ground
	}
	if idx, ok := c.nodeIndex[name]; ok {
		return idx
	}
	idx := len(c.nodeNames)
	c.nodeIndex[name] = idx
	c.nodeNames = append(c.nodeNames, name)
	return idx
}

// NumNodes returns the number of nodes including ground.
func (c *Circuit) NumNodes() int { return len(c.nodeNames) }

// AddMOSFET adds a MOSFET with the given drain, gate and source node indices.
// The bulk terminal is implicit (tied to the appropriate rail; body effect is
// not modelled).
func (c *Circuit) AddMOSFET(d, g, s int, params *device.MOSParams, geom device.Geometry) {
	c.mosfets = append(c.mosfets, mosfet{d: d, g: g, s: s, params: params, geom: geom})
}

// AddCap adds a linear capacitor of value farads between nodes a and b.
func (c *Circuit) AddCap(a, b int, farads float64) {
	if farads <= 0 {
		return
	}
	c.caps = append(c.caps, capacitor{a: a, b: b, c: farads})
}

// AddRes adds a linear resistor of value ohms between nodes a and b.
func (c *Circuit) AddRes(a, b int, ohms float64) {
	c.ress = append(c.ress, resistor{a: a, b: b, g: 1 / ohms})
}

// AddVSource adds an independent voltage source from node p (positive) to
// node m whose value is wave(t).
func (c *Circuit) AddVSource(p, m int, wave WaveFunc) {
	c.vsrcs = append(c.vsrcs, vsource{p: p, m: m, wave: wave})
}

// AddDC adds a constant voltage source of the given value from p to ground.
func (c *Circuit) AddDC(p int, volts float64) {
	c.AddVSource(p, 0, func(float64) float64 { return volts })
}

// Method selects the numerical integration scheme for capacitor currents.
type Method int

const (
	// BackwardEuler is the first-order implicit scheme: unconditionally
	// stable and non-ringing, the default.
	BackwardEuler Method = iota
	// Trapezoidal is the second-order implicit scheme: more accurate at
	// a given step size, at the cost of possible ringing on stiff
	// discontinuities.
	Trapezoidal
)

// String names the method.
func (m Method) String() string {
	if m == Trapezoidal {
		return "trapezoidal"
	}
	return "backward-euler"
}

// TransientOpts controls a transient analysis.
type TransientOpts struct {
	// TStop is the simulation end time in seconds.
	TStop float64
	// TStep is the fixed integration step in seconds. Zero selects 1 ps.
	TStep float64
	// MaxNewton bounds Newton iterations per time point. Zero selects 60.
	MaxNewton int
	// VTol is the Newton convergence tolerance in volts. Zero selects 1 uV.
	VTol float64
	// Method selects the integration scheme (default BackwardEuler).
	Method Method
	// Record lists node names to record. Nil records every node.
	Record []string
	// Ctx, when non-nil, cancels the analysis; it is observed inside the
	// Newton loop of every time point, so even a single large flattened
	// solve cancels promptly. Cancellation returns an error wrapping both
	// ErrCancelled and the context's own error.
	Ctx context.Context
	// MaxStepHalvings bounds the non-convergence recovery ladder: a time
	// point that fails to converge is retried with the step repeatedly
	// halved (sub-stepping to reach the same point) up to this many levels,
	// i.e. down to TStep/2^MaxStepHalvings. Zero selects 4; negative
	// disables recovery. Recovery only activates on failure, so a clean
	// analysis is bit-identical whatever the setting.
	MaxStepHalvings int
	// FaultHook, when non-nil, is consulted before each time-point solve
	// and can force a deterministic failure for chaos testing (see
	// internal/faultinject). Production runs leave it nil.
	FaultHook FaultHook
	// Metrics, when non-nil, receives the simulation effort counters
	// (transients, time steps, Newton iterations, recovery activity).
	Metrics *engine.Metrics
}

// Result holds the recorded waveforms of a transient analysis.
type Result struct {
	byName map[string]*waveform.Waveform
}

// Wave returns the waveform recorded for the named node, or nil if the node
// was not recorded.
func (r *Result) Wave(name string) *waveform.Waveform { return r.byName[name] }

// Transient runs a transient analysis and returns the recorded waveforms.
// The initial state is the DC operating point with all sources at their
// t = 0 values.
func (c *Circuit) Transient(opts TransientOpts) (*Result, error) {
	return c.transient(opts, nil)
}

// transient is Transient; when lu is non-nil it receives the solver's
// statistics on return.
func (c *Circuit) transient(opts TransientOpts, lu *luStats) (*Result, error) {
	if opts.TStop <= 0 {
		return nil, fmt.Errorf("spice: TStop must be positive, got %g", opts.TStop)
	}
	h := opts.TStep
	if h <= 0 {
		h = 1e-12
	}
	maxNewton := opts.MaxNewton
	if maxNewton <= 0 {
		maxNewton = 60
	}
	vtol := opts.VTol
	if vtol <= 0 {
		vtol = 1e-6
	}

	nn := len(c.nodeNames) // includes ground
	nv := len(c.vsrcs)
	dim := (nn - 1) + nv // unknowns: node voltages 1..nn-1, then branch currents

	// volt holds node voltages indexed by node (volt[0] is ground,
	// always 0); branch holds the voltage-source branch currents.
	volt := make([]float64, nn)
	voltPrev := make([]float64, nn)
	branch := make([]float64, nv)

	record := opts.Record
	if record == nil {
		record = c.nodeNames
	}
	steps := int(math.Ceil(opts.TStop / h))
	res, recIdx, recWaves, err := c.newRecording(record, steps)
	if err != nil {
		return nil, err
	}

	// Per-capacitor current state for the trapezoidal method.
	capCur := make([]float64, len(c.caps))

	maxHalvings := opts.MaxStepHalvings
	if maxHalvings == 0 {
		maxHalvings = 4
	}
	if maxHalvings < 0 {
		maxHalvings = 0
	}
	sc := &solveCtx{
		s:         newSolver(dim, c.pattern(dim)),
		maxNewton: maxNewton,
		vtol:      vtol,
		method:    opts.Method,
		ctx:       opts.Ctx,
		hook:      opts.FaultHook,
		gmin:      gmin,
	}
	c.stampTables(sc)

	// Effort accounting is batched into locals and flushed once per
	// analysis so the integration loop pays no atomic operations.
	var stepsDone, newtonIters int64
	var retries, halvings, recovered, unrecovered int64
	defer func() {
		opts.Metrics.Add(engine.SpiceTransients, 1)
		opts.Metrics.Add(engine.SpiceTransSteps, stepsDone)
		opts.Metrics.Add(engine.SpiceNewtonIters, newtonIters)
		opts.Metrics.Add(engine.SpiceStepRetries, retries)
		opts.Metrics.Add(engine.SpiceStepHalvings, halvings)
		opts.Metrics.Add(engine.SpiceGminSteps, sc.gminSteps)
		opts.Metrics.Add(engine.SpiceRecovered, recovered)
		opts.Metrics.Add(engine.SpiceUnrecovered, unrecovered)
		opts.Metrics.Add(engine.FaultsInjected, sc.injected)
		if lu != nil {
			*lu = sc.s.stats
		}
	}()

	// DC operating point at t = 0 (capacitors open, currents zero).
	iters, err := c.solvePoint(sc, volt, branch, voltPrev, capCur, 0, 0, 0, 0)
	newtonIters += int64(iters)
	if err != nil {
		if !IsRecoverable(err) || maxHalvings == 0 {
			return nil, fmt.Errorf("spice: DC operating point: %w", err)
		}
		// Recovery: gmin stepping. Start from a heavily damped system and
		// relax the extra conductance decade by decade, warm-starting each
		// continuation solve from the previous solution.
		retries++
		gIters, gerr := c.solveDCGmin(sc, volt, branch, voltPrev, capCur)
		newtonIters += gIters
		if gerr != nil {
			unrecovered++
			return nil, fmt.Errorf("spice: DC operating point (gmin stepping failed too): %w", gerr)
		}
		recovered++
	}
	for i, w := range recWaves {
		w.Append(0, volt[recIdx[i]])
	}

	for step := 1; step <= steps; step++ {
		t := float64(step) * h
		copy(voltPrev, volt)
		iters, err := c.solvePoint(sc, volt, branch, voltPrev, capCur, t, h, step, 0)
		newtonIters += int64(iters)
		switch {
		case err == nil:
			if opts.Method == Trapezoidal {
				c.updateCapCur(sc, volt, voltPrev, capCur, h)
			}
		case !IsRecoverable(err) || maxHalvings == 0:
			return nil, fmt.Errorf("spice: t=%.4gs: %w", t, err)
		default:
			// Recovery: retry the step with the integration step
			// repeatedly halved, sub-stepping across the same interval.
			retries++
			rIters, used, rerr := c.recoverStep(sc, volt, branch, voltPrev, capCur, t-h, h, step, maxHalvings)
			newtonIters += rIters
			halvings += int64(used)
			if rerr != nil {
				unrecovered++
				return nil, fmt.Errorf("spice: t=%.4gs (after %d step-halving levels): %w", t, used, rerr)
			}
			recovered++
		}
		stepsDone++
		for i, w := range recWaves {
			w.Append(t, volt[recIdx[i]])
		}
	}
	return res, nil
}

// newRecording validates the recorded node names and presizes their
// waveforms: each gets exactly steps+1 samples (the operating point, then
// one per step), all carved from one allocation.
func (c *Circuit) newRecording(record []string, steps int) (*Result, []int, []*waveform.Waveform, error) {
	res := &Result{byName: make(map[string]*waveform.Waveform, len(record))}
	idx := make([]int, len(record))
	for i, name := range record {
		n, ok := c.nodeIndex[name]
		if !ok {
			return nil, nil, nil, fmt.Errorf("spice: cannot record unknown node %q", name)
		}
		idx[i] = n
	}
	per := max(steps, 0) + 1
	samples := make([]float64, 2*per*len(record))
	waves := make([]*waveform.Waveform, len(record))
	for i, name := range record {
		w := &waveform.Waveform{T: samples[:0:per], V: samples[per : per : 2*per]}
		samples = samples[2*per:]
		res.byName[name] = w
		waves[i] = w
	}
	return res, idx, waves, nil
}

// updateCapCur advances the stored trapezoidal capacitor currents after an
// accepted step of size h: i_{n+1} = (2C/h)(v_{n+1} − v_n) − i_n.
// The factor 2C/h is the trapezoidal companion conductance of the template.
func (c *Circuit) updateCapCur(sc *solveCtx, volt, voltPrev, capCur []float64, h float64) {
	c.stampLinear(sc, h)
	for i := range c.caps {
		cp := &c.caps[i]
		dv := (volt[cp.a] - volt[cp.b]) - (voltPrev[cp.a] - voltPrev[cp.b])
		capCur[i] = sc.capG[i]*dv - capCur[i]
	}
}

// recoverStep rescues a non-convergent time point by sub-stepping: attempt k
// restarts from the last converged state and integrates the interval
// [tPrev, tPrev+h] in 2^k sub-steps of h/2^k. It returns the Newton
// iterations spent, the deepest halving level attempted, and nil on success
// (volt/branch/capCur then hold the state at tPrev+h).
func (c *Circuit) recoverStep(sc *solveCtx, volt, branch, voltPrev, capCur []float64, tPrev, h float64, step, maxHalvings int) (iters int64, level int, err error) {
	// voltPrev still holds the last converged voltages (the failed solve
	// mutated only volt), and capCur was last updated at tPrev.
	base := append([]float64(nil), voltPrev...)
	capBase := append([]float64(nil), capCur...)
	for k := 1; k <= maxHalvings; k++ {
		level = k
		nsub := 1 << uint(k)
		hs := h / float64(nsub)
		copy(volt, base)
		copy(capCur, capBase)
		ok := true
		for j := 1; j <= nsub; j++ {
			tj := tPrev + hs*float64(j)
			copy(voltPrev, volt)
			it, serr := c.solvePoint(sc, volt, branch, voltPrev, capCur, tj, hs, step, k)
			iters += int64(it)
			if serr != nil {
				if !IsRecoverable(serr) {
					return iters, k, serr
				}
				ok = false
				err = serr
				break
			}
			if sc.method == Trapezoidal {
				c.updateCapCur(sc, volt, voltPrev, capCur, hs)
			}
		}
		if ok {
			return iters, k, nil
		}
	}
	// Leave the last converged state in place for the caller's diagnostics.
	copy(volt, base)
	copy(capCur, capBase)
	return iters, maxHalvings, err
}

// dcGminStart is the initial extra node-to-ground conductance of the gmin
// stepping ladder; it is relaxed one decade per continuation solve down to
// the nominal gmin.
const dcGminStart = 1e-3

// solveDCGmin rescues a non-convergent DC operating point by gmin stepping.
func (c *Circuit) solveDCGmin(sc *solveCtx, volt, branch, voltPrev, capCur []float64) (iters int64, err error) {
	// Restart from a clean state: the failed attempt may have left volt
	// poisoned (NaN) or far outside the basin of attraction.
	for i := range volt {
		volt[i] = 0
	}
	for i := range branch {
		branch[i] = 0
	}
	attempt := 0
	for g := dcGminStart; ; g /= 10 {
		if g < gmin {
			g = gmin
		}
		attempt++
		sc.gmin = g
		sc.gminSteps++
		it, serr := c.solvePoint(sc, volt, branch, voltPrev, capCur, 0, 0, 0, attempt)
		iters += int64(it)
		if serr != nil {
			sc.gmin = gmin
			return iters, serr
		}
		if g == gmin {
			sc.gmin = gmin
			return iters, nil
		}
	}
}

// solveCtx bundles the per-analysis solver configuration threaded through
// every time-point solve.
type solveCtx struct {
	s   *solver
	mos []mosStamp
	// capRows holds each capacitor's two right-hand-side rows (the sink
	// for ground); capG its companion conductance at step baseH.
	capRows   [][2]int32
	capG      []float64
	maxNewton int
	vtol      float64
	method    Method
	ctx       context.Context
	hook      FaultHook
	// gmin is the node-to-ground conductance stamped on every non-ground
	// node; the DC gmin-stepping ladder temporarily raises it.
	gmin float64
	// gminSteps and injected batch metrics locals for the deferred flush.
	gminSteps int64
	injected  int64
	// baseH and baseGmin key the linear template in s.base; baseOK is
	// false until it is first stamped.
	baseH, baseGmin float64
	baseOK          bool
}

// mosStamp holds the offsets of one MOSFET's stamps into the solver's a and
// b. A stamp on a ground row or column lands in the sink slot at the end.
type mosStamp struct {
	dd, ds, dg, sd, ss, sg int32
	d, s                   int32
}

// pattern returns the structural pattern of the circuit's MNA matrix
// (dim×dim, row-major): every entry any element may stamp, capacitors
// included, plus the gmin diagonal.
func (c *Circuit) pattern(dim int) []bool {
	nn := len(c.nodeNames)
	pat := make([]bool, dim*dim)
	set := func(row, col int) {
		if row != 0 && col != 0 {
			pat[(row-1)*dim+(col-1)] = true
		}
	}
	two := func(a, b int) {
		set(a, a)
		set(b, b)
		set(a, b)
		set(b, a)
	}
	for i := 1; i < nn; i++ {
		set(i, i)
	}
	for _, r := range c.ress {
		two(r.a, r.b)
	}
	for _, cp := range c.caps {
		two(cp.a, cp.b)
	}
	for _, m := range c.mosfets {
		two(m.d, m.s)
		set(m.d, m.g)
		set(m.s, m.g)
	}
	for k, v := range c.vsrcs {
		br := nn - 1 + k
		for _, n := range [2]int{v.p, v.m} {
			if n != 0 {
				pat[(n-1)*dim+br] = true
				pat[br*dim+(n-1)] = true
			}
		}
	}
	return pat
}

// stampTables resolves every capacitor's right-hand-side rows and every
// MOSFET stamp to their offsets in sc's solver.
func (c *Circuit) stampTables(sc *solveCtx) {
	dim := sc.s.dim
	sink := int32(dim * dim)
	at := func(row, col int) int32 {
		if row == 0 || col == 0 {
			return sink
		}
		return int32((row-1)*dim + (col - 1))
	}
	bi := func(row int) int32 {
		if row == 0 {
			return int32(dim)
		}
		return int32(row - 1)
	}
	sc.capRows = make([][2]int32, len(c.caps))
	for i, cp := range c.caps {
		sc.capRows[i] = [2]int32{bi(cp.a), bi(cp.b)}
	}
	sc.capG = make([]float64, len(c.caps))
	sc.mos = make([]mosStamp, len(c.mosfets))
	for i, m := range c.mosfets {
		sc.mos[i] = mosStamp{
			dd: at(m.d, m.d), ds: at(m.d, m.s), dg: at(m.d, m.g),
			sd: at(m.s, m.d), ss: at(m.s, m.s), sg: at(m.s, m.g),
			d: bi(m.d), s: bi(m.s),
		}
	}
}

// stampLinear (re)stamps the linear template for step h (0 = DC) and sc's
// current gmin: gmin on every node, then the resistors, then the
// capacitor conductances, then the voltage-source ±1 pattern, each entry
// receiving the additions of a full stamp in the same order. The source
// entries share no position with any other element, so the MOSFET stamps
// that follow per Newton iteration complete exactly the dense sums.
func (c *Circuit) stampLinear(sc *solveCtx, h float64) {
	if sc.baseOK && sc.baseH == h && sc.baseGmin == sc.gmin {
		return
	}
	sc.baseOK, sc.baseH, sc.baseGmin = true, h, sc.gmin
	s := sc.s
	a, dim := s.base, s.dim
	clear(a)
	add := func(row, col int, g float64) {
		if row != 0 && col != 0 {
			a[(row-1)*dim+(col-1)] += g
		}
	}
	nn := len(c.nodeNames)
	for i := 1; i < nn; i++ {
		add(i, i, sc.gmin)
	}
	for i := range c.ress {
		r := &c.ress[i]
		add(r.a, r.a, r.g)
		add(r.b, r.b, r.g)
		add(r.a, r.b, -r.g)
		add(r.b, r.a, -r.g)
	}
	if h > 0 {
		for i := range c.caps {
			cp := &c.caps[i]
			geq := cp.geq(sc.method, h)
			sc.capG[i] = geq
			add(cp.a, cp.a, geq)
			add(cp.b, cp.b, geq)
			add(cp.a, cp.b, -geq)
			add(cp.b, cp.a, -geq)
		}
	}
	for k := range c.vsrcs {
		v := &c.vsrcs[k]
		br := (nn - 1) + k
		if v.p != 0 {
			a[(v.p-1)*dim+br] += 1
			a[br*dim+(v.p-1)] += 1
		}
		if v.m != 0 {
			a[(v.m-1)*dim+br] -= 1
			a[br*dim+(v.m-1)] -= 1
		}
	}
}

// geq is the capacitor's companion conductance at step h.
func (cp *capacitor) geq(method Method, h float64) float64 {
	if method == Trapezoidal {
		return 2 * cp.c / h
	}
	return cp.c / h
}

// stampRHS stamps the right-hand side of time point t: the capacitor
// companion currents (from the previous point's voltages and currents)
// and the source values. The template must be current for h.
func (c *Circuit) stampRHS(sc *solveCtx, voltPrev, capCur []float64, t, h float64) {
	b := sc.s.rhs
	clear(b)
	if h > 0 {
		trap := sc.method == Trapezoidal
		for i := range c.caps {
			cp := &c.caps[i]
			geq := sc.capG[i]
			var ieq float64
			if trap {
				// i_{n+1} = geq*v_{n+1} - (geq*v_n + i_n)
				ieq = geq*(voltPrev[cp.a]-voltPrev[cp.b]) + capCur[i]
			} else {
				ieq = geq * (voltPrev[cp.a] - voltPrev[cp.b])
			}
			rows := sc.capRows[i]
			b[rows[0]] += ieq
			b[rows[1]] += -ieq
		}
	}
	nn := len(c.nodeNames)
	for k := range c.vsrcs {
		b[nn-1+k] = c.vsrcs[k].wave(t)
	}
}

// unknownName names MNA unknown i (0-based solver row): a node voltage for
// the first nn-1 rows, a voltage-source branch current afterwards.
func (c *Circuit) unknownName(i int) string {
	if i < len(c.nodeNames)-1 {
		return c.nodeNames[i+1]
	}
	return fmt.Sprintf("vsource#%d", i-(len(c.nodeNames)-1))
}

// stampNewton loads the linear template and the time point's right-hand
// side into the working system and adds the MOSFETs linearised at volt.
func (c *Circuit) stampNewton(sc *solveCtx, volt []float64) {
	s := sc.s
	a, b := s.a, s.b
	copy(a, s.base)
	copy(b, s.rhs)
	for i := range c.mosfets {
		m := &c.mosfets[i]
		o := &sc.mos[i]
		vgs := volt[m.g] - volt[m.s]
		vds := volt[m.d] - volt[m.s]
		ids, gm, gds := m.params.Ids(m.geom, vgs, vds)
		ieq := ids - gm*vgs - gds*vds
		// Current ids flows drain -> source.
		a[o.dd] += gds
		a[o.ds] += -gds - gm
		a[o.dg] += gm
		a[o.sd] += -gds
		a[o.ss] += gds + gm
		a[o.sg] += -gm
		b[o.d] += -ieq
		b[o.s] += ieq
	}
}

// solvePoint performs Newton-Raphson iteration for one time point,
// returning the number of iterations spent. h == 0 means DC (capacitors
// are ignored). volt is used as the initial guess and receives the
// solution; voltPrev holds the previous time point's voltages (and capCur
// the previous capacitor currents) for the companion models. step and
// attempt identify the point for diagnostics and fault injection.
func (c *Circuit) solvePoint(sc *solveCtx, volt, branch, voltPrev, capCur []float64, t, h float64, step, attempt int) (int, error) {
	fault := FaultNone
	if sc.hook != nil {
		fault = sc.hook(step, t, attempt)
	}
	if fault != FaultNone {
		sc.injected++
	}
	switch fault {
	case FaultPanic:
		panic(fmt.Sprintf("faultinject: forced panic at step %d (t=%.4gs)", step, t))
	case FaultNoConverge:
		return 0, &SolveError{Kind: ErrNoConvergence, Time: t, Step: step, Attempt: attempt, Injected: true}
	}

	c.stampLinear(sc, h)
	c.stampRHS(sc, voltPrev, capCur, t, h)
	s := sc.s
	maxNewton, vtol := sc.maxNewton, sc.vtol
	nn := len(c.nodeNames)
	worst := 0
	residual := 0.0
	for iter := 0; iter < maxNewton; iter++ {
		// Observe cancellation inside the Newton loop, so even one large
		// flattened circuit reacts within a single iteration, not a whole
		// transient.
		if sc.ctx != nil {
			if cerr := sc.ctx.Err(); cerr != nil {
				return iter, Cancelled(cerr)
			}
		}
		c.stampNewton(sc, volt)
		x, err := s.solve()
		if err != nil {
			return iter + 1, &SolveError{
				Kind: ErrNumerical, Time: t, Step: step, Attempt: attempt,
				Iters: iter + 1, Cause: err,
			}
		}
		if fault == FaultNaN && iter == 0 && len(x) > 0 {
			// Poison the solve output instead of returning an error
			// directly, so the injection exercises the real guard below.
			x[0] = math.NaN()
		}
		// Guard the linear-solve output: a NaN/Inf entry must surface as a
		// typed numerical error naming the offending unknown — without the
		// guard a NaN poisons every later comparison and the loop either
		// "converges" on garbage or spins to the iteration cap.
		for i := range x {
			if !finite(x[i]) {
				return iter + 1, &SolveError{
					Kind: ErrNumerical, Time: t, Step: step, Attempt: attempt,
					Iters: iter + 1, Node: c.unknownName(i), Injected: fault == FaultNaN,
				}
			}
		}

		// Extract the solution and check convergence with damping.
		maxDelta := 0.0
		for i := 1; i < nn; i++ {
			newV := x[i-1]
			d := newV - volt[i]
			if math.Abs(d) > maxDelta {
				maxDelta = math.Abs(d)
				worst = i
			}
			// Damp large Newton steps to aid convergence on the
			// steep square-law characteristics.
			const maxStep = 1.0
			if d > maxStep {
				newV = volt[i] + maxStep
			} else if d < -maxStep {
				newV = volt[i] - maxStep
			}
			volt[i] = newV
		}
		for i := 0; i < len(c.vsrcs); i++ {
			branch[i] = x[nn-1+i]
		}
		if maxDelta < vtol {
			return iter + 1, nil
		}
		residual = maxDelta
	}
	return maxNewton, &SolveError{
		Kind: ErrNoConvergence, Time: t, Step: step, Attempt: attempt,
		Iters: maxNewton, Node: c.nodeNames[worst], Residual: residual,
	}
}
