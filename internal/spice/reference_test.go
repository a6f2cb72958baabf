package spice

// This file freezes the transient loop, the Newton time-point solve and
// the dense partial-pivot LU as they stood before the structure-aware
// solver: every Newton iteration re-stamps every element into a zeroed
// dense matrix and factors all of it. The differential test and FuzzSolve
// require the production path to reproduce it bit for bit, error paths and
// effort counters included. Do not edit it to follow a change of the
// solver: a deliberate change of the arithmetic replaces the reference
// wholesale.

import (
	"fmt"
	"math"

	"sstiming/internal/engine"
	"sstiming/internal/waveform"
)

// refTransient is Circuit.Transient.
func refTransient(c *Circuit, opts TransientOpts) (*Result, error) {
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

	nn := len(c.nodeNames)
	nv := len(c.vsrcs)
	dim := (nn - 1) + nv

	s := refNewSolver(dim)
	volt := make([]float64, nn)
	voltPrev := make([]float64, nn)
	branch := make([]float64, nv)

	record := opts.Record
	if record == nil {
		record = append([]string(nil), c.nodeNames...)
	}
	res := &Result{byName: make(map[string]*waveform.Waveform, len(record))}
	recIdx := make([]int, 0, len(record))
	recWaves := make([]*waveform.Waveform, 0, len(record))
	for _, name := range record {
		idx, ok := c.nodeIndex[name]
		if !ok {
			return nil, fmt.Errorf("spice: cannot record unknown node %q", name)
		}
		w := &waveform.Waveform{}
		res.byName[name] = w
		recIdx = append(recIdx, idx)
		recWaves = append(recWaves, w)
	}

	capCur := make([]float64, len(c.caps))

	maxHalvings := opts.MaxStepHalvings
	if maxHalvings == 0 {
		maxHalvings = 4
	}
	if maxHalvings < 0 {
		maxHalvings = 0
	}
	sc := &refSolveCtx{
		s:         s,
		maxNewton: maxNewton,
		vtol:      vtol,
		method:    opts.Method,
		hook:      opts.FaultHook,
		gmin:      gmin,
	}

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
	}()

	iters, err := refSolvePoint(c, sc, volt, branch, voltPrev, capCur, 0, 0, 0, 0)
	newtonIters += int64(iters)
	if err != nil {
		if !IsRecoverable(err) || maxHalvings == 0 {
			return nil, fmt.Errorf("spice: DC operating point: %w", err)
		}
		retries++
		gIters, gerr := refSolveDCGmin(c, sc, volt, branch, voltPrev, capCur)
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

	steps := int(math.Ceil(opts.TStop / h))
	for step := 1; step <= steps; step++ {
		t := float64(step) * h
		copy(voltPrev, volt)
		iters, err := refSolvePoint(c, sc, volt, branch, voltPrev, capCur, t, h, step, 0)
		newtonIters += int64(iters)
		switch {
		case err == nil:
			if opts.Method == Trapezoidal {
				refUpdateCapCur(c, volt, voltPrev, capCur, h)
			}
		case !IsRecoverable(err) || maxHalvings == 0:
			return nil, fmt.Errorf("spice: t=%.4gs: %w", t, err)
		default:
			retries++
			rIters, used, rerr := refRecoverStep(c, sc, volt, branch, voltPrev, capCur, t-h, h, step, maxHalvings)
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

func refUpdateCapCur(c *Circuit, volt, voltPrev, capCur []float64, h float64) {
	for i := range c.caps {
		cp := &c.caps[i]
		dv := (volt[cp.a] - volt[cp.b]) - (voltPrev[cp.a] - voltPrev[cp.b])
		capCur[i] = (2*cp.c/h)*dv - capCur[i]
	}
}

func refRecoverStep(c *Circuit, sc *refSolveCtx, volt, branch, voltPrev, capCur []float64, tPrev, h float64, step, maxHalvings int) (iters int64, level int, err error) {
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
			it, serr := refSolvePoint(c, sc, volt, branch, voltPrev, capCur, tj, hs, step, k)
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
				refUpdateCapCur(c, volt, voltPrev, capCur, hs)
			}
		}
		if ok {
			return iters, k, nil
		}
	}
	copy(volt, base)
	copy(capCur, capBase)
	return iters, maxHalvings, err
}

func refSolveDCGmin(c *Circuit, sc *refSolveCtx, volt, branch, voltPrev, capCur []float64) (iters int64, err error) {
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
		it, serr := refSolvePoint(c, sc, volt, branch, voltPrev, capCur, 0, 0, 0, attempt)
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

type refSolveCtx struct {
	s         *refSolver
	maxNewton int
	vtol      float64
	method    Method
	hook      FaultHook
	gmin      float64
	gminSteps int64
	injected  int64
}

func refUnknownName(c *Circuit, i int) string {
	if i < len(c.nodeNames)-1 {
		return c.nodeNames[i+1]
	}
	return fmt.Sprintf("vsource#%d", i-(len(c.nodeNames)-1))
}

// refSolvePoint is Circuit.solvePoint with every element re-stamped on
// every Newton iteration. (Cancellation is not frozen: the differential
// campaign runs without a context.)
func refSolvePoint(c *Circuit, sc *refSolveCtx, volt, branch, voltPrev, capCur []float64, t, h float64, step, attempt int) (int, error) {
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

	s := sc.s
	maxNewton, vtol, method := sc.maxNewton, sc.vtol, sc.method
	nn := len(c.nodeNames)
	worst := 0
	residual := 0.0
	for iter := 0; iter < maxNewton; iter++ {
		s.reset()

		for i := 1; i < nn; i++ {
			s.addG(i, i, sc.gmin)
		}

		for i := range c.ress {
			r := &c.ress[i]
			s.addG(r.a, r.a, r.g)
			s.addG(r.b, r.b, r.g)
			s.addG(r.a, r.b, -r.g)
			s.addG(r.b, r.a, -r.g)
		}

		if h > 0 {
			for i := range c.caps {
				cp := &c.caps[i]
				var geq, ieq float64
				if method == Trapezoidal {
					geq = 2 * cp.c / h
					ieq = geq*(voltPrev[cp.a]-voltPrev[cp.b]) + capCur[i]
				} else {
					geq = cp.c / h
					ieq = geq * (voltPrev[cp.a] - voltPrev[cp.b])
				}
				s.addG(cp.a, cp.a, geq)
				s.addG(cp.b, cp.b, geq)
				s.addG(cp.a, cp.b, -geq)
				s.addG(cp.b, cp.a, -geq)
				s.addI(cp.a, ieq)
				s.addI(cp.b, -ieq)
			}
		}

		for i := range c.mosfets {
			m := &c.mosfets[i]
			vgs := volt[m.g] - volt[m.s]
			vds := volt[m.d] - volt[m.s]
			ids, gm, gds := m.params.Ids(m.geom, vgs, vds)
			ieq := ids - gm*vgs - gds*vds
			s.addG(m.d, m.d, gds)
			s.addG(m.d, m.s, -gds-gm)
			s.addG(m.d, m.g, gm)
			s.addG(m.s, m.d, -gds)
			s.addG(m.s, m.s, gds+gm)
			s.addG(m.s, m.g, -gm)
			s.addI(m.d, -ieq)
			s.addI(m.s, ieq)
		}

		for i := range c.vsrcs {
			v := &c.vsrcs[i]
			s.stampVSource(nn, i, v.p, v.m, v.wave(t))
		}

		x, err := s.solve()
		if err != nil {
			return iter + 1, &SolveError{
				Kind: ErrNumerical, Time: t, Step: step, Attempt: attempt,
				Iters: iter + 1, Cause: err,
			}
		}
		if fault == FaultNaN && iter == 0 && len(x) > 0 {
			x[0] = math.NaN()
		}
		for i := range x {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
				return iter + 1, &SolveError{
					Kind: ErrNumerical, Time: t, Step: step, Attempt: attempt,
					Iters: iter + 1, Node: refUnknownName(c, i), Injected: fault == FaultNaN,
				}
			}
		}

		maxDelta := 0.0
		for i := 1; i < nn; i++ {
			newV := x[i-1]
			d := newV - volt[i]
			if math.Abs(d) > maxDelta {
				maxDelta = math.Abs(d)
				worst = i
			}
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

// refSolver is the dense MNA matrix with node-index based stamping.
type refSolver struct {
	dim int
	a   []float64
	b   []float64
	x   []float64
}

func refNewSolver(dim int) *refSolver {
	return &refSolver{
		dim: dim,
		a:   make([]float64, dim*dim),
		b:   make([]float64, dim),
		x:   make([]float64, dim),
	}
}

func (s *refSolver) reset() {
	for i := range s.a {
		s.a[i] = 0
	}
	for i := range s.b {
		s.b[i] = 0
	}
}

func (s *refSolver) addG(row, col int, g float64) {
	if row == 0 || col == 0 {
		return
	}
	s.a[(row-1)*s.dim+(col-1)] += g
}

func (s *refSolver) addI(row int, i float64) {
	if row == 0 {
		return
	}
	s.b[row-1] += i
}

func (s *refSolver) stampVSource(nn, k, p, m int, e float64) {
	br := (nn - 1) + k
	if p != 0 {
		s.a[(p-1)*s.dim+br] += 1
		s.a[br*s.dim+(p-1)] += 1
	}
	if m != 0 {
		s.a[(m-1)*s.dim+br] -= 1
		s.a[br*s.dim+(m-1)] -= 1
	}
	s.b[br] = e
}

// solve is the dense in-place partial-pivot LU solve.
func (s *refSolver) solve() ([]float64, error) {
	n := s.dim
	a := s.a
	b := s.b

	for col := 0; col < n; col++ {
		pivRow := col
		pivVal := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > pivVal {
				pivVal = v
				pivRow = r
			}
		}
		if pivVal == 0 {
			return nil, fmt.Errorf("singular MNA matrix at column %d", col)
		}
		if pivRow != col {
			for k := col; k < n; k++ {
				a[col*n+k], a[pivRow*n+k] = a[pivRow*n+k], a[col*n+k]
			}
			b[col], b[pivRow] = b[pivRow], b[col]
		}
		inv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * inv
			if f == 0 {
				continue
			}
			a[r*n+col] = 0
			for k := col + 1; k < n; k++ {
				a[r*n+k] -= f * a[col*n+k]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for k := r + 1; k < n; k++ {
			sum -= a[r*n+k] * s.x[k]
		}
		s.x[r] = sum / a[r*n+r]
	}
	return s.x, nil
}
