// Package charlib is the characterisation harness: it drives the
// transistor-level simulator (the reproduction's HSPICE stand-in) over grids
// of input transition times and skews, and fits the paper's empirical
// K-coefficient formulas (Section 3.4) to produce a core.Library.
//
// This corresponds to the paper's Section 3.7 "Characterization Efforts":
// a one-time, per-cell pre-characterisation that yields the DR, D0R and SR
// formulas (and their transition-time analogues) for each NAND/NOR cell.
package charlib

import (
	"context"
	"fmt"
	"math"
	"sync"

	"sstiming/internal/cells"
	"sstiming/internal/core"
	"sstiming/internal/device"
	"sstiming/internal/engine"
	"sstiming/internal/fit"
	"sstiming/internal/spice"
)

// Options configures a characterisation run.
type Options struct {
	// Tech is the process technology; nil selects device.Default05um.
	Tech *device.Tech
	// Grid lists the input transition times (seconds) swept during
	// characterisation. Nil selects the default 5-point grid
	// {0.1, 0.25, 0.5, 0.9, 1.5} ns.
	Grid []float64
	// Cells lists the cells to characterise. Nil selects the default
	// library {INV, NAND2, NAND3, NAND4, NOR2, NOR3}.
	Cells []cells.Config
	// TStep is the simulator integration step; zero selects 2 ps.
	TStep float64
	// SkewTol is the bisection tolerance when locating the SR threshold;
	// zero selects 4 ps.
	SkewTol float64
	// SkipPairs skips the (expensive) pair-surface characterisation,
	// producing pin-to-pin-only models. Useful when only single-input
	// timing is needed (e.g. the Figure 10 position study).
	SkipPairs bool
	// PaperExactD0 restricts the D0R/T0 fits to the paper's exact
	// four-term product form instead of the default extended basis.
	// Used by the D0-basis ablation bench.
	PaperExactD0 bool
	// NCPairs additionally characterises the simultaneous
	// to-non-controlling surfaces (the paper's Section 3.6 future work;
	// roughly doubles the pair-characterisation cost).
	NCPairs bool
	// Retries bounds the per-point retry ladder: a simulation whose solver
	// fails recoverably (non-convergence, numerical blow-up) even after the
	// solver's own step-halving recovery is re-run with tightened settings
	// (halved step, doubled Newton budget) up to this many times. Zero
	// selects 2; negative disables retries. The first attempt always uses
	// the unmodified settings, so a clean run is byte-identical whatever
	// the value.
	Retries int
	// MaxDegradedFrac is the graceful-degradation budget: the largest
	// tolerated fraction of a cell's characterisation points that may be
	// interpolated from neighbours after all retries fail. Zero selects
	// 0.25; negative forbids degradation entirely. Beyond the budget the
	// cell's characterisation fails hard.
	MaxDegradedFrac float64
	// NewFaultHook, when non-nil, supplies one fault-injection hook per
	// transient analysis (see internal/faultinject.Plan.NextHook). Chaos
	// testing only; production runs leave it nil.
	NewFaultHook func() spice.FaultHook
	// Progress, when non-nil, receives one line per characterisation
	// stage (useful for the CLI).
	Progress func(format string, args ...any)
	// Ctx, when non-nil, cancels the characterisation (checked between
	// simulations and inside each transient analysis).
	Ctx context.Context
	// Jobs bounds the engine worker pool at each fan-out level (cells,
	// and input pairs within a cell); zero selects GOMAXPROCS. Jobs == 1
	// runs fully serially. Any value produces a byte-identical library:
	// job results are placed by index, and the underlying simulations
	// are deterministic.
	Jobs int
	// Checkpoint, when non-nil, receives each cell model the moment its
	// characterisation completes, before the campaign moves on — the hook
	// for write-ahead journaling (internal/store.Journal.Append). A
	// checkpoint error fails the cell: a result that cannot be made
	// durable is treated like a result that was never produced.
	Checkpoint func(*core.CellModel) error
	// Completed seeds the campaign with already-characterised cells (keyed
	// by cell name, e.g. journal replay on resume). A configured cell
	// found here is reused verbatim — no simulation, no Checkpoint call —
	// and counted under charlib/cells_reused.
	Completed map[string]*core.CellModel
	// Metrics, when non-nil, accumulates characterisation and simulator
	// effort counters across all workers.
	Metrics *engine.Metrics
}

func (o *Options) fill() {
	if o.Tech == nil {
		o.Tech = device.Default05um()
	}
	if o.Grid == nil {
		o.Grid = []float64{0.1e-9, 0.25e-9, 0.5e-9, 0.9e-9, 1.5e-9}
	}
	if o.Cells == nil {
		o.Cells = DefaultCells(o.Tech)
	}
	if o.TStep <= 0 {
		o.TStep = 2e-12
	}
	if o.SkewTol <= 0 {
		o.SkewTol = 4e-12
	}
	if o.Retries == 0 {
		o.Retries = 2
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.MaxDegradedFrac == 0 {
		o.MaxDegradedFrac = 0.25
	} else if o.MaxDegradedFrac < 0 {
		o.MaxDegradedFrac = 0
	}
	if o.Progress == nil {
		o.Progress = func(string, ...any) {}
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
}

// Resolved returns a copy of the options with every default filled in, so
// callers (e.g. the CLI's campaign fingerprint) can observe the effective
// grid, cell set and solver settings of the run Characterize would perform.
func (o Options) Resolved() Options {
	o.fill()
	return o
}

// DefaultCells returns the default library cell set.
func DefaultCells(tech *device.Tech) []cells.Config {
	return []cells.Config{
		{Kind: cells.Inv, N: 1, Tech: tech, LoadInverter: true},
		{Kind: cells.NAND, N: 2, Tech: tech, LoadInverter: true},
		{Kind: cells.NAND, N: 3, Tech: tech, LoadInverter: true},
		{Kind: cells.NAND, N: 4, Tech: tech, LoadInverter: true},
		{Kind: cells.NOR, N: 2, Tech: tech, LoadInverter: true},
		{Kind: cells.NOR, N: 3, Tech: tech, LoadInverter: true},
	}
}

// FastOptions returns reduced-grid options suitable for tests: a 3-point
// grid and a minimal cell set.
func FastOptions() Options {
	tech := device.Default05um()
	return Options{
		Tech: tech,
		Grid: []float64{0.15e-9, 0.4e-9, 0.8e-9, 1.3e-9},
		Cells: []cells.Config{
			{Kind: cells.Inv, N: 1, Tech: tech, LoadInverter: true},
			{Kind: cells.NAND, N: 2, Tech: tech, LoadInverter: true},
			{Kind: cells.NOR, N: 2, Tech: tech, LoadInverter: true},
		},
		TStep: 3e-12,
	}
}

// measurement is one simulated (delay, output transition) sample.
type measurement struct {
	delay float64 // relative to the earliest switching input arrival
	trans float64
}

// characterizer carries shared state for one cell. Pair characterisation
// runs concurrently across ordered pairs, so the memos and the fit records
// are guarded: a goroutine that misses a memo while another simulates the
// same key waits for that simulation instead of repeating it, so every
// point is simulated exactly as often as in a serial run.
type characterizer struct {
	opts Options
	cfg  cells.Config
	// ctx is the cell's fan-out context, threaded into every simulation.
	ctx context.Context

	// memoPair caches two-input simultaneous to-controlling simulations.
	memoPair *memo[pairKey]
	// memoNCPair caches the to-non-controlling counterparts.
	memoNCPair *memo[pairKey]
	// singleCtrl caches single-input to-controlling measurements per
	// (pin, grid index); singleNC the to-non-controlling ones.
	singleCtrl *memo[[2]int]
	singleNC   *memo[[2]int]

	// mu guards quality and health.
	mu sync.Mutex
	// quality accumulates per-surface fit statistics (ns domain).
	quality map[string]core.FitQuality
	// health accumulates resilience bookkeeping: attempted points, retried
	// simulations and degraded (interpolated) points.
	health core.CellHealth
}

// memo caches simulated measurements by key, with at most one simulation
// of a key in flight: a caller that finds its key being simulated waits,
// then takes the stored measurement — or, if that simulation failed,
// simulates itself, as a serial run would retry an unstored key.
type memo[K comparable] struct {
	mu      sync.Mutex
	done    map[K]measurement
	running map[K]chan struct{}
}

func newMemo[K comparable]() *memo[K] {
	return &memo[K]{done: make(map[K]measurement), running: make(map[K]chan struct{})}
}

// get returns the measurement stored for key, or runs sim to make it.
func (m *memo[K]) get(key K, sim func() (measurement, error)) (measurement, error) {
	for {
		m.mu.Lock()
		if v, ok := m.done[key]; ok {
			m.mu.Unlock()
			return v, nil
		}
		wait, busy := m.running[key]
		if !busy {
			wait = make(chan struct{})
			m.running[key] = wait
		}
		m.mu.Unlock()
		if !busy {
			return m.run(key, wait, sim)
		}
		<-wait
	}
}

// run simulates key and releases its waiters, even if sim panics.
func (m *memo[K]) run(key K, wait chan struct{}, sim func() (measurement, error)) (measurement, error) {
	var v measurement
	stored := false
	defer func() {
		m.mu.Lock()
		if stored {
			m.done[key] = v
		}
		delete(m.running, key)
		m.mu.Unlock()
		close(wait)
	}()
	v, err := sim()
	stored = err == nil
	return v, err
}

type pairKey struct {
	x, y   int
	tx, ty int // grid indices
	dps    int // skew in integer picoseconds
}

// Characterize runs the full characterisation and returns the fitted
// library.
func Characterize(opts Options) (*core.Library, error) {
	opts.fill()
	lib := &core.Library{
		TechName: opts.Tech.Name,
		Vdd:      opts.Tech.Vdd,
		Cells:    make(map[string]*core.CellModel),
	}
	// Characterise cells on the shared engine pool; each cell's harness
	// further fans out across its input pairs. Results land by index, so
	// any worker count yields an identical library.
	stop := opts.Metrics.StartTimer("characterize")
	defer stop()
	models := make([]*core.CellModel, len(opts.Cells))
	err := engine.Run(opts.Ctx, opts.Jobs, len(opts.Cells), func(ctx context.Context, i int) error {
		cfg := opts.Cells[i]
		if m, ok := opts.Completed[cfg.Name()]; ok && m != nil {
			// Journal replay: the cell already completed in a previous run
			// of this exact campaign. Reuse it verbatim; it was already
			// checkpointed when first characterised.
			models[i] = m
			opts.Metrics.Add(engine.CharCellsReused, 1)
			return nil
		}
		opts.Progress("characterizing %s", cfg.Name())
		// Safely labels a crash (e.g. an injected panic deep inside a
		// simulation) with the cell name; the bare pool-level recovery
		// would only report the goroutine.
		var m *core.CellModel
		if err := engine.Safely(func() error {
			var err error
			m, err = characterizeCell(ctx, opts, cfg)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", cfg.Name(), err)
		}
		if opts.Checkpoint != nil {
			if err := opts.Checkpoint(m); err != nil {
				return fmt.Errorf("%s: checkpoint: %w", cfg.Name(), err)
			}
		}
		models[i] = m
		opts.Metrics.Add(engine.CharCells, 1)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("charlib: %w", err)
	}
	for _, m := range models {
		lib.Cells[m.Name] = m
	}
	if err := lib.Validate(); err != nil {
		return nil, err
	}
	return lib, nil
}

func characterizeCell(ctx context.Context, opts Options, cfg cells.Config) (*core.CellModel, error) {
	n := cfg.N
	if cfg.Kind == cells.Inv {
		n = 1
	}
	ch := &characterizer{
		opts:       opts,
		cfg:        cfg,
		ctx:        ctx,
		memoPair:   newMemo[pairKey](),
		memoNCPair: newMemo[pairKey](),
		singleCtrl: newMemo[[2]int](),
		singleNC:   newMemo[[2]int](),
		quality:    make(map[string]core.FitQuality),
	}

	model := &core.CellModel{
		Name:          cfg.Name(),
		Kind:          cfg.Kind.String(),
		N:             n,
		CtrlOutRising: cfg.OutputRisesOnControlling(),
		RefLoad:       opts.Tech.InverterInputCap(),
	}

	// Per-pin single-transition fits, both response directions.
	for pin := 0; pin < n; pin++ {
		pt, err := ch.fitPin(pin, true)
		if err != nil {
			return nil, fmt.Errorf("pin %d ctrl: %w", pin, err)
		}
		model.CtrlPins = append(model.CtrlPins, pt)

		ptn, err := ch.fitPin(pin, false)
		if err != nil {
			return nil, fmt.Errorf("pin %d non-ctrl: %w", pin, err)
		}
		model.NonCtrlPins = append(model.NonCtrlPins, ptn)
	}

	if opts.SkipPairs {
		if err := ch.finish(model); err != nil {
			return nil, err
		}
		return model, nil
	}

	// Ordered-pair simultaneous-switching surfaces, characterised on the
	// engine pool (the simulations dominate; entries land by index, so
	// the model is identical regardless of scheduling).
	type pairJob struct {
		x, y int
	}
	var jobs []pairJob
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if x != y {
				jobs = append(jobs, pairJob{x, y})
			}
		}
	}
	entries := make([]core.PairEntry, len(jobs))
	err := engine.Run(ctx, opts.Jobs, len(jobs), func(_ context.Context, i int) error {
		job := jobs[i]
		opts.Progress("  pair (%d,%d)", job.x, job.y)
		e, err := ch.fitPair(job.x, job.y, model)
		if err != nil {
			return fmt.Errorf("pair (%d,%d): %w", job.x, job.y, err)
		}
		entries[i] = e
		return nil
	})
	if err != nil {
		return nil, err
	}
	model.Pairs = append(model.Pairs, entries...)

	if opts.NCPairs {
		ncEntries := make([]core.PairEntry, len(jobs))
		err := engine.Run(ctx, opts.Jobs, len(jobs), func(_ context.Context, i int) error {
			job := jobs[i]
			opts.Progress("  nc-pair (%d,%d)", job.x, job.y)
			e, err := ch.fitNCPair(job.x, job.y)
			if err != nil {
				return fmt.Errorf("nc-pair (%d,%d): %w", job.x, job.y, err)
			}
			ncEntries[i] = e
			return nil
		})
		if err != nil {
			return nil, err
		}
		model.NCPairs = append(model.NCPairs, ncEntries...)
	}

	// Multi-input speed-up factors for k = 3..n simultaneous inputs.
	if n >= 3 {
		if err := ch.fitMultiFactors(model); err != nil {
			return nil, fmt.Errorf("multi-input factors: %w", err)
		}
	}
	if err := ch.finish(model); err != nil {
		return nil, err
	}
	return model, nil
}

// record stores fit statistics for one characterised surface.
func (ch *characterizer) record(key string, st fit.Stats) {
	ch.mu.Lock()
	ch.quality[key] = core.FitQuality{RMS: st.RMS, Max: st.MaxAbs, R2: st.R2}
	ch.mu.Unlock()
}

// stimulusArrival is the fixed 50% arrival time of the reference input. It
// leaves room for the slowest characterised ramp (1.5 ns, spanning ~1.9 ns
// end to end) to start after t = 0.
const stimulusArrival = 1.2e-9

// ctrlDrive returns the drive for an input making a to-controlling
// transition (falling for NAND/INV, rising for NOR).
func (ch *characterizer) ctrlDrive(arr, tt float64) cells.Drive {
	if ch.cfg.ControllingValue() == 0 {
		return cells.Falling(arr, tt)
	}
	return cells.Rising(arr, tt)
}

// nonCtrlDrive returns the drive for a to-non-controlling transition.
func (ch *characterizer) nonCtrlDrive(arr, tt float64) cells.Drive {
	if ch.cfg.ControllingValue() == 0 {
		return cells.Rising(arr, tt)
	}
	return cells.Falling(arr, tt)
}

// steadyNonCtrl returns the steady drive at the non-controlling value.
func (ch *characterizer) steadyNonCtrl() cells.Drive {
	if ch.cfg.ControllingValue() == 0 {
		return cells.SteadyHigh(ch.opts.Tech)
	}
	return cells.SteadyLow()
}

func (ch *characterizer) numInputs() int {
	if ch.cfg.Kind == cells.Inv {
		return 1
	}
	return ch.cfg.N
}

// simulate runs one testbench with the given switching-pin drives (all other
// pins held at the non-controlling value) and measures the output response.
// outRising selects the measured output direction; extraLoad adds farads;
// latest is the latest input arrival (for windowing).
func (ch *characterizer) simulate(drives map[int]cells.Drive, outRising bool, extraLoad, latest, maxTT float64) (measurement, error) {
	n := ch.numInputs()
	all := make([]cells.Drive, n)
	earliest := math.Inf(1)
	for i := 0; i < n; i++ {
		if d, ok := drives[i]; ok {
			all[i] = d
			if d.Arrival < earliest {
				earliest = d.Arrival
			}
		} else {
			all[i] = ch.steadyNonCtrl()
		}
	}
	cfg := ch.cfg
	cfg.ExtraLoadCap += extraLoad
	tr, err := ch.runSim(cfg, all, outRising, latest, maxTT)
	if err != nil {
		return measurement{}, err
	}
	return measurement{delay: tr.Arrival - earliest, trans: tr.TransTime}, nil
}

// measureSingleCtrl measures (and memoises) the single-input to-controlling
// response for a grid transition time.
func (ch *characterizer) measureSingleCtrl(pin, gridIdx int) (measurement, error) {
	return ch.singleCtrl.get([2]int{pin, gridIdx}, func() (measurement, error) {
		tt := ch.opts.Grid[gridIdx]
		return ch.simulate(
			map[int]cells.Drive{pin: ch.ctrlDrive(stimulusArrival, tt)},
			ch.cfg.OutputRisesOnControlling(), 0, stimulusArrival, tt)
	})
}

// measurePair measures (and memoises) the two-input simultaneous response:
// pin x switching at the reference arrival, pin y at skew later (skew may be
// negative).
func (ch *characterizer) measurePair(x, y, txIdx, tyIdx int, skew float64) (measurement, error) {
	// Canonical key: order by pin index.
	dps := int(math.Round(skew / 1e-12))
	key := pairKey{x: x, y: y, tx: txIdx, ty: tyIdx, dps: dps}
	if x > y {
		key = pairKey{x: y, y: x, tx: tyIdx, ty: txIdx, dps: -dps}
	}
	return ch.memoPair.get(key, func() (measurement, error) { return ch.simulatePair(key) })
}

// simulatePair simulates the two-input to-controlling response of a
// canonical pair key.
func (ch *characterizer) simulatePair(key pairKey) (measurement, error) {
	// Compute arrivals from the canonical key so both pin orders hit the
	// same simulation.
	axc := stimulusArrival
	ayc := stimulusArrival + float64(key.dps)*1e-12
	// Both ramps must start after t = 0 with margin, or the DC operating
	// point would begin mid-transition. A ramp's 0%-100% sweep spans
	// T/0.8 centred on its arrival.
	txc := ch.opts.Grid[key.tx]
	tyc := ch.opts.Grid[key.ty]
	minStart := math.Min(axc-txc/0.8/2, ayc-tyc/0.8/2)
	if minStart < 0.1e-9 {
		shift := 0.1e-9 - minStart
		axc += shift
		ayc += shift
	}
	drives := map[int]cells.Drive{
		key.x: ch.ctrlDrive(axc, ch.opts.Grid[key.tx]),
		key.y: ch.ctrlDrive(ayc, ch.opts.Grid[key.ty]),
	}
	latest := math.Max(axc, ayc)
	maxTT := math.Max(ch.opts.Grid[key.tx], ch.opts.Grid[key.ty])
	return ch.simulate(drives, ch.cfg.OutputRisesOnControlling(), 0, latest, maxTT)
}

// fitPin characterises one pin's single-transition timing functions.
//
// A grid sample whose simulation fails recoverably even after the retry
// ladder is dropped from the fit and recorded as degraded; at least three
// samples must survive for the quadratic fit to stay determined.
func (ch *characterizer) fitPin(pin int, ctrl bool) (core.PinTiming, error) {
	grid := ch.opts.Grid
	var tsNs, delaysNs, transNs []float64
	outRising := ch.cfg.OutputRisesOnControlling()
	if !ctrl {
		outRising = !outRising
	}
	dir := "nc"
	if ctrl {
		dir = "ctrl"
	}
	surface := fmt.Sprintf("pin%d/%s", pin, dir)
	ch.notePoints(len(grid) + 1) // grid samples + the load-slope point

	for gi, tt := range grid {
		var m measurement
		var err error
		if ctrl {
			m, err = ch.measureSingleCtrl(pin, gi)
		} else {
			m, err = ch.simulate(
				map[int]cells.Drive{pin: ch.nonCtrlDrive(stimulusArrival, tt)},
				outRising, 0, stimulusArrival, tt)
		}
		if err != nil {
			if !spice.IsRecoverable(err) {
				return core.PinTiming{}, err
			}
			ch.noteDegraded(surface, tt, 0, err)
			continue
		}
		tsNs = append(tsNs, tt/1e-9)
		delaysNs = append(delaysNs, m.delay/1e-9)
		transNs = append(transNs, m.trans/1e-9)
	}
	if len(tsNs) < 3 {
		return core.PinTiming{}, fmt.Errorf("only %d of %d grid samples converged, quadratic fit needs 3", len(tsNs), len(grid))
	}

	kd, kdSt, err := fit.FitQuad(tsNs, delaysNs)
	if err != nil {
		return core.PinTiming{}, fmt.Errorf("delay fit: %w", err)
	}
	ch.record(fmt.Sprintf("pin%d/%s/delay", pin, dir), kdSt)
	kt, ktSt, err := fit.FitQuad(tsNs, transNs)
	if err != nil {
		return core.PinTiming{}, fmt.Errorf("transition fit: %w", err)
	}
	ch.record(fmt.Sprintf("pin%d/%s/trans", pin, dir), ktSt)

	pt := core.PinTiming{
		Delay: core.Quad{K: [3]float64{kd[0], kd[1], kd[2]}},
		Trans: core.Quad{K: [3]float64{kt[0], kt[1], kt[2]}},
	}

	// Load slope (Section 3.6: delay increases linearly with load):
	// remeasure the middle grid point with one extra inverter-load of
	// capacitance.
	midIdx := len(grid) / 2
	tt := grid[midIdx]
	extra := ch.opts.Tech.InverterInputCap()
	var base measurement
	if ctrl {
		base, err = ch.measureSingleCtrl(pin, midIdx)
	} else {
		base, err = ch.simulate(
			map[int]cells.Drive{pin: ch.nonCtrlDrive(stimulusArrival, tt)},
			outRising, 0, stimulusArrival, tt)
	}
	if err == nil {
		var drive cells.Drive
		if ctrl {
			drive = ch.ctrlDrive(stimulusArrival, tt)
		} else {
			drive = ch.nonCtrlDrive(stimulusArrival, tt)
		}
		var loaded measurement
		loaded, err = ch.simulate(map[int]cells.Drive{pin: drive}, outRising, extra, stimulusArrival, tt)
		if err == nil {
			pt.DelayLoadSlope = (loaded.delay - base.delay) / extra
			pt.TransLoadSlope = (loaded.trans - base.trans) / extra
			return pt, nil
		}
	}
	if !spice.IsRecoverable(err) {
		return core.PinTiming{}, err
	}
	// Degrade to a zero load slope (the reference-load delay stays exact);
	// conservative only for loads above the reference.
	ch.noteDegraded(surface+"/load", tt, 0, err)
	return pt, nil
}

// fitPair characterises the simultaneous-switching surfaces of ordered pair
// (x, y): D0/T0 at zero skew, the SR threshold by bisection, and SKmin from
// the sampled positive arm.
func (ch *characterizer) fitPair(x, y int, model *core.CellModel) (core.PairEntry, error) {
	grid := ch.opts.Grid

	// Each (Tx,Ty) grid cell needs an independent bisection of the skew
	// threshold — the deepest fan-out of the characterisation, run on the
	// engine pool. Rows land by index, so the fitted surfaces are
	// byte-identical to a serial sweep.
	pairKeyName := fmt.Sprintf("pair%d:%d", x, y)
	type pairRow struct {
		d0, t0, sx, skmin float64
	}
	rows := make([]pairRow, len(grid)*len(grid))
	ch.notePoints(len(rows))
	// failed marks grid cells whose simulations never converged; they are
	// interpolated from neighbours after the fan-out. rowErrs keeps the
	// failure causes for the health record.
	failed := make([]bool, len(rows))
	rowErrs := make([]error, len(rows))
	err := engine.Run(ch.ctx, ch.opts.Jobs, len(rows), func(_ context.Context, i int) error {
		txIdx, tyIdx := i/len(grid), i%len(grid)
		row, err := func() (pairRow, error) {
			dx, err := ch.measureSingleCtrl(x, txIdx)
			if err != nil {
				return pairRow{}, err
			}

			m0, err := ch.measurePair(x, y, txIdx, tyIdx, 0)
			if err != nil {
				return pairRow{}, err
			}

			sx, samples, err := ch.findSkewThreshold(x, y, txIdx, tyIdx, dx.delay)
			if err != nil {
				return pairRow{}, err
			}

			// Minimal output transition time over the sampled positive
			// arm (including zero skew).
			samples = append(samples, sample{skew: 0, trans: m0.trans})
			skMin, tMin := argminTrans(samples)
			return pairRow{d0: m0.delay, t0: tMin, sx: sx, skmin: skMin}, nil
		}()
		if err != nil {
			if !spice.IsRecoverable(err) {
				return err
			}
			failed[i] = true
			rowErrs[i] = err
			return nil
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return core.PairEntry{}, err
	}

	var txsNs, tysNs []float64
	var d0Ns, t0Ns, sxNs, skminNs []float64
	for i, row := range rows {
		txIdx, tyIdx := i/len(grid), i%len(grid)
		txsNs = append(txsNs, grid[txIdx]/1e-9)
		tysNs = append(tysNs, grid[tyIdx]/1e-9)
		d0Ns = append(d0Ns, row.d0/1e-9)
		t0Ns = append(t0Ns, row.t0/1e-9)
		sxNs = append(sxNs, row.sx/1e-9)
		skminNs = append(skminNs, row.skmin/1e-9)
	}
	if err := interpolateGrid(len(grid), failed, d0Ns, t0Ns, sxNs, skminNs); err != nil {
		return core.PairEntry{}, fmt.Errorf("%s: %w", pairKeyName, err)
	}
	for i, f := range failed {
		if f {
			ch.noteDegraded(pairKeyName, grid[i/len(grid)], grid[i%len(grid)], rowErrs[i])
		}
	}

	fitCross := func(key string, ys []float64) (core.Cross, error) {
		if ch.opts.PaperExactD0 {
			k, st, err := fit.FitCrossPaper(txsNs, tysNs, ys)
			if err != nil {
				return core.Cross{}, err
			}
			ch.record(key, st)
			return core.Cross{Kxy: k[0], Kx: k[1], Ky: k[2], K1: k[3]}, nil
		}
		k, st, err := fit.FitCross(txsNs, tysNs, ys)
		if err != nil {
			return core.Cross{}, err
		}
		ch.record(key, st)
		return core.Cross{
			Kxy: k[0], Kx: k[1], Ky: k[2], K1: k[3],
			Kxx: k[4], Kyy: k[5], Kxxy: k[6], Kxyy: k[7],
		}, nil
	}

	d0, err := fitCross(pairKeyName+"/D0", d0Ns)
	if err != nil {
		return core.PairEntry{}, fmt.Errorf("D0 fit: %w", err)
	}
	t0, err := fitCross(pairKeyName+"/T0", t0Ns)
	if err != nil {
		return core.PairEntry{}, fmt.Errorf("T0 fit: %w", err)
	}
	ksx, sxSt, err := fit.FitQuad2(txsNs, tysNs, sxNs)
	if err != nil {
		return core.PairEntry{}, fmt.Errorf("SR fit: %w", err)
	}
	ch.record(pairKeyName+"/SR", sxSt)
	kskm, skmSt, err := fit.FitQuad2(txsNs, tysNs, skminNs)
	if err != nil {
		return core.PairEntry{}, fmt.Errorf("SKmin fit: %w", err)
	}
	ch.record(pairKeyName+"/SKmin", skmSt)

	return core.PairEntry{
		X: x,
		Y: y,
		Timing: core.PairTiming{
			D0:    d0,
			T0:    t0,
			SX:    core.Quad2{Kxx: ksx[0], Kyy: ksx[1], Kxy: ksx[2], Kx: ksx[3], Ky: ksx[4], K1: ksx[5]},
			SKmin: core.Quad2{Kxx: kskm[0], Kyy: kskm[1], Kxy: kskm[2], Kx: kskm[3], Ky: kskm[4], K1: kskm[5]},
		},
	}, nil
}

type sample struct {
	skew  float64
	trans float64
}

// argminTrans returns the skew minimising the sampled output transition
// time, with parabolic refinement between the neighbouring samples.
func argminTrans(samples []sample) (skew, trans float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	// Sort-free scan for the minimum.
	best := 0
	for i := range samples {
		if samples[i].trans < samples[best].trans {
			best = i
		}
	}
	return samples[best].skew, samples[best].trans
}

// findSkewThreshold locates SR(Tx,Ty): the smallest skew δ = Ay−Ax at which
// the lagging transition on y no longer reduces the gate delay below the
// single-input delay dxSingle. It returns the threshold and the (skew,
// transition-time) samples collected along the way.
func (ch *characterizer) findSkewThreshold(x, y, txIdx, tyIdx int, dxSingle float64) (float64, []sample, error) {
	eps := math.Max(0.02*math.Abs(dxSingle), 2e-12)
	var samples []sample

	probe := func(skew float64) (bool, error) {
		m, err := ch.measurePair(x, y, txIdx, tyIdx, skew)
		if err != nil {
			return false, err
		}
		samples = append(samples, sample{skew: skew, trans: m.trans})
		// Delay is measured from the earliest arrival = Ax for skew>=0.
		return m.delay >= dxSingle-eps, nil
	}

	// Exponentially grow the bracket until the lagging input no longer
	// helps.
	hi := 0.25e-9
	const hiLimit = 16e-9
	for {
		done, err := probe(hi)
		if err != nil {
			return 0, nil, err
		}
		if done {
			break
		}
		hi *= 2
		if hi > hiLimit {
			// The influence never dies out within a sane window;
			// record the cap.
			return hiLimit, samples, nil
		}
	}

	lo := 0.0
	for hi-lo > ch.opts.SkewTol {
		mid := (lo + hi) / 2
		done, err := probe(mid)
		if err != nil {
			return 0, nil, err
		}
		if done {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, samples, nil
}

// fitMultiFactors characterises the k-way simultaneous speed-up factors
// (extended model) for k = 3..N at the middle grid transition time.
func (ch *characterizer) fitMultiFactors(model *core.CellModel) error {
	grid := ch.opts.Grid
	midIdx := len(grid) / 2
	tt := grid[midIdx]

	for k := 3; k <= model.N; k++ {
		drives := make(map[int]cells.Drive, k)
		var events []core.InputEvent
		for pin := 0; pin < k; pin++ {
			drives[pin] = ch.ctrlDrive(stimulusArrival, tt)
			events = append(events, core.InputEvent{Pin: pin, Arrival: stimulusArrival, Trans: tt})
		}
		ch.notePoints(1)
		meas, err := ch.simulate(drives, ch.cfg.OutputRisesOnControlling(), 0, stimulusArrival, tt)
		if err != nil {
			if !spice.IsRecoverable(err) {
				return err
			}
			// Conservative fallback: carry the previous factor forward
			// (or no speed-up at all), preserving the non-increasing
			// sequence the STA bound relies on.
			factor := 1.0
			if ln := len(model.MultiFactor); ln > 0 {
				factor = model.MultiFactor[ln-1]
			}
			ch.noteDegraded(fmt.Sprintf("multi%d", k), tt, 0, err)
			model.MultiFactor = append(model.MultiFactor, factor)
			continue
		}
		// Pairwise model prediction without multi factors.
		saved := model.MultiFactor
		model.MultiFactor = nil
		pred, err := model.CtrlResponse(events, 0)
		model.MultiFactor = saved
		if err != nil {
			return err
		}
		predDelay := pred.Arrival - stimulusArrival
		factor := 1.0
		if predDelay > 0 {
			factor = meas.delay / predDelay
		}
		if factor > 1 {
			factor = 1
		}
		if factor < 0.1 {
			factor = 0.1
		}
		// More parallel charge paths can only speed the gate up:
		// keep the factor sequence non-increasing in k so the STA
		// lower bound at k = n covers every smaller k.
		if ln := len(model.MultiFactor); ln > 0 && factor > model.MultiFactor[ln-1] {
			factor = model.MultiFactor[ln-1]
		}
		model.MultiFactor = append(model.MultiFactor, factor)
	}
	return nil
}
