// Package tgraph is the persistent timing graph behind the incremental
// delta-STA engine: a levelized circuit with per-line timing windows that
// stay alive across calls, plus an edit API whose cost is proportional to
// the edited cone instead of the whole circuit.
//
// A Graph is built once (full window convergence, optionally level-parallel
// on the engine pool) and then mutated through small edits:
//
//   - SetCube / SetImpliedCube assign or relax the nine-valued state of
//     lines (the ITR workload: one implication step per ATPG decision);
//   - SetPI changes the stimulus of one primary input;
//   - SwapGate exchanges a gate's cell for its same-arity dual
//     (NAND↔NOR, INV↔BUF — the ECO workload).
//
// Every edit marks only the affected lines' output cones dirty and
// re-converges windows level by level from the dirty frontier, stopping as
// soon as no dirty gate remains — a gate is re-queued only when one of its
// inputs (or its own implied output value) actually changed, so convergence
// naturally stops at the level where windows stop moving.
//
// The load-bearing invariant (asserted by conformance check "incremental")
// is byte-identical equivalence: after any edit sequence, every line's
// LineInfo equals — bit for bit — what a from-scratch sta.Analyze/itr.Refine
// of the current state computes. It holds because per-gate windows are a
// pure function of the gate's inputs and implied output value
// (twindow.PropagateGate), evaluated by exactly the same code on both paths,
// and dirty propagation re-evaluates a gate whenever any of those arguments
// changed (induction over logic levels).
//
// Failure atomicity: an edit that fails (inconsistent cube, cancelled
// context, injected fault mid-convergence) rolls its state edits back and
// poisons the graph; the next operation — queries included, via Heal —
// re-converges everything from the retained pre-edit state, so a crashed
// delta can never leave partially-propagated windows observable.
package tgraph

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/spice"
	"sstiming/internal/twindow"
)

// ErrInconsistent reports a cube edit that is logically inconsistent with
// the circuit; the graph is left unchanged.
var ErrInconsistent = errors.New("tgraph: cube is logically inconsistent")

// Options configures a Graph.
type Options struct {
	// Lib is the characterised cell library (required).
	Lib *core.Library
	// Mode selects the delay model.
	Mode twindow.Mode
	// PI is the stimulus applied to every primary input; the zero value
	// selects twindow.DefaultPITiming. SetPI overrides per input later.
	PI twindow.PITiming
	// PerPI optionally overrides the stimulus for specific inputs.
	PerPI map[string]twindow.PITiming
	// NCExtension enables the Λ-shape to-non-controlling extension.
	NCExtension bool
	// Ctx, when non-nil, cancels the initial full convergence between
	// logic levels; a cancelled build returns an error wrapping
	// spice.ErrCancelled and no graph.
	Ctx context.Context
	// Jobs bounds the engine worker pool used for the initial full
	// convergence (one logic level fans out at a time); zero selects
	// GOMAXPROCS (engine.Workers) and one runs serially. Windows are
	// independent of the worker count. Incremental re-convergence is
	// always serial: edited cones are small by design.
	Jobs int
	// Metrics, when non-nil, counts propagated gates, arcs and edits.
	Metrics *engine.Metrics
	// LevelHook, when non-nil, runs before each level of every
	// convergence pass; a non-nil error aborts the pass (fault injection
	// for chaos tests — see internal/faultinject).
	LevelHook func(level int) error
}

// Graph is a persistent timing graph. It is not safe for concurrent use;
// callers serialize access (the service layer holds a per-session lock, and
// each ATPG fault worker owns a private Graph).
//
// Per-line state is dense: lines, value and changed are indexed by the
// circuit's net ids (netlist.Circuit.NetID — primary inputs first, then
// gate i's output at len(PIs)+i), and per-gate state by gate index, so
// convergence never hashes a net name.
type Graph struct {
	c    *netlist.Circuit
	opts Options

	cells     []*core.CellModel // per gate
	extraLoad []float64         // per gate
	levels    [][]int           // gate indices per logic level
	gateLevel []int

	raw     nineval.Cube    // caller-supplied assignments
	implied nineval.Cube    // implication fixpoint of raw
	value   []nineval.Value // per net id: implied.Get(net)
	perPI   map[string]twindow.PITiming

	lines []twindow.LineInfo // per net id

	dirty      []bool  // per gate
	dirtyAt    [][]int // per level; capacity = the level's gate count
	dirtyCount int
	outs       []twindow.LineInfo // one level's results, reused

	// poisoned marks a graph whose last edit failed mid-convergence:
	// window state may be partially propagated. Heal (run automatically
	// by the next edit) re-converges everything from the retained cube.
	poisoned bool

	// changed marks the nets whose LineInfo changed during the last
	// successful edit; changedNets lists them.
	changed     []bool // per net id
	changedNets []int32
}

// New builds a Graph over the circuit and fully converges its windows under
// the empty cube (every line unspecified — pure STA).
func New(c *netlist.Circuit, opts Options) (*Graph, error) {
	return NewWithCube(c, nineval.Cube{}, opts)
}

// newSkeleton builds the structural half of a Graph — levelization, cell
// binding, fan-out loads — with no cube and no timing state. NewWithCube
// seeds and converges it; RestoreSnapshot installs checkpointed lines
// verbatim instead.
func newSkeleton(c *netlist.Circuit, opts Options) (*Graph, error) {
	if opts.Lib == nil {
		return nil, fmt.Errorf("tgraph: Options.Lib is required")
	}
	if err := c.EnsureBuilt(); err != nil {
		return nil, fmt.Errorf("tgraph: %w", err)
	}
	if opts.PI == (twindow.PITiming{}) {
		opts.PI = twindow.DefaultPITiming()
	}
	nGates, nNets := len(c.Gates), c.NumNets()
	g := &Graph{
		c:           c,
		opts:        opts,
		cells:       make([]*core.CellModel, nGates),
		extraLoad:   make([]float64, nGates),
		gateLevel:   make([]int, nGates),
		perPI:       make(map[string]twindow.PITiming, len(opts.PerPI)),
		value:       make([]nineval.Value, nNets),
		lines:       make([]twindow.LineInfo, nNets),
		dirty:       make([]bool, nGates),
		changed:     make([]bool, nNets),
		changedNets: make([]int32, 0, nNets),
	}
	for name, p := range opts.PerPI {
		g.perPI[name] = p
	}

	// Levelize into one backing array: count each level, carve, fill in
	// topological order. dirtyAt gets the same shape, since a gate is
	// queued at most once per pass.
	var width []int
	for gi := range c.Gates {
		lvl := c.Level(gi)
		g.gateLevel[gi] = lvl
		for len(width) <= lvl {
			width = append(width, 0)
		}
		width[lvl]++
	}
	g.levels = make([][]int, len(width))
	g.dirtyAt = make([][]int, len(width))
	backing := make([]int, 2*nGates)
	maxWidth := 0
	for lvl, n := range width {
		g.levels[lvl], backing = backing[:0:n], backing[n:]
		g.dirtyAt[lvl], backing = backing[:0:n], backing[n:]
		maxWidth = max(maxWidth, n)
	}
	for _, gi := range c.TopoOrder() {
		lvl := g.gateLevel[gi]
		g.levels[lvl] = append(g.levels[lvl], gi)
	}
	g.outs = make([]twindow.LineInfo, maxWidth)

	for i := range c.Gates {
		gate := &c.Gates[i]
		cell, ok := opts.Lib.Cell(gate.CellName())
		if !ok {
			return nil, fmt.Errorf("tgraph: no library cell %q for gate %q", gate.CellName(), gate.Output)
		}
		g.cells[i] = cell
		g.extraLoad[i] = float64(c.FanoutCountID(c.GateOutputID(i))-1) * cell.RefLoad
	}
	return g, nil
}

// setImplied installs the implied cube and its dense mirror.
func (g *Graph) setImplied(implied nineval.Cube) {
	g.implied = implied
	for id := range g.value {
		g.value[id] = nineval.VXX
	}
	for net, v := range implied {
		if id, ok := g.c.NetID(net); ok {
			g.value[id] = v
		}
	}
}

// seedPIs installs every primary input's line from its stimulus and
// implied value.
func (g *Graph) seedPIs() {
	for id, pi := range g.c.PIs {
		g.lines[id] = twindow.PILine(g.value[id], g.piTiming(pi))
	}
}

// NewWithCube builds a Graph and fully converges its windows under the
// given cube (one implication + one full window pass — the cost of a single
// from-scratch itr.Refine).
func NewWithCube(c *netlist.Circuit, cube nineval.Cube, opts Options) (*Graph, error) {
	g, err := newSkeleton(c, opts)
	if err != nil {
		return nil, err
	}
	opts = g.opts

	implied, ok := nineval.Imply(c, cube)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrInconsistent, cube.String())
	}
	g.raw = cube.Clone()
	g.setImplied(implied)

	// Seed the PI lines and mark every gate dirty for the initial full
	// convergence.
	g.seedPIs()
	g.markAllDirty()
	if err := g.converge(opts.Ctx, opts.Jobs); err != nil {
		return nil, err
	}
	g.resetChanged()
	return g, nil
}

// Circuit returns the underlying circuit. SwapGate mutates it; callers
// sharing one circuit across graphs must not use SwapGate.
func (g *Graph) Circuit() *netlist.Circuit { return g.c }

// Mode returns the delay model of the graph.
func (g *Graph) Mode() twindow.Mode { return g.opts.Mode }

// Lib returns the cell library the graph was built against.
func (g *Graph) Lib() *core.Library { return g.opts.Lib }

// piTiming returns the effective stimulus of one primary input.
func (g *Graph) piTiming(name string) twindow.PITiming {
	if p, ok := g.perPI[name]; ok {
		return p
	}
	return g.opts.PI
}

// markDirty queues a gate for re-convergence.
func (g *Graph) markDirty(gi int) {
	if g.dirty[gi] {
		return
	}
	g.dirty[gi] = true
	lvl := g.gateLevel[gi]
	g.dirtyAt[lvl] = append(g.dirtyAt[lvl], gi)
	g.dirtyCount++
}

// markAllDirty queues every gate, for a full convergence pass.
func (g *Graph) markAllDirty() {
	for _, lvlGates := range g.levels {
		for _, gi := range lvlGates {
			g.markDirty(gi)
		}
	}
}

// touchNet propagates a changed line: its consumers must re-evaluate.
func (g *Graph) touchNet(id int) {
	for _, gi := range g.c.FanoutIDs(id) {
		g.markDirty(int(gi))
	}
}

// markChanged records that net id's LineInfo changed in this edit.
func (g *Graph) markChanged(id int) {
	if !g.changed[id] {
		g.changed[id] = true
		g.changedNets = append(g.changedNets, int32(id))
	}
}

// resetChanged empties the changed-net accumulator.
func (g *Graph) resetChanged() {
	for _, id := range g.changedNets {
		g.changed[id] = false
	}
	g.changedNets = g.changedNets[:0]
}

// setLine installs a line state, and when it differs from the current one
// records the change and queues the net's consumers.
func (g *Graph) setLine(id int, li twindow.LineInfo) {
	if g.lines[id] == li {
		return
	}
	g.lines[id] = li
	g.markChanged(id)
	g.touchNet(id)
}

// recomputeGate evaluates one gate's output LineInfo from current state.
// The fan-in pointer list lives on the caller's stack up to
// maxStackPins inputs.
func (g *Graph) recomputeGate(gi int) (twindow.LineInfo, error) {
	gate := &g.c.Gates[gi]
	ids := g.c.GateInputIDs(gi)
	var buf [maxStackPins]*twindow.LineInfo
	ins := buf[:0]
	for _, id := range ids {
		ins = append(ins, &g.lines[id])
	}
	g.opts.Metrics.Add(engine.STAGates, 1)
	g.opts.Metrics.Add(engine.STAArcs, 2*int64(len(ids)))
	out, err := twindow.PropagateGate(g.cells[gi], gate.Kind, ins, g.value[g.c.GateOutputID(gi)],
		g.extraLoad[gi], g.opts.Mode, g.opts.NCExtension)
	if err != nil {
		return twindow.LineInfo{}, fmt.Errorf("tgraph: gate %q: %w", gate.Output, err)
	}
	return out, nil
}

// maxStackPins bounds the fan-in whose input list recomputeGate keeps on
// the stack.
const maxStackPins = 8

// levelChunk is the number of gates one pulled fan-out job evaluates:
// large enough to amortise the shared counter, small enough to balance a
// level across workers.
const levelChunk = 16

// minFanOut is the narrowest level converge fans out. A gate costs about a
// microsecond, so a narrower level's fan-out (waking a worker, then the
// level barrier) would cost about what it saves, and nothing at all when
// the host gives the process less than a second CPU.
const minFanOut = 4 * levelChunk

// converge drains the dirty frontier level by level. Gates within one level
// are independent (they read only earlier levels), so the initial full pass
// may fan a level out on the engine pool; results are merged in slice order,
// making windows independent of the worker count. Convergence stops as soon
// as the frontier is empty: a gate is re-queued only when one of its inputs
// or its implied output value changed, so an edit whose effect dies out
// after k levels costs exactly those k frontier levels.
func (g *Graph) converge(ctx context.Context, jobs int) error {
	for lvl := 0; lvl < len(g.dirtyAt) && g.dirtyCount > 0; lvl++ {
		work := g.dirtyAt[lvl]
		if len(work) == 0 {
			continue
		}
		// Consumers sit on later levels, so re-queueing during the merge
		// below never appends to this level's list.
		g.dirtyAt[lvl] = work[:0]
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("tgraph: %w", spice.Cancelled(err))
			}
		}
		if g.opts.LevelHook != nil {
			if err := g.opts.LevelHook(lvl); err != nil {
				return fmt.Errorf("tgraph: level %d: %w", lvl, err)
			}
		}
		outs := g.outs[:len(work)]
		if engine.Workers(jobs) == 1 || len(work) < minFanOut {
			for i, gi := range work {
				var err error
				if outs[i], err = g.recomputeGate(gi); err != nil {
					return err
				}
			}
		} else {
			// The level fans out in contiguous chunks that the pool's
			// workers pull in turn; each gate writes only its own slot.
			chunks := (len(work) + levelChunk - 1) / levelChunk
			err := engine.Run(ctx, jobs, chunks, func(_ context.Context, k int) error {
				for i := k * levelChunk; i < min((k+1)*levelChunk, len(work)); i++ {
					var err error
					if outs[i], err = g.recomputeGate(work[i]); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return fmt.Errorf("tgraph: %w", spice.Cancelled(err))
				}
				return err
			}
		}
		for i, gi := range work {
			g.dirty[gi] = false
			g.dirtyCount--
			// An unchanged output ends the cone here.
			g.setLine(g.c.GateOutputID(gi), outs[i])
		}
	}
	// A deadline that fired after the last level still voids the pass:
	// callers must never observe windows computed past their cancellation.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("tgraph: %w", spice.Cancelled(err))
		}
	}
	return nil
}

// poison rolls an edit back to the retained pre-edit cube/stimulus and marks
// every window suspect; the next operation re-converges from scratch.
func (g *Graph) poison() {
	g.poisoned = true
	clear(g.dirty)
	for lvl := range g.dirtyAt {
		g.dirtyAt[lvl] = g.dirtyAt[lvl][:0]
	}
	g.dirtyCount = 0
}

// Poisoned reports whether the last edit failed mid-convergence and the
// graph is pending a Heal.
func (g *Graph) Poisoned() bool { return g.poisoned }

// Heal re-converges a poisoned graph from its retained state so that every
// line again equals a from-scratch recomputation. It is a no-op on a
// healthy graph. Edits call it implicitly; queries on a poisoned graph
// return ErrPoisoned-free data only after a successful Heal.
func (g *Graph) Heal(ctx context.Context) error {
	if !g.poisoned {
		return nil
	}
	g.seedPIs()
	g.markAllDirty()
	if err := g.converge(ctx, 1); err != nil {
		g.poison()
		return err
	}
	g.poisoned = false
	return nil
}

// beginEdit heals a poisoned graph and resets the changed-net accumulator.
func (g *Graph) beginEdit(ctx context.Context) error {
	if err := g.Heal(ctx); err != nil {
		return err
	}
	g.resetChanged()
	g.opts.Metrics.Add(engine.TGraphEdits, 1)
	return nil
}

// applyImplied installs a new (raw, implied) cube pair: every line whose
// implied value changed is updated (primary inputs) or has its driver and
// consumers marked dirty, then the frontier re-converges. On failure the
// previous cubes are restored and the graph is poisoned.
func (g *Graph) applyImplied(ctx context.Context, raw, implied nineval.Cube) error {
	prevRaw, prevImplied := g.raw, g.implied
	g.raw, g.implied = raw, implied

	// Diff over the union of keys: values absent from a cube are xx. Names
	// outside the circuit carry no line.
	diffNet := func(net string) {
		v := implied.Get(net)
		if prevImplied.Get(net) == v {
			return
		}
		id, ok := g.c.NetID(net)
		if !ok {
			return
		}
		g.value[id] = v
		if gi, ok := g.c.NetDriver(id); ok {
			// The driving gate re-derives the line's full LineInfo
			// (value, states and windows) during re-convergence.
			g.markDirty(gi)
			return
		}
		// Driverless lines are primary inputs: refresh in place.
		g.setLine(id, twindow.PILine(v, g.piTiming(net)))
	}
	for net := range prevImplied {
		diffNet(net)
	}
	for net := range implied {
		if _, done := prevImplied[net]; !done {
			diffNet(net)
		}
	}

	if err := g.converge(ctx, 1); err != nil {
		g.raw = prevRaw
		g.setImplied(prevImplied)
		g.poison()
		return err
	}
	return nil
}

// SetCube replaces the graph's assignment cube: raw is implied from scratch
// and the difference against the current state re-converges incrementally.
// Relaxing a line is expressed by omitting it from the new cube (or mapping
// it to xx). A logically inconsistent cube returns ErrInconsistent and
// leaves the graph untouched.
func (g *Graph) SetCube(ctx context.Context, raw nineval.Cube) error {
	if err := g.beginEdit(ctx); err != nil {
		return err
	}
	implied, ok := nineval.Imply(g.c, raw)
	if !ok {
		return fmt.Errorf("%w: %s", ErrInconsistent, raw.String())
	}
	return g.applyImplied(ctx, raw.Clone(), implied)
}

// SetImpliedCube is SetCube for a cube the caller has already run through
// nineval.Imply (the ATPG search maintains implied cubes at every node).
// Passing a non-fixpoint cube voids the byte-identical guarantee.
func (g *Graph) SetImpliedCube(ctx context.Context, implied nineval.Cube) error {
	if err := g.beginEdit(ctx); err != nil {
		return err
	}
	return g.applyImplied(ctx, implied, implied)
}

// SetPI changes the stimulus of one primary input and re-converges its
// fan-out cone.
func (g *Graph) SetPI(ctx context.Context, name string, p twindow.PITiming) error {
	if !g.c.IsPI(name) {
		return fmt.Errorf("tgraph: %q is not a primary input", name)
	}
	if err := g.beginEdit(ctx); err != nil {
		return err
	}
	prev, hadPrev := g.perPI[name]
	g.perPI[name] = p
	id, _ := g.c.NetID(name)
	g.setLine(id, twindow.PILine(g.value[id], p))
	if err := g.converge(ctx, 1); err != nil {
		if hadPrev {
			g.perPI[name] = prev
		} else {
			delete(g.perPI, name)
		}
		g.poison()
		return err
	}
	return nil
}

// SwapGate exchanges the gate driving net for its same-arity dual
// (NAND↔NOR, INV↔BUF), re-implies the raw cube under the new logic and
// re-converges the gate's cone. The underlying circuit is mutated in place
// (topology, fan-out and levels are unchanged by construction). An
// inconsistency under the new logic reverts the swap.
func (g *Graph) SwapGate(ctx context.Context, net string, kind netlist.GateKind) error {
	gi, ok := g.c.Driver(net)
	if !ok {
		return fmt.Errorf("tgraph: net %q has no driving gate", net)
	}
	gate := &g.c.Gates[gi]
	if gate.Kind == kind {
		return nil
	}
	if err := g.beginEdit(ctx); err != nil {
		return err
	}
	prevKind, err := g.c.SwapGateKind(net, kind)
	if err != nil {
		return fmt.Errorf("tgraph: %w", err)
	}
	cell, ok := g.opts.Lib.Cell(gate.CellName())
	if !ok {
		gate.Kind = prevKind
		return fmt.Errorf("tgraph: no library cell %q for swapped gate %q", gate.CellName(), net)
	}
	implied, okImply := nineval.Imply(g.c, g.raw)
	if !okImply {
		gate.Kind = prevKind
		return fmt.Errorf("%w under swapped gate %q: %s", ErrInconsistent, net, g.raw.String())
	}
	prevCell, prevLoad := g.cells[gi], g.extraLoad[gi]
	g.cells[gi] = cell
	g.extraLoad[gi] = float64(g.c.FanoutCountID(g.c.GateOutputID(gi))-1) * cell.RefLoad
	g.markDirty(gi)
	if err := g.applyImplied(ctx, g.raw, implied); err != nil {
		gate.Kind = prevKind
		g.cells[gi], g.extraLoad[gi] = prevCell, prevLoad
		return err
	}
	return nil
}

// NumChanged returns the number of lines whose LineInfo changed during the
// last successful edit (the re-converged cone size), without allocating.
func (g *Graph) NumChanged() int { return len(g.changedNets) }

// Changed returns the nets whose LineInfo changed during the last
// successful edit, sorted.
func (g *Graph) Changed() []string {
	out := make([]string, len(g.changedNets))
	for i, id := range g.changedNets {
		out[i] = g.c.NetName(int(id))
	}
	sort.Strings(out)
	return out
}

// Line returns a copy of the net's timing state.
func (g *Graph) Line(net string) (twindow.LineInfo, bool) {
	id, ok := g.c.NetID(net)
	if !ok {
		return twindow.LineInfo{}, false
	}
	return g.lines[id], true
}

// LineAt returns the timing state of net id (see netlist.Circuit.NetID),
// without a name lookup.
func (g *Graph) LineAt(id int) *twindow.LineInfo { return &g.lines[id] }

// Window returns the directional window of a net and whether it is defined
// (the state is not SNo).
func (g *Graph) Window(net string, rising bool) (twindow.Window, bool) {
	id, ok := g.c.NetID(net)
	if !ok {
		return twindow.Window{}, false
	}
	li := &g.lines[id]
	if rising {
		if !li.HasRise() {
			return twindow.Window{}, false
		}
		return li.Rise, true
	}
	if !li.HasFall() {
		return twindow.Window{}, false
	}
	return li.Fall, true
}

// Lines visits every line's timing state, in net id order (primary inputs
// in declaration order, then gate outputs in gate order).
func (g *Graph) Lines(visit func(net string, li twindow.LineInfo)) {
	for id := range g.lines {
		visit(g.c.NetName(id), g.lines[id])
	}
}

// NumLines returns the number of lines carrying timing state.
func (g *Graph) NumLines() int { return len(g.lines) }

// ImpliedCube returns the current implication fixpoint (shared; do not
// mutate).
func (g *Graph) ImpliedCube() nineval.Cube { return g.implied }

// RawCube returns the caller-supplied assignments (shared; do not mutate).
func (g *Graph) RawCube() nineval.Cube { return g.raw }

// FaultLevelHook adapts a spice.FaultHook (see internal/faultinject for
// seeded plan constructors) into a LevelHook: the hook is consulted once per
// convergence level with step = level, and any kind other than FaultNone
// becomes an injected solver error carrying the usual taxonomy sentinel —
// FaultNaN maps to spice.ErrNumerical, everything else to
// spice.ErrNoConvergence, and FaultPanic panics so the caller's containment
// is exercised. A nil hook yields a nil LevelHook.
func FaultLevelHook(hook spice.FaultHook) func(level int) error {
	if hook == nil {
		return nil
	}
	return func(level int) error {
		switch kind := hook(level, 0, 0); kind {
		case spice.FaultNone:
			return nil
		case spice.FaultPanic:
			panic(fmt.Sprintf("tgraph: injected panic at level %d", level))
		case spice.FaultNaN:
			return &spice.SolveError{Kind: spice.ErrNumerical, Step: level, Injected: true}
		default:
			return &spice.SolveError{Kind: spice.ErrNoConvergence, Step: level, Injected: true}
		}
	}
}
