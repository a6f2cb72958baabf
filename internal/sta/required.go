package sta

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"sstiming/internal/core"
	"sstiming/internal/netlist"
)

// Required is the per-direction required-time window of a line: the output
// must not be reached before QS (hold-style lower bound) and must be reached
// by QL (setup-style upper bound).
type Required struct {
	QS, QL float64
}

// LineRequired pairs the directional required windows of one line.
type LineRequired struct {
	Rise Required
	Fall Required
}

// Constraint is the timing requirement applied at every primary output.
type Constraint struct {
	// MinTime is the earliest permitted PO arrival (hold check).
	MinTime float64
	// MaxTime is the latest permitted PO arrival (setup check).
	MaxTime float64
}

// RequiredTimes performs the backward traversal of Section 4 and returns
// the required-time windows for every line it reaches. It uses the
// arrival/transition windows already computed by Analyze to evaluate the
// delay bounds along each input-to-output arc.
func (r *Result) RequiredTimes(cons Constraint) map[string]*LineRequired {
	req, reached := r.required(cons)
	n := 0
	for _, ok := range reached {
		if ok {
			n++
		}
	}
	out := make(map[string]*LineRequired, n)
	for id, ok := range reached {
		if ok {
			out[r.Circuit.NetName(id)] = &req[id]
		}
	}
	return out
}

// required is the backward pass over dense per-net-id slices: req[id] is
// the required window of net id, and reached[id] reports whether the pass
// reached the net (a primary output, or a pin or output of a gate with a
// library cell) — exactly the nets RequiredTimes reports.
func (r *Result) required(cons Constraint) (req []LineRequired, reached []bool) {
	c := r.Circuit
	req = make([]LineRequired, len(r.timing))
	reached = make([]bool, len(r.timing))
	open := Required{QS: math.Inf(-1), QL: math.Inf(1)}
	for id := range req {
		req[id] = LineRequired{Rise: open, Fall: open}
	}

	for _, po := range c.POs {
		id, _ := c.NetID(po)
		reached[id] = true
		tighten(&req[id].Rise, cons.MinTime, cons.MaxTime)
		tighten(&req[id].Fall, cons.MinTime, cons.MaxTime)
	}

	var pairs core.PairTable
	var cornerBuf [core.MaxTablePins]core.Corner
	order := c.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		gi := order[i]
		g := &c.Gates[gi]
		cell, ok := r.libCell(g)
		if !ok {
			continue
		}
		out := c.GateOutputID(gi)
		extraLoad := float64(c.FanoutCountID(out)-1) * cell.RefLoad
		reached[out] = true
		zReq := &req[out]
		ins := c.GateInputIDs(gi)

		// In proposed mode the fastest to-controlling corner of each
		// arc pairs its input with every other input switching
		// simultaneously, at the shortest transition times: prepare
		// each input's corner there once per gate.
		var corners []core.Corner
		if r.Mode == ModeProposed && cell.N >= 2 {
			corners = cornerBuf[:0]
			for x, id := range ins {
				corners = append(corners, cell.CtrlCorner(x, r.ctrlWindow(g.Kind, int(id)).TS, extraLoad))
			}
			pairs.Resolve(cell)
		}

		for x, id := range ins {
			lt := &r.timing[id]
			reached[id] = true
			xReq := &req[id]

			// Direction mapping: which input direction produces
			// which output direction, and through which pin table.
			var ctrlOut, ncOut *Required // output requirement per arc
			var ctrlIn, ncIn *Required   // input requirement per arc
			var ctrlWin, ncWin Window
			switch g.Kind {
			case netlist.Inv, netlist.Nand:
				ctrlOut, ctrlIn, ctrlWin = &zReq.Rise, &xReq.Fall, lt.Fall
				ncOut, ncIn, ncWin = &zReq.Fall, &xReq.Rise, lt.Rise
			case netlist.Buf:
				ctrlOut, ctrlIn, ctrlWin = &zReq.Rise, &xReq.Rise, lt.Rise
				ncOut, ncIn, ncWin = &zReq.Fall, &xReq.Fall, lt.Fall
			case netlist.Nor:
				ctrlOut, ctrlIn, ctrlWin = &zReq.Fall, &xReq.Rise, lt.Rise
				ncOut, ncIn, ncWin = &zReq.Rise, &xReq.Fall, lt.Fall
			default:
				continue
			}

			dMin, dMax := pinDelayBounds(&cell.CtrlPins[x], ctrlWin, extraLoad)
			for y := range corners {
				if y == x {
					continue
				}
				if d := cell.DelayCtrl2At(pairs.Pair(x, y), pairs.Pair(y, x), x, corners[x], corners[y], 0, extraLoad); d < dMin {
					dMin = d
				}
			}
			tighten(ctrlIn, ctrlOut.QS-dMin, ctrlOut.QL-dMax)

			dMin, dMax = pinDelayBounds(&cell.NonCtrlPins[x], ncWin, extraLoad)
			tighten(ncIn, ncOut.QS-dMin, ncOut.QL-dMax)
		}
	}
	return req, reached
}

// pinDelayBounds returns [dMin, dMax] of one pin-to-pin arc over the
// input's transition-time range, load included.
func pinDelayBounds(p *core.PinTiming, inWin Window, extraLoad float64) (dMin, dMax float64) {
	loadD := p.DelayLoadSlope * extraLoad
	_, dMin = p.Delay.MinOver(inWin.TS, inWin.TL)
	_, dMax = p.Delay.MaxOver(inWin.TS, inWin.TL)
	return dMin + loadD, dMax + loadD
}

// ctrlWindow returns net id's window in the to-controlling input direction
// of a gate of the given kind (falling for NAND, rising for NOR).
func (r *Result) ctrlWindow(kind netlist.GateKind, id int) Window {
	if kind == netlist.Nor {
		return r.timing[id].Rise
	}
	return r.timing[id].Fall
}

func (r *Result) libCell(g *netlist.Gate) (*core.CellModel, bool) {
	// The forward pass already resolved every cell, but the circuit may
	// have been edited since (gate swaps); resolve by name, memoised.
	if r.cellCache == nil {
		r.cellCache = map[string]*core.CellModel{}
	}
	name := g.CellName()
	if m, ok := r.cellCache[name]; ok {
		return m, m != nil
	}
	m := r.lib.Cells[name]
	r.cellCache[name] = m
	return m, m != nil
}

// tighten narrows a required window: QS may only grow, QL may only shrink.
func tighten(q *Required, qs, ql float64) {
	if qs > q.QS {
		q.QS = qs
	}
	if ql < q.QL {
		q.QL = ql
	}
}

// Violation reports one timing check failure.
type Violation struct {
	// Net is the failing line.
	Net string
	// Rising selects the failing direction.
	Rising bool
	// Setup is true for a setup-style (too late) failure, false for a
	// hold-style (too early) failure.
	Setup bool
	// Slack is the (negative) margin in seconds.
	Slack float64
}

// SortViolations puts violations in their report order, a total order:
// by slack (most negative first), then net name, then rising before
// falling, then setup before hold. Every net on one critical path shares
// its slack, so anything less than a total order would let ties come out
// differently from call to call.
func SortViolations(v []Violation) {
	slices.SortFunc(v, func(a, b Violation) int {
		if c := cmp.Compare(a.Slack, b.Slack); c != 0 {
			return c
		}
		if a.Net != b.Net {
			return strings.Compare(a.Net, b.Net)
		}
		if a.Rising != b.Rising {
			if a.Rising {
				return -1
			}
			return 1
		}
		if a.Setup != b.Setup {
			if a.Setup {
				return -1
			}
			return 1
		}
		return 0
	})
}

// CheckViolations compares the arrival windows against the required windows
// derived from the PO constraint and returns every failing line in
// SortViolations order. It runs the backward pass of RequiredTimes without
// building its map.
func (r *Result) CheckViolations(cons Constraint) []Violation {
	req, reached := r.required(cons)
	var out []Violation
	check := func(id int, w Window, q Required, rising bool) {
		if math.IsInf(q.QL, 1) && math.IsInf(q.QS, -1) {
			return
		}
		if s := q.QL - w.AL; s < 0 {
			out = append(out, Violation{Net: r.Circuit.NetName(id), Rising: rising, Setup: true, Slack: s})
		}
		if s := w.AS - q.QS; s < 0 {
			out = append(out, Violation{Net: r.Circuit.NetName(id), Rising: rising, Setup: false, Slack: s})
		}
	}
	for id, ok := range reached {
		if ok {
			check(id, r.timing[id].Rise, req[id].Rise, true)
			check(id, r.timing[id].Fall, req[id].Fall, false)
		}
	}
	SortViolations(out)
	return out
}
