package itr

import (
	"math"

	"sstiming/internal/core"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/sta"
)

// RequiredTimes performs the state-aware backward traversal (the ITR
// counterpart of the STA required-time computation; the paper defers the
// details to its technical report [9], so this follows the same worst-case
// corner rules as the forward pass):
//
//   - required windows are only propagated along arcs whose input
//     transition is still possible (state != -1);
//   - the minimum arc delay exploits simultaneous switching only with
//     partners that can still transition;
//   - a line direction with state -1 receives no required window (its
//     timing fields are undefined).
func (r *Result) RequiredTimes(cons sta.Constraint, lib *core.Library) map[string]*sta.LineRequired {
	c := r.Circuit
	req := make(map[string]*sta.LineRequired, len(r.Lines))
	get := func(net string) *sta.LineRequired {
		lr, ok := req[net]
		if !ok {
			lr = &sta.LineRequired{
				Rise: sta.Required{QS: math.Inf(-1), QL: math.Inf(1)},
				Fall: sta.Required{QS: math.Inf(-1), QL: math.Inf(1)},
			}
			req[net] = lr
		}
		return lr
	}
	tighten := func(q *sta.Required, qs, ql float64) {
		if qs > q.QS {
			q.QS = qs
		}
		if ql < q.QL {
			q.QL = ql
		}
	}

	for _, po := range c.POs {
		li := r.Lines[po]
		if li == nil {
			continue
		}
		lr := get(po)
		if li.HasRise() {
			tighten(&lr.Rise, cons.MinTime, cons.MaxTime)
		}
		if li.HasFall() {
			tighten(&lr.Fall, cons.MinTime, cons.MaxTime)
		}
	}

	order := c.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		g := &c.Gates[order[i]]
		cell, ok := lib.Cell(g.CellName())
		if !ok {
			continue
		}
		extraLoad := float64(c.FanoutCount(g.Output)-1) * cell.RefLoad
		zReq := get(g.Output)
		zLine := r.Lines[g.Output]
		if zLine == nil {
			continue
		}

		for x, in := range g.Inputs {
			inLine := r.Lines[in]
			if inLine == nil {
				continue
			}
			xReq := get(in)

			type arc struct {
				inRise bool
				outReq *sta.Required
				outOK  bool
				ctrl   bool
			}
			var arcs []arc
			switch g.Kind {
			case netlist.Inv:
				arcs = []arc{
					{false, &zReq.Rise, zLine.HasRise(), true},
					{true, &zReq.Fall, zLine.HasFall(), false},
				}
			case netlist.Buf:
				arcs = []arc{
					{true, &zReq.Rise, zLine.HasRise(), true},
					{false, &zReq.Fall, zLine.HasFall(), false},
				}
			case netlist.Nand:
				arcs = []arc{
					{false, &zReq.Rise, zLine.HasRise(), true},
					{true, &zReq.Fall, zLine.HasFall(), false},
				}
			case netlist.Nor:
				arcs = []arc{
					{true, &zReq.Fall, zLine.HasFall(), true},
					{false, &zReq.Rise, zLine.HasRise(), false},
				}
			}

			for _, a := range arcs {
				if !a.outOK {
					continue
				}
				// The arc only constrains the input if the
				// input transition is still possible.
				var inState nineval.State
				var inWin sta.Window
				if a.inRise {
					inState, inWin = inLine.SRise, inLine.Rise
				} else {
					inState, inWin = inLine.SFall, inLine.Fall
				}
				if inState == nineval.SNo {
					continue
				}
				dMin, dMax := r.arcBounds(cell, g, x, a.ctrl, a.inRise, inWin, extraLoad)
				var tgt *sta.Required
				if a.inRise {
					tgt = &xReq.Rise
				} else {
					tgt = &xReq.Fall
				}
				tighten(tgt, a.outReq.QS-dMin, a.outReq.QL-dMax)
			}
		}
	}

	// Drop required windows for impossible transitions.
	for net, li := range r.Lines {
		lr, ok := req[net]
		if !ok {
			continue
		}
		if !li.HasRise() {
			lr.Rise = sta.Required{QS: math.Inf(-1), QL: math.Inf(1)}
		}
		if !li.HasFall() {
			lr.Fall = sta.Required{QS: math.Inf(-1), QL: math.Inf(1)}
		}
	}
	return req
}

// arcBounds returns the state-aware [dMin, dMax] of the input-to-output
// delay for one arc.
func (r *Result) arcBounds(cell *core.CellModel, g *netlist.Gate, x int, ctrl, inRise bool, inWin sta.Window, extraLoad float64) (dMin, dMax float64) {
	pins := cell.NonCtrlPins
	if ctrl {
		pins = cell.CtrlPins
	}
	p := &pins[x]
	loadD := p.DelayLoadSlope * extraLoad
	_, dMin = p.Delay.MinOver(inWin.TS, inWin.TL)
	_, dMax = p.Delay.MaxOver(inWin.TS, inWin.TL)
	dMin += loadD
	dMax += loadD

	if ctrl && cell.N >= 2 {
		for y := 0; y < cell.N; y++ {
			if y == x {
				continue
			}
			yLine := r.Lines[g.Inputs[y]]
			if yLine == nil {
				continue
			}
			var yState nineval.State
			var yWin sta.Window
			if inRise {
				yState, yWin = yLine.SRise, yLine.Rise
			} else {
				yState, yWin = yLine.SFall, yLine.Fall
			}
			if yState == nineval.SNo {
				continue
			}
			if d := cell.DelayCtrl2(x, y, inWin.TS, yWin.TS, 0, extraLoad); d < dMin {
				dMin = d
			}
		}
	}
	return dMin, dMax
}

// CheckViolations compares the refined arrival windows against the required
// windows under the PO constraint and returns every failing line in
// sta.SortViolations order. Only defined (state != -1) directions are
// checked.
func (r *Result) CheckViolations(cons sta.Constraint, lib *core.Library) []sta.Violation {
	req := r.RequiredTimes(cons, lib)
	var out []sta.Violation
	for net, li := range r.Lines {
		lr, ok := req[net]
		if !ok {
			continue
		}
		check := func(w sta.Window, q sta.Required, rising bool) {
			if math.IsInf(q.QL, 1) && math.IsInf(q.QS, -1) {
				return
			}
			if s := q.QL - w.AL; s < 0 {
				out = append(out, sta.Violation{Net: net, Rising: rising, Setup: true, Slack: s})
			}
			if s := w.AS - q.QS; s < 0 {
				out = append(out, sta.Violation{Net: net, Rising: rising, Setup: false, Slack: s})
			}
		}
		if li.HasRise() {
			check(li.Rise, lr.Rise, true)
		}
		if li.HasFall() {
			check(li.Fall, lr.Fall, false)
		}
	}
	sta.SortViolations(out)
	return out
}
