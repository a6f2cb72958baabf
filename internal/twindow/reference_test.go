package twindow_test

// This file freezes the window propagation rules as they stood before the
// index-based rewrite: PropagateGate with its per-call input collection,
// and the core.DelayCtrl2/TransCtrl2/SKminAt it called, which scan the
// cell's Pairs and take both cube roots on every evaluation. The
// differential test and FuzzPropagateGate require the production path to
// reproduce it bit for bit. Do not edit it to follow a change of the rules:
// a deliberate change of the arithmetic replaces the reference wholesale.

import (
	"fmt"
	"math"

	"sstiming/internal/core"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/twindow"
)

const refNS = 1e-9

// refMinSkewWidth is core's guard against degenerate V-shape arms.
const refMinSkewWidth = 1e-12

// refCross is core.Cross.Eval: both cube roots taken per call.
func refCross(c core.Cross, txSec, tySec float64) float64 {
	x := math.Cbrt(txSec / refNS)
	y := math.Cbrt(tySec / refNS)
	v := c.Kxy*x*y + c.Kx*x + c.Ky*y + c.K1
	v += c.Kxx*x*x + c.Kyy*y*y + c.Kxxy*x*x*y + c.Kxyy*x*y*y
	return v * refNS
}

// refDelayCtrl2 is core.CellModel.DelayCtrl2.
func refDelayCtrl2(m *core.CellModel, x, y int, txSec, tySec, skewSec, extraLoad float64) float64 {
	dx := m.CtrlPins[x].DelayAt(txSec, extraLoad)
	dy := m.CtrlPins[y].DelayAt(tySec, extraLoad)

	pXY := m.Pair(x, y)
	pYX := m.Pair(y, x)
	if pXY == nil || pYX == nil {
		if skewSec >= 0 {
			return dx
		}
		return dy
	}

	sx := pXY.SX.Eval(txSec, tySec)
	if sx < refMinSkewWidth {
		sx = refMinSkewWidth
	}
	sy := -pYX.SX.Eval(tySec, txSec)
	if sy > -refMinSkewWidth {
		sy = -refMinSkewWidth
	}
	d0 := refCross(pXY.D0, txSec, tySec) + m.CtrlPins[x].DelayLoadSlope*extraLoad
	if d0 > dx {
		d0 = dx
	}
	if d0 > dy {
		d0 = dy
	}

	switch {
	case skewSec >= sx:
		return dx
	case skewSec <= sy:
		return dy
	case skewSec >= 0:
		return d0 + (dx-d0)*skewSec/sx
	default:
		return d0 + (dy-d0)*skewSec/sy
	}
}

// refTransCtrl2 is core.CellModel.TransCtrl2.
func refTransCtrl2(m *core.CellModel, x, y int, txSec, tySec, skewSec, extraLoad float64) float64 {
	tx := m.CtrlPins[x].TransAt(txSec, extraLoad)
	ty := m.CtrlPins[y].TransAt(tySec, extraLoad)

	pXY := m.Pair(x, y)
	pYX := m.Pair(y, x)
	if pXY == nil || pYX == nil {
		if skewSec >= 0 {
			return tx
		}
		return ty
	}

	sx := pXY.SX.Eval(txSec, tySec)
	if sx < refMinSkewWidth {
		sx = refMinSkewWidth
	}
	sy := -pYX.SX.Eval(tySec, txSec)
	if sy > -refMinSkewWidth {
		sy = -refMinSkewWidth
	}
	skmin := pXY.SKmin.Eval(txSec, tySec)
	if skmin > sx-refMinSkewWidth {
		skmin = sx - refMinSkewWidth
	}
	if skmin < sy+refMinSkewWidth {
		skmin = sy + refMinSkewWidth
	}
	t0 := refCross(pXY.T0, txSec, tySec) + m.CtrlPins[x].TransLoadSlope*extraLoad
	if t0 > tx {
		t0 = tx
	}
	if t0 > ty {
		t0 = ty
	}
	if t0 <= 0 {
		t0 = refMinSkewWidth
	}

	switch {
	case skewSec >= sx:
		return tx
	case skewSec <= sy:
		return ty
	case skewSec >= skmin:
		return t0 + (tx-t0)*(skewSec-skmin)/(sx-skmin)
	default:
		return t0 + (ty-t0)*(skewSec-skmin)/(sy-skmin)
	}
}

// refSKminAt is core.CellModel.SKminAt.
func refSKminAt(m *core.CellModel, x, y int, txSec, tySec float64) float64 {
	pXY := m.Pair(x, y)
	if pXY == nil {
		return 0
	}
	return pXY.SKmin.Eval(txSec, tySec)
}

// refPropagateGate computes one gate's output twindow.LineInfo from the already-settled
// LineInfos of its inputs under the implied output value outV. It is a pure
// function of its arguments — the invariant the incremental timing graph's
// byte-identical-to-full-recompute guarantee rests on.
func refPropagateGate(cell *core.CellModel, kind netlist.GateKind, ins []*twindow.LineInfo, outV nineval.Value, extraLoad float64, mode twindow.Mode, ncExt bool) (twindow.LineInfo, error) {
	li := twindow.LineInfo{Value: outV, SRise: outV.StateRise(), SFall: outV.StateFall()}
	var err error
	switch kind {
	case netlist.Inv:
		if li.HasRise() {
			li.Rise, err = refPropagateSingle(cell, ins[0], false, true, extraLoad)
		}
		if err == nil && li.HasFall() {
			li.Fall, err = refPropagateSingle(cell, ins[0], true, false, extraLoad)
		}
	case netlist.Buf:
		// Buffers borrow the inverter cell's timing with non-inverting
		// direction mapping (library approximation, see package sta doc).
		if li.HasRise() {
			li.Rise, err = refPropagateSingle(cell, ins[0], true, true, extraLoad)
		}
		if err == nil && li.HasFall() {
			li.Fall, err = refPropagateSingle(cell, ins[0], false, false, extraLoad)
		}
	case netlist.Nand:
		if li.HasRise() {
			li.Rise, err = refPropagateCtrl(cell, ins, false, extraLoad, mode)
		}
		if err == nil && li.HasFall() {
			li.Fall, err = refPropagateNonCtrl(cell, ins, true, extraLoad, mode, ncExt)
		}
	case netlist.Nor:
		if li.HasFall() {
			li.Fall, err = refPropagateCtrl(cell, ins, true, extraLoad, mode)
		}
		if err == nil && li.HasRise() {
			li.Rise, err = refPropagateNonCtrl(cell, ins, false, extraLoad, mode, ncExt)
		}
	default:
		err = fmt.Errorf("unsupported gate kind %v", kind)
	}
	if err != nil {
		return twindow.LineInfo{}, err
	}
	return li, nil
}

// refPropagateSingle handles one-input cells. inRising selects which input
// direction drives this output direction; ctrl is true when the arc uses the
// cell's CtrlPins table.
func refPropagateSingle(cell *core.CellModel, in *twindow.LineInfo, inRising, ctrl bool, extraLoad float64) (twindow.Window, error) {
	var w twindow.Window
	var inState nineval.State
	if inRising {
		inState = in.SRise
		w = in.Rise
	} else {
		inState = in.SFall
		w = in.Fall
	}
	if inState == nineval.SNo {
		return twindow.Window{}, fmt.Errorf("output may transition but input cannot (state inconsistency)")
	}
	pins := cell.NonCtrlPins
	if ctrl {
		pins = cell.CtrlPins
	}
	p := &pins[0]
	loadD := p.DelayLoadSlope * extraLoad
	loadT := p.TransLoadSlope * extraLoad
	_, dMin := p.Delay.MinOver(w.TS, w.TL)
	_, dMax := p.Delay.MaxOver(w.TS, w.TL)
	_, tMin := p.Trans.MinOver(w.TS, w.TL)
	_, tMax := p.Trans.MaxOver(w.TS, w.TL)
	return twindow.Window{
		AS: w.AS + dMin + loadD,
		AL: w.AL + dMax + loadD,
		TS: tMin + loadT,
		TL: tMax + loadT,
	}, nil
}

// refInput captures one input that can make a transition in the direction
// under consideration.
type refInput struct {
	pin      int
	w        twindow.Window
	definite bool
}

// refCollect returns the inputs whose transition in the given direction is not
// ruled out, with their windows.
func refCollect(ins []*twindow.LineInfo, rising bool) []refInput {
	var out []refInput
	for i, li := range ins {
		var s nineval.State
		var w twindow.Window
		if rising {
			s, w = li.SRise, li.Rise
		} else {
			s, w = li.SFall, li.Fall
		}
		if s == nineval.SNo {
			continue
		}
		out = append(out, refInput{pin: i, w: w, definite: s == nineval.SYes})
	}
	return out
}

// refPropagateCtrl computes the to-controlling output window (rising for NAND,
// falling for NOR) under transition states, per Sections 4.2 and 5.2.
// ctrlRising is the direction of the input transitions (falling for NAND,
// rising for NOR). Pure STA is the all-SMaybe special case.
func refPropagateCtrl(cell *core.CellModel, ins []*twindow.LineInfo, ctrlRising bool, extraLoad float64, mode twindow.Mode) (twindow.Window, error) {
	allowed := refCollect(ins, ctrlRising)
	if len(allowed) == 0 {
		return twindow.Window{}, fmt.Errorf("to-controlling response possible but no input can transition")
	}

	var out twindow.Window
	out.AS = math.Inf(1)
	out.TS = math.Inf(1)
	out.TL = math.Inf(-1)

	single := func(a refInput) (dMin, dMax, tMin, tMax float64) {
		p := &cell.CtrlPins[a.pin]
		loadD := p.DelayLoadSlope * extraLoad
		loadT := p.TransLoadSlope * extraLoad
		_, dMin = p.Delay.MinOver(a.w.TS, a.w.TL)
		_, dMax = p.Delay.MaxOver(a.w.TS, a.w.TL)
		_, tMin = p.Trans.MinOver(a.w.TS, a.w.TL)
		_, tMax = p.Trans.MaxOver(a.w.TS, a.w.TL)
		return dMin + loadD, dMax + loadD, tMin + loadT, tMax + loadT
	}

	// Latest arrival (Table 1's A..L rules): definite switchers bound how
	// late the output can switch — take the min over their worst-case
	// corners; with no definite switcher, the slowest potential single
	// switcher is the bound.
	var definite []refInput
	for _, a := range allowed {
		if a.definite {
			definite = append(definite, a)
		}
	}
	if len(definite) > 0 {
		out.AL = math.Inf(1)
		for _, a := range definite {
			_, dMax, _, _ := single(a)
			if v := a.w.AL + dMax; v < out.AL {
				out.AL = v
			}
		}
	} else {
		out.AL = math.Inf(-1)
		for _, a := range allowed {
			_, dMax, _, _ := single(a)
			if v := a.w.AL + dMax; v > out.AL {
				out.AL = v
			}
		}
	}

	// Earliest arrival and transition bounds over the allowed set
	// (single-input candidates; what remains in pin-to-pin mode).
	for _, a := range allowed {
		dMin, _, tMin, tMax := single(a)
		if v := a.w.AS + dMin; v < out.AS {
			out.AS = v
		}
		if tMin < out.TS {
			out.TS = tMin
		}
		if tMax > out.TL {
			out.TL = tMax
		}
	}

	if mode == twindow.ModeProposed && len(allowed) >= 2 {
		// Earliest arrival: pairwise simultaneous switching at the
		// earliest-arrival skew, minimised over the four transition-time
		// corners (Fig. 8's A_R,S rule). With three or more inputs all
		// potentially switching δ-simultaneously, the extended model's
		// n-way speed-up factor lower-bounds the delay further.
		multi := 1.0
		if k := len(allowed); k >= 3 && len(cell.MultiFactor) >= k-2 {
			if f := cell.MultiFactor[k-3]; f > 0 && f < 1 {
				multi = f
			}
		}
		for _, ax := range allowed {
			for _, ay := range allowed {
				if ax.pin == ay.pin {
					continue
				}
				skew := ay.w.AS - ax.w.AS
				base := math.Min(ax.w.AS, ay.w.AS)
				for _, tx := range []float64{ax.w.TS, ax.w.TL} {
					for _, ty := range []float64{ay.w.TS, ay.w.TL} {
						d := refDelayCtrl2(cell, ax.pin, ay.pin, tx, ty, skew, extraLoad)
						if v := base + d*multi; v < out.AS {
							out.AS = v
						}
					}
				}
				// Shortest transition: evaluate at the achievable skew
				// closest to SK_t,min (Fig. 8's T_R,S rule).
				lo := ay.w.AS - ax.w.AL
				hi := ay.w.AL - ax.w.AS
				skm := refSKminAt(cell, ax.pin, ay.pin, ax.w.TS, ay.w.TS)
				if skm < lo {
					skm = lo
				}
				if skm > hi {
					skm = hi
				}
				if tv := refTransCtrl2(cell, ax.pin, ay.pin, ax.w.TS, ay.w.TS, skm, extraLoad); tv < out.TS {
					out.TS = tv
				}
			}
		}
	}
	return out, nil
}

// refPropagateNonCtrl computes the to-non-controlling output window (falling
// for NAND, rising for NOR) under transition states. ncRising is the
// direction of the input transitions (rising for NAND, falling for NOR).
// The earliest arrival combines with max over definite switchers (they all
// must complete before the output can respond) and min otherwise; with the
// NC extension, pairs of inputs that can both transition widen the latest
// corners through the Λ-shape surfaces.
func refPropagateNonCtrl(cell *core.CellModel, ins []*twindow.LineInfo, ncRising bool, extraLoad float64, mode twindow.Mode, ncExt bool) (twindow.Window, error) {
	allowed := refCollect(ins, ncRising)
	if len(allowed) == 0 {
		return twindow.Window{}, fmt.Errorf("to-non-controlling response possible but no input can transition")
	}

	var out twindow.Window
	out.AL = math.Inf(-1)
	out.TS = math.Inf(1)
	out.TL = math.Inf(-1)

	single := func(a refInput) (dMin, dMax, tMin, tMax float64) {
		p := &cell.NonCtrlPins[a.pin]
		loadD := p.DelayLoadSlope * extraLoad
		loadT := p.TransLoadSlope * extraLoad
		_, dMin = p.Delay.MinOver(a.w.TS, a.w.TL)
		_, dMax = p.Delay.MaxOver(a.w.TS, a.w.TL)
		_, tMin = p.Trans.MinOver(a.w.TS, a.w.TL)
		_, tMax = p.Trans.MaxOver(a.w.TS, a.w.TL)
		return dMin + loadD, dMax + loadD, tMin + loadT, tMax + loadT
	}

	// Earliest arrival: every definite switcher must complete (max over
	// them at their earliest corners); with no definite switcher, the
	// fastest single suffices.
	var definite []refInput
	for _, a := range allowed {
		if a.definite {
			definite = append(definite, a)
		}
	}
	if len(definite) > 0 {
		out.AS = math.Inf(-1)
		for _, a := range definite {
			dMin, _, _, _ := single(a)
			if v := a.w.AS + dMin; v > out.AS {
				out.AS = v
			}
		}
	} else {
		out.AS = math.Inf(1)
		for _, a := range allowed {
			dMin, _, _, _ := single(a)
			if v := a.w.AS + dMin; v < out.AS {
				out.AS = v
			}
		}
	}

	for _, a := range allowed {
		_, dMax, tMin, tMax := single(a)
		if v := a.w.AL + dMax; v > out.AL {
			out.AL = v
		}
		if tMin < out.TS {
			out.TS = tMin
		}
		if tMax > out.TL {
			out.TL = tMax
		}
	}

	if ncExt && mode == twindow.ModeProposed && len(allowed) >= 2 && len(cell.NCPairs) > 0 {
		// Worst-case simultaneous to-non-controlling corner: both
		// transitions at their latest arrivals, skew as close to the Λ
		// peak (zero) as the windows allow, slowest transition times.
		for _, ax := range allowed {
			for _, ay := range allowed {
				if ax.pin == ay.pin {
					continue
				}
				lo := ay.w.AS - ax.w.AL
				hi := ay.w.AL - ax.w.AS
				skew := 0.0
				if skew < lo {
					skew = lo
				}
				if skew > hi {
					skew = hi
				}
				base := math.Max(ax.w.AL, ay.w.AL)
				for _, tx := range []float64{ax.w.TS, ax.w.TL} {
					for _, ty := range []float64{ay.w.TS, ay.w.TL} {
						d := cell.DelayNonCtrl2(ax.pin, ay.pin, tx, ty, skew, extraLoad)
						if v := base + d; v > out.AL {
							out.AL = v
						}
						if tv := cell.TransNonCtrl2(ax.pin, ay.pin, tx, ty, skew, extraLoad); tv > out.TL {
							out.TL = tv
						}
					}
				}
			}
		}
	}
	return out, nil
}
