// Package nineval implements the paper's two-frame nine-valued logic system
// (Section 5.1) and the forward/backward implication procedure ITR and ATPG
// build on.
//
// Each line carries a pair of three-valued frames (v1, v2) drawn from
// {0, 1, x}: 01 is a rising transition, 10 falling, 0x/x1/xx potential
// rising, and so on. From the pair, the transition state S of Section 5.1 is
// derived: 1 (the line definitely has the transition), 0 (potentially), or
// -1 (definitely not).
//
// Implication extends the classical three-valued gate implication to two
// time-frames by running each frame independently (the circuit is
// combinational within a frame).
package nineval

import (
	"fmt"
	"sort"
	"strings"

	"sstiming/internal/netlist"
)

// Frame is a three-valued logic value.
type Frame uint8

const (
	// F0 is logic 0.
	F0 Frame = iota
	// F1 is logic 1.
	F1
	// FX is unknown/unspecified.
	FX
)

// String returns "0", "1" or "x".
func (f Frame) String() string {
	switch f {
	case F0:
		return "0"
	case F1:
		return "1"
	default:
		return "x"
	}
}

// Value is one of the nine two-frame values.
type Value struct {
	V1, V2 Frame
}

// Convenience constructors for the nine values.
var (
	V00 = Value{F0, F0}
	V01 = Value{F0, F1} // rising transition
	V0X = Value{F0, FX}
	V10 = Value{F1, F0} // falling transition
	V11 = Value{F1, F1}
	V1X = Value{F1, FX}
	VX0 = Value{FX, F0}
	VX1 = Value{FX, F1}
	VXX = Value{FX, FX}
)

// String returns the compact form, e.g. "01" or "x1".
func (v Value) String() string { return v.V1.String() + v.V2.String() }

// State is the paper's transition state S: 1 definite, 0 potential,
// -1 impossible.
type State int8

const (
	// SNo marks a transition that definitely does not occur.
	SNo State = -1
	// SMaybe marks a potential transition.
	SMaybe State = 0
	// SYes marks a definite transition.
	SYes State = 1
)

// String renders the state.
func (s State) String() string {
	switch s {
	case SNo:
		return "-1"
	case SYes:
		return "1"
	default:
		return "0"
	}
}

// StateRise returns S for a rising transition on a line holding v.
func (v Value) StateRise() State { return stateOf(v, F0, F1) }

// StateFall returns S for a falling transition.
func (v Value) StateFall() State { return stateOf(v, F1, F0) }

// StateDir returns StateRise or StateFall by direction.
func (v Value) StateDir(rising bool) State {
	if rising {
		return v.StateRise()
	}
	return v.StateFall()
}

func stateOf(v Value, from, to Frame) State {
	ok1 := v.V1 == from || v.V1 == FX
	ok2 := v.V2 == to || v.V2 == FX
	if !ok1 || !ok2 {
		return SNo
	}
	if v.V1 == from && v.V2 == to {
		return SYes
	}
	return SMaybe
}

// Meet intersects two values frame-wise. ok is false on conflict
// (e.g. 0 meet 1).
func (v Value) Meet(w Value) (Value, bool) {
	m1, ok1 := meetFrame(v.V1, w.V1)
	m2, ok2 := meetFrame(v.V2, w.V2)
	return Value{m1, m2}, ok1 && ok2
}

func meetFrame(a, b Frame) (Frame, bool) {
	switch {
	case a == b:
		return a, true
	case a == FX:
		return b, true
	case b == FX:
		return a, true
	default:
		return FX, false
	}
}

// evalFrame computes the three-valued output of a gate for one frame.
func evalFrame(kind netlist.GateKind, ins []Frame) Frame {
	switch kind {
	case netlist.Inv:
		switch ins[0] {
		case F0:
			return F1
		case F1:
			return F0
		default:
			return FX
		}
	case netlist.Buf:
		return ins[0]
	case netlist.Nand:
		anyX := false
		for _, f := range ins {
			if f == F0 {
				return F1
			}
			if f == FX {
				anyX = true
			}
		}
		if anyX {
			return FX
		}
		return F0
	case netlist.Nor:
		anyX := false
		for _, f := range ins {
			if f == F1 {
				return F0
			}
			if f == FX {
				anyX = true
			}
		}
		if anyX {
			return FX
		}
		return F1
	default:
		panic("nineval: unknown gate kind")
	}
}

// Eval computes the nine-valued gate output from nine-valued inputs.
func Eval(kind netlist.GateKind, ins []Value) Value {
	f1 := make([]Frame, len(ins))
	f2 := make([]Frame, len(ins))
	for i, v := range ins {
		f1[i] = v.V1
		f2[i] = v.V2
	}
	return Value{evalFrame(kind, f1), evalFrame(kind, f2)}
}

// Cube is a partial two-frame assignment to lines. Absent lines are xx.
type Cube map[string]Value

// Get returns the value of a line, defaulting to xx.
func (c Cube) Get(net string) Value {
	if v, ok := c[net]; ok {
		return v
	}
	return VXX
}

// Clone copies the cube.
func (c Cube) Clone() Cube {
	out := make(Cube, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// String renders the cube deterministically (sorted by net), for debugging.
func (c Cube) String() string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", k, c[k])
	}
	return b.String()
}

// Imply computes the fixpoint of forward and backward implication of the
// cube over the circuit, one frame at a time. It returns the implied cube
// and reports consistency; on conflict the returned cube is the state at
// detection (for diagnosis).
func Imply(c *netlist.Circuit, cube Cube) (Cube, bool) {
	out := cube.Clone()
	for frame := 0; frame < 2; frame++ {
		if !implyFrame(c, out, frame) {
			return out, false
		}
	}
	return out, true
}

// frame accessors on Value.
func getFrame(v Value, frame int) Frame {
	if frame == 0 {
		return v.V1
	}
	return v.V2
}

func withFrame(v Value, frame int, f Frame) Value {
	if frame == 0 {
		v.V1 = f
	} else {
		v.V2 = f
	}
	return v
}

// implyFrame runs 3-valued implication to fixpoint on one frame using an
// event-driven worklist: a gate is (re)visited only when one of its nets
// changed, making implication near-linear in practice — this is the inner
// loop of the ATPG search. Returns false on conflict.
func implyFrame(c *netlist.Circuit, cube Cube, frame int) bool {
	get := func(net string) Frame { return getFrame(cube.Get(net), frame) }

	// Worklist of gate indices, deduplicated.
	queued := make([]bool, len(c.Gates))
	var queue []int
	enqueue := func(gi int) {
		if !queued[gi] {
			queued[gi] = true
			queue = append(queue, gi)
		}
	}
	// touch re-queues every gate adjacent to a changed net.
	touch := func(net string) {
		id, ok := c.NetID(net)
		if !ok {
			return
		}
		if gi, ok := c.NetDriver(id); ok {
			enqueue(gi)
		}
		for _, gi := range c.FanoutIDs(id) {
			enqueue(int(gi))
		}
	}
	// set assigns a frame value; false on conflict.
	set := func(net string, f Frame) bool {
		cur := get(net)
		if cur == f || f == FX {
			return true
		}
		if cur != FX {
			return false
		}
		cube[net] = withFrame(cube.Get(net), frame, f)
		touch(net)
		return true
	}

	// Seed: every gate adjacent to an assigned net (assignments may have
	// come from the caller in any order).
	for net, v := range cube {
		if getFrame(v, frame) != FX {
			touch(net)
		}
	}
	// Also seed all gates once on the first call for cubes whose
	// assignments are only on unconnected nets; cheap relative to the
	// fixpoint loop it replaces. Only gates adjacent to assignments can
	// produce implications, so the seeding above suffices; keep it.

	for len(queue) > 0 {
		gi := queue[0]
		queue = queue[1:]
		queued[gi] = false

		g := &c.Gates[gi]
		ins := make([]Frame, len(g.Inputs))
		for i, in := range g.Inputs {
			ins[i] = get(in)
		}
		zCur := get(g.Output)

		// Forward.
		if zf := evalFrame(g.Kind, ins); zf != FX {
			if zCur == FX {
				if !set(g.Output, zf) {
					return false
				}
				zCur = zf
			} else if zCur != zf {
				return false
			}
		}

		// Backward.
		if zCur == FX {
			continue
		}
		switch g.Kind {
		case netlist.Inv:
			want := F0
			if zCur == F0 {
				want = F1
			}
			if get(g.Inputs[0]) == FX {
				if !set(g.Inputs[0], want) {
					return false
				}
			}
		case netlist.Buf:
			if get(g.Inputs[0]) == FX {
				if !set(g.Inputs[0], zCur) {
					return false
				}
			}
		case netlist.Nand, netlist.Nor:
			cv := F0
			ncv := F1
			forced := F1 // NAND: any 0 input forces output 1
			if g.Kind == netlist.Nor {
				cv, ncv = F1, F0
				forced = F0 // NOR: any 1 input forces output 0
			}

			if zCur != forced {
				// Output at the non-forced value: all inputs
				// must be non-controlling.
				for _, in := range g.Inputs {
					if get(in) == FX {
						if !set(in, ncv) {
							return false
						}
					} else if get(in) == cv {
						return false
					}
				}
			} else {
				// Output forced: at least one input is
				// controlling. Unit propagation: if all but
				// one are non-controlling, the remaining one
				// must be controlling.
				unknown := -1
				countNC := 0
				hasCV := false
				for i, in := range g.Inputs {
					switch get(in) {
					case ncv:
						countNC++
					case cv:
						hasCV = true
					default:
						unknown = i
					}
				}
				if hasCV {
					break
				}
				if countNC == len(g.Inputs) {
					return false
				}
				if countNC == len(g.Inputs)-1 && unknown >= 0 {
					if !set(g.Inputs[unknown], cv) {
						return false
					}
				}
			}
		}
	}
	return true
}
