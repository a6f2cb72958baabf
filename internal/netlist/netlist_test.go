package netlist

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
)

// c17Bench is the textbook ISCAS85 c17 netlist.
const c17Bench = `# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

func parseC17(t *testing.T) *Circuit {
	t.Helper()
	c, err := Parse("c17", strings.NewReader(c17Bench))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParseC17(t *testing.T) {
	c := parseC17(t)
	st := c.Stats()
	if st.PIs != 5 || st.POs != 2 || st.Gates != 6 {
		t.Errorf("c17 stats = %+v, want 5 PIs, 2 POs, 6 gates", st)
	}
	if st.ByKind[Nand] != 6 {
		t.Errorf("c17 should be all NAND, got %v", st.ByKind)
	}
	if d := c.Depth(); d != 3 {
		t.Errorf("c17 depth = %d, want 3", d)
	}
}

func TestTopoOrderRespectsDependencies(t *testing.T) {
	c := parseC17(t)
	pos := make(map[int]int)
	for rank, gi := range c.TopoOrder() {
		pos[gi] = rank
	}
	for i := range c.Gates {
		for _, in := range c.Gates[i].Inputs {
			if d, ok := c.Driver(in); ok {
				if pos[d] >= pos[i] {
					t.Errorf("gate %d (drives %s) ordered after consumer %d",
						d, in, i)
				}
			}
		}
	}
}

func TestDriverAndFanout(t *testing.T) {
	c := parseC17(t)
	if _, ok := c.Driver("1"); ok {
		t.Error("PI should have no driver")
	}
	d, ok := c.Driver("22")
	if !ok || c.Gates[d].Output != "22" {
		t.Error("missing driver for net 22")
	}
	// Net 11 feeds gates 16 and 19.
	if n := c.FanoutCount("11"); n != 2 {
		t.Errorf("fanout of net 11 = %d, want 2", n)
	}
	// PO nets have an implicit load of at least 1.
	if n := c.FanoutCount("22"); n != 1 {
		t.Errorf("fanout of PO net 22 = %d, want 1", n)
	}
	if !c.IsPI("1") || c.IsPI("10") {
		t.Error("IsPI misclassifies nets")
	}
}

func TestGateEval(t *testing.T) {
	cases := []struct {
		k    GateKind
		in   []int
		want int
	}{
		{Inv, []int{0}, 1},
		{Inv, []int{1}, 0},
		{Buf, []int{1}, 1},
		{Nand, []int{1, 1}, 0},
		{Nand, []int{0, 1}, 1},
		{Nor, []int{0, 0}, 1},
		{Nor, []int{1, 0}, 0},
		{Nand, []int{1, 1, 1}, 0},
		{Nand, []int{1, 0, 1}, 1},
	}
	for _, cse := range cases {
		got, err := cse.k.Eval(cse.in)
		if err != nil {
			t.Fatalf("%v%v: %v", cse.k, cse.in, err)
		}
		if got != cse.want {
			t.Errorf("%v%v = %d, want %d", cse.k, cse.in, got, cse.want)
		}
	}
	if _, err := GateKind(99).Eval([]int{1}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("unknown kind: err = %v, want ErrUnknownKind", err)
	}
}

func TestControllingValues(t *testing.T) {
	if Nand.ControllingValue() != 0 || Nor.ControllingValue() != 1 {
		t.Error("controlling values wrong")
	}
	if Inv.ControllingValue() != -1 || Buf.ControllingValue() != -1 {
		t.Error("inverter/buffer should have no controlling value")
	}
	if !Nand.Inverting() || !Nor.Inverting() || !Inv.Inverting() || Buf.Inverting() {
		t.Error("Inverting() wrong")
	}
}

func TestCellName(t *testing.T) {
	g := Gate{Kind: Nand, Inputs: []string{"a", "b", "c"}}
	if n := g.CellName(); n != "NAND3" {
		t.Errorf("cell name = %q, want NAND3", n)
	}
	g2 := Gate{Kind: Buf, Inputs: []string{"a"}}
	if n := g2.CellName(); n != "INV" {
		t.Errorf("buffer cell name = %q, want INV", n)
	}
}

func TestWriteRoundTrip(t *testing.T) {
	c := parseC17(t)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := Parse("c17", &buf)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, buf.String())
	}
	if c2.NumGates() != c.NumGates() || len(c2.PIs) != len(c.PIs) || len(c2.POs) != len(c.POs) {
		t.Errorf("round trip changed structure: %+v vs %+v", c2.Stats(), c.Stats())
	}
	if c2.Depth() != c.Depth() {
		t.Errorf("round trip changed depth: %d vs %d", c2.Depth(), c.Depth())
	}
}

func TestAndOrDecomposition(t *testing.T) {
	src := `INPUT(a)
INPUT(b)
OUTPUT(z)
OUTPUT(w)
z = AND(a, b)
w = OR(a, b)
`
	c, err := Parse("t", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Gates != 4 {
		t.Fatalf("AND+OR should decompose to 4 gates, got %d", st.Gates)
	}
	if st.ByKind[Nand] != 1 || st.ByKind[Nor] != 1 || st.ByKind[Inv] != 2 {
		t.Errorf("decomposition kinds = %v", st.ByKind)
	}
	// Logic check: z = a AND b through the decomposition.
	evalNet := func(net string, a, b int) int {
		vals := map[string]int{"a": a, "b": b}
		for _, gi := range c.TopoOrder() {
			g := &c.Gates[gi]
			in := make([]int, len(g.Inputs))
			for i, n := range g.Inputs {
				in[i] = vals[n]
			}
			v, err := g.Kind.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			vals[g.Output] = v
		}
		return vals[net]
	}
	for _, tc := range []struct{ a, b int }{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		if got := evalNet("z", tc.a, tc.b); got != tc.a&tc.b {
			t.Errorf("AND(%d,%d) = %d", tc.a, tc.b, got)
		}
		if got := evalNet("w", tc.a, tc.b); got != tc.a|tc.b {
			t.Errorf("OR(%d,%d) = %d", tc.a, tc.b, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"z = XOR(a, b)",                // unsupported type
		"INPUT()",                      // empty net
		"z = NAND(a, )",                // empty input
		"garbage line",                 // no '='
		"z = NAND a, b",                // missing parens
		"INPUT(a)\nz = NAND(a, q)",     // undriven input q
		"INPUT(a)\na = NOT(a)",         // PI redeclared as output
		"INPUT(a)\nOUTPUT(q)",          // undriven PO
		"INPUT(a)\nINPUT(a)",           // duplicate PI
		"INPUT(a)\nz = NOT(a, a)",      // NOT with 2 inputs
		"INPUT(a)\nz=NOT(a)\nz=NOT(a)", // multiple drivers
	}
	for _, src := range cases {
		if _, err := Parse("bad", strings.NewReader(src)); err == nil {
			t.Errorf("expected parse/build error for %q", src)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	c := New("cyc")
	c.AddPI("a")
	c.AddGate(Nand, "x", "a", "y")
	c.AddGate(Nand, "y", "a", "x")
	if err := c.Build(); err == nil {
		t.Error("expected cycle error")
	}
}

func TestNets(t *testing.T) {
	c := parseC17(t)
	nets := c.Nets()
	if len(nets) != 11 { // 5 PIs + 6 gate outputs
		t.Errorf("nets = %v (len %d), want 11", nets, len(nets))
	}
}

// TestParseLineLengthLimit pins the 1 MiB line limit: Parse starts with a
// small scanner buffer, yet a line just under the limit still parses and a
// longer one still fails with the scanner's token-too-long error.
func TestParseLineLengthLimit(t *testing.T) {
	long := func(n int) string { return "#" + strings.Repeat("x", n-1) + "\n" + c17Bench }
	c, err := Parse("long", strings.NewReader(long(maxLineLen-1)))
	if err != nil {
		t.Fatalf("line of %d bytes: %v", maxLineLen-1, err)
	}
	if c.NumGates() != 6 {
		t.Fatalf("parsed %d gates after the long line, want 6", c.NumGates())
	}
	_, err = Parse("long", strings.NewReader(long(maxLineLen+1)))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line of %d bytes: err = %v, want bufio.ErrTooLong", maxLineLen+1, err)
	}
	if want := "netlist: long: bufio.Scanner: token too long"; err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}

// TestParseKeywordCase: declaration keywords match in any case.
func TestParseKeywordCase(t *testing.T) {
	c, err := Parse("case", strings.NewReader("input(a)\nInput (b)\noUTPUT(z)\nz = nand(a, b)\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.PIs) != 2 || len(c.POs) != 1 || c.NumGates() != 1 {
		t.Fatalf("parsed %d PIs, %d POs, %d gates; want 2, 1, 1", len(c.PIs), len(c.POs), c.NumGates())
	}
}

// TestDenseIDsMatchNames cross-checks the id accessors against the string
// accessors, including a net consumed twice by one gate.
func TestDenseIDsMatchNames(t *testing.T) {
	c, err := Parse("dup", strings.NewReader(c17Bench+"OUTPUT(d)\nd = NAND(22, 22)\n"))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumNets() != len(c.PIs)+c.NumGates() {
		t.Fatalf("NumNets = %d, want %d", c.NumNets(), len(c.PIs)+c.NumGates())
	}
	for id := 0; id < c.NumNets(); id++ {
		net := c.NetName(id)
		if got, ok := c.NetID(net); !ok || got != id {
			t.Fatalf("NetID(%q) = %d, %v; want %d", net, got, ok, id)
		}
		gi, driven := c.NetDriver(id)
		wgi, wdriven := c.Driver(net)
		if gi != wgi || driven != wdriven || driven != !c.IsPI(net) {
			t.Fatalf("net %q: NetDriver = %d,%v, Driver = %d,%v", net, gi, driven, wgi, wdriven)
		}
		if driven && c.GateOutputID(gi) != id {
			t.Fatalf("GateOutputID(%d) = %d, want %d", gi, c.GateOutputID(gi), id)
		}
		fan := c.Fanout(net)
		ids := c.FanoutIDs(id)
		if len(fan) != len(ids) || c.FanoutCountID(id) != c.FanoutCount(net) {
			t.Fatalf("net %q: fan-out %v vs ids %v", net, fan, ids)
		}
		for k := range fan {
			if fan[k] != int(ids[k]) {
				t.Fatalf("net %q: fan-out %v vs ids %v", net, fan, ids)
			}
		}
	}
	if got := c.FanoutCount("22"); got != 2 {
		t.Fatalf("FanoutCount(22) = %d, want 2 (both pins of gate d)", got)
	}
	for gi := range c.Gates {
		ids := c.GateInputIDs(gi)
		for k, in := range c.Gates[gi].Inputs {
			if c.NetName(int(ids[k])) != in {
				t.Fatalf("gate %d pin %d: id %d names %q, want %q", gi, k, ids[k], c.NetName(int(ids[k])), in)
			}
		}
	}
}

func TestCellNameDoesNotAllocate(t *testing.T) {
	g := &Gate{Kind: Nand, Inputs: []string{"a", "b", "c"}}
	if n := testing.AllocsPerRun(100, func() { _ = g.CellName() }); n != 0 {
		t.Fatalf("CellName allocates %v times per call", n)
	}
	for _, tc := range []struct {
		kind GateKind
		n    int
		want string
	}{{Nor, 2, "NOR2"}, {Nand, 20, "NAND20"}, {GateKind(9), 2, "2"}} {
		g := &Gate{Kind: tc.kind, Inputs: make([]string, tc.n)}
		if got := g.CellName(); got != tc.want {
			t.Errorf("CellName(%v, %d inputs) = %q, want %q", tc.kind, tc.n, got, tc.want)
		}
	}
}
