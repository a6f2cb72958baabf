package reqcache

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/netlist"
)

func parse(t *testing.T, src string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.Parse("test", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCanonicalGateOrderInvariance: reordering gate statements must not
// change the canonical bytes; changing connectivity must.
func TestCanonicalGateOrderInvariance(t *testing.T) {
	a := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nn1 = NAND(a, b)\nz = NOT(n1)\n")
	b := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NOT(n1)\nn1 = NAND(a, b)\n")
	if !bytes.Equal(CanonicalNetlist(a), CanonicalNetlist(b)) {
		t.Fatalf("gate statement order split the canonical form:\n%s\nvs\n%s",
			CanonicalNetlist(a), CanonicalNetlist(b))
	}

	c := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nn1 = NOR(a, b)\nz = NOT(n1)\n")
	if bytes.Equal(CanonicalNetlist(a), CanonicalNetlist(c)) {
		t.Fatal("NAND and NOR circuits share a canonical form")
	}
}

// TestCanonicalPinOrderSignificant: gate input order is cell pin position,
// a semantic property — it must survive canonicalization.
func TestCanonicalPinOrderSignificant(t *testing.T) {
	a := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n")
	b := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(b, a)\n")
	if bytes.Equal(CanonicalNetlist(a), CanonicalNetlist(b)) {
		t.Fatal("swapped gate pins share a canonical form (pin position is timing-relevant)")
	}
}

// TestCanonicalNameExcluded: the circuit name is presentation, not content.
func TestCanonicalNameExcluded(t *testing.T) {
	a := parse(t, "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
	b := parse(t, "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
	b.Name = "renamed"
	if !bytes.Equal(CanonicalNetlist(a), CanonicalNetlist(b)) {
		t.Fatal("circuit name leaked into the canonical form")
	}
}

// TestCanonicalPOOrderSignificant: PO order is response-relevant (worst-path
// tie-breaking), so it is deliberately part of the address.
func TestCanonicalPOOrderSignificant(t *testing.T) {
	a := parse(t, "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = NOT(a)\nz = NOT(y)\n")
	b := parse(t, "INPUT(a)\nOUTPUT(z)\nOUTPUT(y)\ny = NOT(a)\nz = NOT(y)\n")
	if bytes.Equal(CanonicalNetlist(a), CanonicalNetlist(b)) {
		t.Fatal("PO declaration order was normalized away")
	}
}

// TestCanonicalWriteRoundTrip: canonical form survives a .bench write/parse
// round trip, and random circuits canonicalize deterministically.
func TestCanonicalWriteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for seed := 0; seed < 20; seed++ {
		c, err := benchgen.GenerateRand(benchgen.RandomProfile("rt", rng), rng)
		if err != nil {
			t.Fatal(err)
		}
		canon := CanonicalNetlist(c)
		if !bytes.Equal(canon, CanonicalNetlist(c)) {
			t.Fatal("canonicalization is not deterministic")
		}
		var buf bytes.Buffer
		if err := c.Write(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := netlist.Parse("roundtrip", strings.NewReader(buf.String()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, CanonicalNetlist(back)) {
			t.Fatalf("seed %d: canonical form did not survive a write/parse round trip", seed)
		}
	}
}

func TestCanonicalCube(t *testing.T) {
	a := CanonicalCube(map[string]string{"n2": "1x", "n1": "01"})
	if a != "n1=01,n2=1x" {
		t.Fatalf("CanonicalCube = %q", a)
	}
	if CanonicalCube(nil) != "" {
		t.Fatal("empty cube not canonicalized to empty string")
	}
}

func TestCanonicalNets(t *testing.T) {
	if got := CanonicalNets([]string{"z", "a", "z"}); got != "a,z" {
		t.Fatalf("CanonicalNets = %q, want \"a,z\"", got)
	}
	if CanonicalNets(nil) != "" {
		t.Fatal("empty filter not canonicalized to empty string")
	}
}

// fmtKeyFrom is the reference framing KeyFrom must reproduce: every part
// as "<decimal length>:" followed by its bytes, through fmt and a copy.
func fmtKeyFrom(parts ...string) Key {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// TestKeyFromMatchesFmtFraming: the allocation-free KeyFrom produces the
// same keys as the fmt-based framing over random parts — empty parts,
// multi-digit lengths, binary bytes — so no resident key or alias changes.
func TestKeyFromMatchesFmtFraming(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if KeyFrom() != fmtKeyFrom() {
		t.Fatal("zero-part keys differ")
	}
	for i := 0; i < 500; i++ {
		parts := make([]string, rng.Intn(8))
		for j := range parts {
			b := make([]byte, rng.Intn([]int{1, 12, 300, 5000}[rng.Intn(4)]))
			rng.Read(b)
			parts[j] = string(b)
		}
		if got, want := KeyFrom(parts...), fmtKeyFrom(parts...); got != want {
			t.Fatalf("parts %d: KeyFrom = %s, fmt framing = %s", i, got, want)
		}
	}
}

// c7552Text is a c7552-scale stand-in netlist (benchgen's profile), the
// size of the largest request the serve benchmark posts.
func c7552Text(b *testing.B) string {
	p, _ := benchgen.ProfileByName("c7552")
	c, err := benchgen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	var s strings.Builder
	if err := c.Write(&s); err != nil {
		b.Fatal(err)
	}
	return s.String()
}

// BenchmarkKeyFrom is the raw-address step of every /analyze request: the
// options plus the whole posted netlist.
func BenchmarkKeyFrom(b *testing.B) {
	src := c7552Text(b)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = KeyFrom("analyze-raw/1", "fingerprint", "proposed", "0", "1", "", src)
	}
}

// BenchmarkCanonicalNetlist is the canonical-address step of a raw miss on
// a parsed c7552-scale circuit.
func BenchmarkCanonicalNetlist(b *testing.B) {
	c, err := netlist.Parse("bench", strings.NewReader(c7552Text(b)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CanonicalNetlist(c)
	}
}
