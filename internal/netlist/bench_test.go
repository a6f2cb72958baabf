package netlist_test

import (
	"strings"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/netlist"
)

// BenchmarkParse parses and builds the c7552 stand-in from .bench text.
func BenchmarkParse(b *testing.B) {
	p, _ := benchgen.ProfileByName("c7552")
	c, err := benchgen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	if err := c.Write(&sb); err != nil {
		b.Fatal(err)
	}
	text := sb.String()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if parsed, err = netlist.Parse("c7552", strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

// parsed keeps the benchmark's result alive.
var parsed *netlist.Circuit
