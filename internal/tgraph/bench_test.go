package tgraph

import (
	"fmt"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/prechar"
	"sstiming/internal/twindow"
)

// BenchmarkTGraphNew times one full build and convergence of the c7552
// stand-in, serially and at the default pool width.
func BenchmarkTGraphNew(b *testing.B) {
	lib := prechar.MustLibrary()
	p, _ := benchgen.ProfileByName("c7552")
	c, err := benchgen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, jobs := range []int{1, 0} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if built, err = New(c, Options{Lib: lib, Mode: twindow.ModeProposed, Jobs: jobs}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.NumGates())*float64(b.N)/b.Elapsed().Seconds(), "gates/s")
		})
	}
}

// built keeps the benchmark's result alive.
var built *Graph
