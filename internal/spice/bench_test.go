package spice_test

import (
	"testing"

	"sstiming/internal/cells"
	"sstiming/internal/device"
	"sstiming/internal/engine"
	"sstiming/internal/spice"
)

// nand3Bench is the characterisation testbench of a NAND3 with its load
// inverter (8 nodes and 4 sources: a 12×12 MNA system): inputs 0 and 1
// fall together with Tx = Ty = 2 ns, input 2 holds high, and the window is
// charlib's, simulated trapezoidally at 3 ps (1,950 steps).
func nand3Bench(tb testing.TB) (*spice.Circuit, spice.TransientOpts) {
	tech := device.Default05um()
	cfg := cells.Config{Kind: cells.NAND, N: 3, Tech: tech, LoadInverter: true}
	// The arrival starts a 2 ns ramp 0.1 ns after t = 0, as charlib does.
	const tt, arr = 2e-9, 0.1e-9 + 2e-9/0.8/2
	ckt, err := cfg.Build([]cells.Drive{cells.Falling(arr, tt), cells.Falling(arr, tt), cells.SteadyHigh(tech)})
	if err != nil {
		tb.Fatal(err)
	}
	if d := ckt.Dim(); d != 12 {
		tb.Fatalf("NAND3 testbench has %d unknowns, want 12", d)
	}
	return ckt, spice.TransientOpts{
		TStop:  arr + tt + 2.5e-9,
		TStep:  3e-12,
		Method: spice.Trapezoidal,
		Record: []string{"out"},
	}
}

// BenchmarkTransient runs the NAND3 testbench transient end to end:
// template stamping, MOSFET evaluation and the planned LU per Newton
// iteration. newton/op is the deterministic work per transient.
func BenchmarkTransient(b *testing.B) {
	ckt, opts := nand3Bench(b)
	met := engine.NewMetrics()
	opts.Metrics = met
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ckt.Transient(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	snap := met.Snapshot().Counters
	b.ReportMetric(float64(snap[engine.SpiceNewtonIters.String()])/float64(b.N), "newton/op")
	b.ReportMetric(float64(snap[engine.SpiceTransSteps.String()])/float64(b.N), "steps/op")
}

// BenchmarkSolve factors and solves one stamped 12×12 NAND3 matrix taken
// mid-transition: along the pivot plan (the production path) and with the
// frozen dense LU it replaced.
func BenchmarkSolve(b *testing.B) {
	ckt, opts := nand3Bench(b)
	plan, dense, err := spice.StampedNewton(ckt, opts.Method, 2.5e-9, opts.TStep)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		solve func() error
	}{{"plan", plan}, {"dense", dense}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
