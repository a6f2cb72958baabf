package charlib

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"sstiming/internal/cells"
	"sstiming/internal/device"
	"sstiming/internal/engine"
)

// tinyOptions is a characterisation small enough to run twice in a test:
// a 3-point grid over INV and NAND2 only.
func tinyOptions() Options {
	tech := device.Default05um()
	return Options{
		Tech: tech,
		Grid: []float64{0.2e-9, 0.5e-9, 1.0e-9},
		Cells: []cells.Config{
			{Kind: cells.Inv, N: 1, Tech: tech, LoadInverter: true},
			{Kind: cells.NAND, N: 2, Tech: tech, LoadInverter: true},
		},
		TStep: 4e-12,
	}
}

// TestParallelCharacterizationDeterministic asserts the tentpole guarantee:
// a parallel characterisation produces a byte-identical library to a serial
// one, because engine.Run places every job's result by index and the
// underlying simulations are deterministic.
func TestParallelCharacterizationDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("characterises twice; skipped in -short")
	}
	serialize := func(jobs int, met *engine.Metrics) []byte {
		opts := tinyOptions()
		opts.Jobs = jobs
		opts.Metrics = met
		lib, err := Characterize(opts)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var buf bytes.Buffer
		if err := lib.WriteJSON(&buf); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return buf.Bytes()
	}

	met := engine.NewMetrics()
	serial := serialize(1, nil)
	parallel := serialize(4, met)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel library differs from serial (serial %d bytes, parallel %d bytes)",
			len(serial), len(parallel))
	}

	// The metrics sink must have seen the simulator effort of the
	// parallel run.
	snap := met.Snapshot()
	for _, c := range []engine.Counter{
		engine.CharCells, engine.CharJobs,
		engine.SpiceTransients, engine.SpiceTransSteps, engine.SpiceNewtonIters,
	} {
		if snap.Counters[c.String()] <= 0 {
			t.Errorf("counter %s = %d, want > 0", c, snap.Counters[c.String()])
		}
	}
	if snap.Counters[engine.CharCells.String()] != 2 {
		t.Errorf("charlib/cells = %d, want 2", snap.Counters[engine.CharCells.String()])
	}
}

// TestCharacterizeCancelled asserts that a cancelled context aborts the run
// with a context error instead of finishing it.
func TestCharacterizeCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := tinyOptions()
	opts.Ctx = ctx
	opts.Jobs = 2
	if _, err := Characterize(opts); err == nil {
		t.Fatal("Characterize with a cancelled context should fail")
	}
}

// TestParallelSimulatesEachPointOnce asserts that concurrent pair jobs
// share the memoised simulations instead of racing to repeat them: at any
// width a 3-input cell runs exactly the serial run's simulations and
// publishes the serial library byte for byte.
func TestParallelSimulatesEachPointOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("characterises a NAND3 four times; skipped in -short")
	}
	tech := device.Default05um()
	run := func(jobs int) (int64, []byte) {
		opts := Options{
			Tech:  tech,
			Grid:  []float64{0.2e-9, 0.5e-9, 1.0e-9},
			Cells: []cells.Config{{Kind: cells.NAND, N: 3, Tech: tech, LoadInverter: true}},
			TStep: 4e-12,
			Jobs:  jobs,
		}
		met := engine.NewMetrics()
		opts.Metrics = met
		lib, err := Characterize(opts)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var buf bytes.Buffer
		if err := lib.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return met.Get(engine.CharJobs), buf.Bytes()
	}
	serialJobs, serial := run(1)
	for i := 0; i < 3; i++ {
		jobs, lib := run(4)
		if jobs != serialJobs {
			t.Errorf("run %d at jobs=4: %d simulations, serial run %d", i, jobs, serialJobs)
		}
		if !bytes.Equal(lib, serial) {
			t.Errorf("run %d at jobs=4: library differs from the serial one", i)
		}
	}
}

// TestMemoWaitsForInFlight pins the memo's in-flight rule: callers that
// find their key being simulated wait and take the stored measurement; a
// failed simulation stores nothing, so the next caller simulates again.
func TestMemoWaitsForInFlight(t *testing.T) {
	m := newMemo[int]()
	var sims atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})
	want := measurement{delay: 1, trans: 2}
	sim := func() (measurement, error) {
		if sims.Add(1) == 1 {
			close(started)
		}
		<-release
		return want, nil
	}
	var wg sync.WaitGroup
	got := make([]measurement, 4)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := m.get(7, sim)
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	<-started
	close(release)
	wg.Wait()
	if n := sims.Load(); n != 1 {
		t.Errorf("%d simulations of one key, want 1", n)
	}
	for i, v := range got {
		if v != want {
			t.Errorf("caller %d got %+v, want %+v", i, v, want)
		}
	}

	fail := errors.New("no convergence")
	for i := 0; i < 2; i++ {
		if _, err := m.get(8, func() (measurement, error) { return measurement{}, fail }); !errors.Is(err, fail) {
			t.Fatalf("attempt %d: err = %v, want the simulation's error", i, err)
		}
	}
	v, err := m.get(8, func() (measurement, error) { return want, nil })
	if err != nil || v != want {
		t.Fatalf("after failures: %+v, %v; want a fresh simulation", v, err)
	}
	if len(m.running) != 0 {
		t.Errorf("%d keys left in flight", len(m.running))
	}
}
