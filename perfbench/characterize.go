package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sstiming/internal/cells"
	"sstiming/internal/charlib"
	"sstiming/internal/device"
	"sstiming/internal/engine"
	"sstiming/internal/shard"
	"sstiming/internal/shardnet"
	"sstiming/internal/store"
)

// The characterize workload runs cmd/bench's 5-cell x 5-point campaign as a
// networked shardnet campaign: a coordinator on a loopback listener and
// charWorkers remote workers, all in this process. Each published library
// must be byte-identical to a single-process campaign (its SHA-256 is kept
// in expected/characterize.json) and must do exactly the single-process
// campaign's work, the solver points and cells kept beside that digest.
// Throughput counts that fixed work, not the work executed, so shards a
// worker redoes cost wall-clock without adding to the numerator. The seed
// drives the workers' retry jitter; the campaign itself is fixed.
const charWorkers = 2

// charOptions is the campaign: five cells over a five-point grid. The
// cells are listed largest first: the coordinator leases shards in list
// order, and with the small cells last the two workers' loads even out
// whichever worker wins each lease race. In cmd/bench's smallest-first
// order the campaign's wall-clock depended on those races and varied
// between runs by a third. The published library does not depend on the
// order.
func charOptions(jobs int) charlib.Options {
	tech := device.Default05um()
	return charlib.Options{
		Tech: tech,
		Grid: []float64{0.1e-9, 0.2e-9, 0.5e-9, 1.0e-9, 2.0e-9},
		Cells: []cells.Config{
			{Kind: cells.NOR, N: 3, Tech: tech, LoadInverter: true},
			{Kind: cells.NAND, N: 3, Tech: tech, LoadInverter: true},
			{Kind: cells.NOR, N: 2, Tech: tech, LoadInverter: true},
			{Kind: cells.NAND, N: 2, Tech: tech, LoadInverter: true},
			{Kind: cells.Inv, N: 1, Tech: tech, LoadInverter: true},
		},
		TStep: 3e-12,
		Jobs:  jobs,
	}
}

// singleProcessCampaign characterises the campaign in this process at pool
// width jobs, publishes it under dir and returns the library's SHA-256 and
// the wall-clock time. The library does not depend on jobs, but the solver
// point count does above 1: concurrent simulations of one memoised point
// can both run.
func singleProcessCampaign(dir string, jobs int, met *engine.Metrics) (string, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	o := charOptions(jobs)
	o.Metrics = met
	out := filepath.Join(dir, "single.json")
	start := time.Now()
	lib, err := charlib.Characterize(o)
	if err != nil {
		return "", 0, err
	}
	ro := o.Resolved()
	if _, err := store.WriteLibrary(out, lib, ro.Grid, ro.NCPairs); err != nil {
		return "", 0, err
	}
	d := time.Since(start)
	raw, err := os.ReadFile(out)
	if err != nil {
		return "", 0, err
	}
	return sha256Hex(raw), d, nil
}

type charState struct {
	exp *expected
}

// setupCharacterize loads the expected digest and warms the solver by
// characterising the campaign's NAND2 alone, so the first timed campaign
// does not pay for cold code and allocator state.
func setupCharacterize(cfg *config) (*charState, error) {
	exp, err := loadExpected("characterize.json", cfg.wrongDigest)
	if err != nil {
		return nil, err
	}
	if exp.SolverPoints <= 0 || exp.Cells <= 0 {
		return nil, fmt.Errorf("expected/characterize.json has no solver point or cell count; regenerate it with --write-expected")
	}
	o := charOptions(1)
	o.Cells = o.Cells[3:4]
	if _, err := charlib.Characterize(o); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &charState{exp: exp}, nil
}

// campaignStats is one networked campaign.
type campaignStats struct {
	ended  time.Time
	wall   time.Duration
	sha    string
	counts map[string]int64
}

// networkedCampaign runs one campaign through the HTTP coordinator with
// remote workers over loopback. Its wall-clock runs from the coordinator's
// start to the merged publish; idle workers drain afterwards, off the
// clock.
func networkedCampaign(dir string, seed int64, tr *tracer) (campaignStats, error) {
	met := engine.NewMetrics()
	op := tr.newOp()
	root := tr.begin("shardnet.campaign", op, 0)
	defer root.end()
	out := filepath.Join(dir, "networked.json")
	sp := tr.begin("shardnet.NewServer", op, root.id)
	srv, err := shardnet.NewServer(shardnet.ServerOptions{
		Shard: shard.Options{
			Charlib:     charOptions(1),
			Out:         out,
			ShardCells:  1,
			LeaseTTL:    2 * time.Second,
			MaxAttempts: 8,
			Backoff:     25 * time.Millisecond,
			Metrics:     met,
		},
	})
	sp.end()
	if err != nil {
		return campaignStats{}, fmt.Errorf("coordinator: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return campaignStats{}, err
	}
	base := "http://" + ln.Addr().String()

	start := time.Now()
	srv.Start(ln)
	var wg sync.WaitGroup
	werrs := make([]error, charWorkers)
	for i := 0; i < charWorkers; i++ {
		wdir := filepath.Join(dir, fmt.Sprintf("worker-%d", i))
		o := charOptions(1)
		o.Metrics = met
		wopts := shardnet.WorkerOptions{
			Client: shardnet.ClientOptions{Base: base, Seed: seed*int64(charWorkers) + int64(i), Metrics: met},
			Shard: shard.Options{
				Charlib:    o,
				Out:        filepath.Join(wdir, "unused.json"),
				Dir:        filepath.Join(wdir, "work.campaign"),
				ShardCells: 1,
			},
			Name: fmt.Sprintf("perfbench-w%d", i),
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wsp := tr.begin("shardnet.RunWorker", op, root.id)
			_, werrs[i] = shardnet.RunWorker(context.Background(), wopts)
			wsp.end()
		}(i)
	}
	sp = tr.begin("shardnet.WaitResolved", op, root.id)
	err = srv.WaitResolved(context.Background())
	sp.end()
	if err == nil {
		sp = tr.begin("shardnet.MergeAndPublish", op, root.id)
		_, err = srv.MergeAndPublish()
		sp.end()
	}
	wall := time.Since(start)
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := srv.Shutdown(ctx); err == nil && serr != nil {
		err = fmt.Errorf("coordinator shutdown: %w", serr)
	}
	if err != nil {
		return campaignStats{}, err
	}
	for i, werr := range werrs {
		if werr != nil {
			return campaignStats{}, fmt.Errorf("worker %d: %w", i, werr)
		}
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		return campaignStats{}, err
	}
	return campaignStats{
		ended: start.Add(wall),
		wall:  wall,
		sha:   sha256Hex(raw),
		counts: map[string]int64{
			"charlib.solver_points":   met.Get(engine.CharJobs),
			"spice.newton_iters":      met.Get(engine.SpiceNewtonIters),
			"spice.step_retries":      met.Get(engine.SpiceStepRetries),
			"shardnet.requests":       met.Get(engine.NetRequests),
			"shardnet.retries":        met.Get(engine.NetRetries),
			"shardnet.bytes_uploaded": met.Get(engine.NetBytesUploaded),
			"cells":                   met.Get(engine.CharCells),
		},
	}, nil
}

// exactCharCounts are the campaign counters that must repeat exactly.
var exactCharCounts = []string{"charlib.solver_points", "spice.newton_iters", "spice.step_retries"}

func runCharacterize(cfg *config) (*result, error) {
	st, setups, err := repeatSetup(func() (*charState, error) { return setupCharacterize(cfg) }, func(*charState) {})
	if err != nil {
		return nil, err
	}
	r := newResult()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var walls, tracedWalls, untracedWalls []float64
	var camps []campaignStats
	var pointObs, cellObs []obs // campaigns, weighted by solver points and by cells
	start := time.Now()
	deadline := cfg.deadline(start)
	// A traced run needs two campaigns to compare the exact counters.
	for i := 0; i == 0 || time.Now().Before(deadline) || (tr != nil && i < 2); i++ {
		r.attempt()
		dir := filepath.Join(cfg.work, fmt.Sprintf("campaign-%d", i))
		// A traced run alternates traced and untraced campaigns; the
		// difference between their wall-clock times is the tracing
		// overhead.
		ctr := tr
		if i%2 == 1 {
			ctr = nil
		}
		cs, err := networkedCampaign(dir, cfg.seed, ctr)
		os.RemoveAll(dir)
		if err != nil {
			r.fail("campaign %d: %v", i, err)
			continue
		}
		camps = append(camps, cs)
		walls = append(walls, cs.wall.Seconds())
		if ctr != nil {
			tracedWalls = append(tracedWalls, cs.wall.Seconds())
		} else {
			untracedWalls = append(untracedWalls, cs.wall.Seconds())
		}
		at := cs.ended.Sub(start)
		pointObs = append(pointObs, obs{at: at, d: cs.wall, w: float64(st.exp.SolverPoints)})
		cellObs = append(cellObs, obs{at: at, d: cs.wall, w: float64(st.exp.Cells)})
		if cs.sha != st.exp.Library {
			r.fail("campaign %d: library sha256 %.12s, want %.12s", i, cs.sha, st.exp.Library)
		}
		if got := cs.counts["charlib.solver_points"]; got != st.exp.SolverPoints {
			r.fail("campaign %d: executed %d solver points, the single-process campaign %d", i, got, st.exp.SolverPoints)
		}
		if got := cs.counts["cells"]; got != st.exp.Cells {
			r.fail("campaign %d: characterised %d cells, the single-process campaign %d", i, got, st.exp.Cells)
		}
	}
	// Campaign times are scaled to the reference speed (see calib.go); the
	// report also prints them as measured.
	cfg.speed.stopSampler()
	norm := cfg.speed.normalize(pointObs, start)
	p50 := msQuantile(norm, 0.5)
	n := len(norm)
	r.setE2E("work_per_s", totalRate(norm), n)
	r.setE2E("op_ms_p50", p50, n)
	r.setE2E("op_ms_p90", msQuantile(norm, 0.9), n)
	r.setE2E("aux_per_s", totalRate(cfg.speed.normalize(cellObs, start)), n)
	r.addNamed("char_wall_s", "s", p50/1000, n)
	r.addNamed("char_points_per_s", "1/s", totalRate(norm), n)
	r.notes = append(r.notes, fmt.Sprintf("campaign walls as measured (s): %.3f", walls),
		fmt.Sprintf("at the reference speed (s): %.3f", durations(norm)))

	if tr != nil && len(camps) > 0 {
		r.attempt()
		for _, name := range exactCharCounts {
			for _, cs := range camps[1:] {
				if cs.counts[name] != camps[0].counts[name] {
					r.fail("nondeterminism: %s differs between campaigns: %d vs %d", name, cs.counts[name], camps[0].counts[name])
				}
			}
			r.setLayer(name, float64(camps[0].counts[name]), len(camps))
		}
		for _, name := range []string{"shardnet.requests", "shardnet.retries", "shardnet.bytes_uploaded"} {
			var xs []float64
			for _, cs := range camps {
				xs = append(xs, float64(cs.counts[name]))
			}
			r.setLayer(name, quantile(xs, 0.5), len(xs))
		}

		// The single-process reference, traced run only.
		r.attempt()
		dir := filepath.Join(cfg.work, "single")
		sp := tr.begin("charlib.Characterize", tr.newOp(), 0)
		sha, d, err := singleProcessCampaign(dir, 0, nil)
		sp.end()
		os.RemoveAll(dir)
		if err != nil {
			r.fail("single-process campaign: %v", err)
		} else if sha != st.exp.Library {
			r.fail("single-process library sha256 %.12s, want %.12s", sha, st.exp.Library)
		}
		r.setLayer("charlib.single_process_s", d.Seconds(), 1)
		r.setLayer("shardnet.overhead_s", quantile(walls, 0.5)-d.Seconds(), len(walls))

		r.setLayer("trace.overhead_pct",
			100*(ratio(quantile(tracedWalls, 0.5), quantile(untracedWalls, 0.5))-1), len(tracedWalls))
		lines, err := tr.write(traceFile(cfg))
		if err != nil {
			return nil, err
		}
		r.notes = append(r.notes, lines...)
	}
	return r, finishCommon(cfg, r, setups)
}
