// Command perfbench is the repository's benchmark: three long-running,
// seeded, single-process workloads that drive the public entry points of
// the timing engine, the timingd service and the characterisation campaign.
//
//	bash perfbench/run.sh --workload offline --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists and which layers it moves):
//
//   - offline: one caller streams .bench circuits through netlist.Parse,
//     sta.Analyze, RequiredTimes/CheckViolations and WorstPath, plus a
//     separately timed ITR-pruned atpg.RunCampaign phase.
//   - serve: an in-process timingd behind a loopback listener, driven by two
//     closed-loop connections with a Zipf-skewed /analyze mix and durable
//     delta-STA session traffic.
//   - characterize: the 5-cell x 5-point characterisation campaign run as a
//     networked shardnet campaign with two loopback workers.
//
// With --trace 0 the last line of standard output is a JSON object holding
// every end-to-end metric, the timed ones at a reference machine speed (see
// calib.go); with --trace 1 it holds every per-layer metric,
// taken from spans recorded around the benchmark's calls into each layer.
// Every output is checked; a failed check counts as a failed operation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times each workload sets up per run; setup_s is
// their median, so one slow set-up does not move the metric.
const setupReps = 3

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string // scratch directory under .bench_build, removed at exit
	// wrongDigest corrupts every expected output so the checks must fail
	// (the self-test of the output checks).
	wrongDigest bool
	// speed samples the machine's speed from before set-up to the end of
	// the measured window; a workload stops it when the window ends.
	speed *speedSampler
}

func (c *config) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(c.seconds) * time.Second)
}

// metric is one reported value. samples is the number of observations it
// summarises (0 for a metric the workload does not exercise). The units of
// end-to-end and per-layer metrics come from BENCHMARK.json.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// result is what a workload run reports.
type result struct {
	mu        sync.Mutex // guards attempted and failed
	attempted int64
	failed    int64
	// e2e holds the end_to_end metrics of BENCHMARK.json (untraced runs).
	e2e map[string]metric
	// named holds the workload's own end-to-end figures under their
	// descriptive names, for the human-readable report.
	named []metric
	// layer holds the per_layer metrics (traced runs).
	layer map[string]metric
	// notes are extra report lines (noise statistics, trace summary).
	notes []string
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *result) setE2E(name string, value float64, samples int) {
	r.e2e[name] = metric{name: name, value: value, samples: samples}
}

func (r *result) setLayer(name string, value float64, samples int) {
	r.layer[name] = metric{name: name, value: value, samples: samples}
}

func (r *result) addNamed(name, unit string, value float64, samples int) {
	r.named = append(r.named, metric{name: name, unit: unit, value: value, samples: samples})
}

// attempt counts one checked operation.
func (r *result) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// fail counts one failed operation or check.
func (r *result) fail(format string, a ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", a...)
	}
}

// catalogMetric is one metric entry of BENCHMARK.json.
type catalogMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadCatalog reads the end-to-end and per-layer metric lists from
// BENCHMARK.json, which fixes their names, units and order.
func loadCatalog() (e2e, layer []catalogMetric, err error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var b struct {
		EndToEnd []catalogMetric `json:"end_to_end"`
		PerLayer []catalogMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return b.EndToEnd, b.PerLayer, nil
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "offline, serve or characterize")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&cfg.wrongDigest, "wrong-digest", false, "self-test: corrupt every expected output so the checks fail")
	writeExpected := flag.Bool("write-expected", false, "recompute the expected digests under perfbench/expected and exit")
	flag.Parse()
	cfg.trace = trace == 1

	if *writeExpected {
		if err := writeExpectedDigests(); err != nil {
			fatal("%v", err)
		}
		return
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fatal("--seconds must be >= 1 and --trace 0 or 1")
	}
	run := map[string]func(*config) (*result, error){
		"offline":      runOffline,
		"serve":        runServe,
		"characterize": runCharacterize,
	}[cfg.workload]
	if run == nil {
		fatal("unknown --workload %q (want offline, serve or characterize)", cfg.workload)
	}
	e2e, layer, err := loadCatalog()
	if err != nil {
		fatal("%v", err)
	}

	base := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fatal("%v", err)
	}
	work, err := os.MkdirTemp(base, cfg.workload+"-")
	if err != nil {
		fatal("%v", err)
	}
	cfg.work = work
	cfg.speed = startSampler()
	res, err := run(&cfg)
	cfg.speed.stopSampler()
	os.RemoveAll(work)
	if err != nil {
		fatal("%s: %v", cfg.workload, err)
	}
	if err := emit(&cfg, res, e2e, layer); err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", a...)
	os.Exit(1)
}

// emit prints the human-readable report and then, as the last line of
// standard output, the JSON result.
func emit(cfg *config, r *result, e2e, layer []catalogMetric) error {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d (%s)\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	failRatio := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Printf("  %-32s %14d\n", "attempted", r.attempted)
	fmt.Printf("  %-32s %14d\n", "failed", r.failed)
	fmt.Printf("  %-32s %14.6g ratio\n", "fail_ratio", failRatio)
	for _, m := range r.named {
		fmt.Printf("  %-32s %14.6g %-6s (n=%d)\n", m.name, m.value, m.unit, m.samples)
	}
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}

	out := map[string]any{}
	catalog, have := e2e, r.e2e
	if cfg.trace {
		catalog, have = layer, r.layer
		fmt.Println("  per-layer (0 with n=0: layer not exercised by this workload):")
	} else {
		fmt.Println("  end-to-end:")
	}
	listed := map[string]bool{}
	for _, c := range catalog {
		listed[c.Name] = true
		m, ok := have[c.Name]
		if !ok && !cfg.trace {
			return fmt.Errorf("end-to-end metric %s was not measured", c.Name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite", c.Name)
		}
		fmt.Printf("    %-34s %14.6g %-6s (n=%d)\n", c.Name, m.value, c.Unit, m.samples)
		out[c.Name] = map[string]any{"value": m.value, "unit": c.Unit}
	}
	for name := range have {
		if !listed[name] {
			return fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%g", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// interval is when one set-up ran.
type interval struct{ from, to time.Time }

// repeatSetup runs setup setupReps times, releasing all but the last state,
// and returns that state with when each set-up ran.
func repeatSetup[T any](setup func() (T, error), release func(T)) (T, []interval, error) {
	var state T
	var runs []interval
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			// Return the previous set-up's memory, so that peak_rss_mb
			// measures one set-up and the measured window, not three.
			release(state)
			var zero T
			state = zero
			debug.FreeOSMemory()
		}
		start := time.Now()
		s, err := setup()
		if err != nil {
			return state, nil, err
		}
		runs = append(runs, interval{start, time.Now()})
		state = s
	}
	return state, runs, nil
}

// finishCommon fills the end-to-end metrics every workload shares. The
// workload must have stopped cfg.speed. setup_s is the median set-up time
// at the reference speed.
func finishCommon(cfg *config, r *result, setups []interval) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	var secs, wall []float64
	for _, iv := range setups {
		d := iv.to.Sub(iv.from).Seconds()
		wall = append(wall, d)
		secs = append(secs, d*cfg.speed.scale(iv.from, iv.to))
	}
	setupS := quantile(secs, 0.5)
	r.setE2E("setup_s", setupS, setupReps)
	r.setE2E("ok_ratio", 1-float64(r.failed)/float64(max(r.attempted, 1)), int(r.attempted))
	r.setE2E("peak_rss_mb", rss, 1)
	r.addNamed("setup_s", "s", setupS, setupReps)
	r.addNamed("peak_rss_mb", "MB", rss, 1)
	r.notes = append(r.notes, fmt.Sprintf("wall-clock setup_s %.4g", quantile(wall, 0.5)), cfg.speed.note())
	return nil
}

// exactCounters takes the exact work counters twice and reports them; a
// difference between the two passes is nondeterminism and fails the run's
// checks.
func exactCounters(r *result, count func() (map[string]float64, error)) error {
	a, err := count()
	if err != nil {
		return err
	}
	b, err := count()
	if err != nil {
		return err
	}
	r.attempt()
	if !reflect.DeepEqual(a, b) {
		r.fail("nondeterminism: exact counters differ between two passes: %v vs %v", a, b)
	}
	for name, v := range a {
		r.setLayer(name, v, 2)
	}
	return nil
}
