package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sstiming/internal/benchgen"
	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/prechar"
	"sstiming/internal/reqcache"
	"sstiming/internal/service"
	"sstiming/internal/sessionlog"
	"sstiming/internal/sta"
	"sstiming/internal/store"
	"sstiming/internal/tgraph"
	"sstiming/internal/twindow"
)

// The serve workload drives an in-process timingd, configured with the
// timingd flag defaults and durable sessions, through a loopback listener
// from serveClients closed-loop connections, each waiting for its reply the
// way flow scripts call the daemon.
//
// analyzeOps of every opBlock operations are POST /analyze. Every
// 2*len(staScales) of them cover each scale once with windows on and once
// off, and one in canonEvery sends the netlist with its gate lines
// shuffled, so repeats also hit through the canonical key, not only the
// raw-bytes alias. Each client deals these choices from decks it shuffles
// (see deck), so every run sees the same mix of operations, sizes and
// response shapes, and a latency percentile over the mix does not jump
// with the mix's chance proportions. The netlist of the chosen scale comes
// from a Zipf-skewed ranking the seed shuffles, so the hot set differs
// between seeds. The windows-on responses of the pool total more than the
// 64 MiB cache budget, so entries are evicted.
// The other operations are durable session traffic: create, a seeded
// script of sessionDeltas deltas with GET /windows after every
// windowsEvery-th, then delete. Sessions alternate between c432- and
// c880-scale netlists.
const (
	serveClients      = 2
	servePoolVariants = 56
	sessionVariants   = 8
	sessionDeltas     = 80
	windowsEvery      = 4
	opBlock           = 5
	analyzeOps        = 3
	canonEvery        = 4
	zipfS             = 1.1
	zipfV             = 8
	warmPrefix        = 600
)

// poolEntry is one netlist of the /analyze pool: its .bench text, and the
// text and its gate-shuffled twin pre-encoded as JSON strings, so a request
// body is three copies rather than an encoding pass.
type poolEntry struct {
	text               string
	quoted, quotedShuf []byte
}

// analyzeBody builds the POST /analyze body for a pool entry.
func analyzeBody(quoted []byte, windows bool) []byte {
	tail := `,"windows":false}`
	if windows {
		tail = `,"windows":true}`
	}
	b := make([]byte, 0, len(`{"netlist":`)+len(quoted)+len(tail))
	b = append(b, `{"netlist":`...)
	b = append(b, quoted...)
	return append(b, tail...)
}

// analyzeKey identifies one response: the netlist and the windows flag.
type analyzeKey struct {
	scale, variant int
	windows        bool
}

type serveState struct {
	lib      *core.Library
	pool     [][]poolEntry // [scale][variant]
	sessions [][]string    // session netlists per scale (c432, c880)
	rank     [][]int       // per scale: Zipf rank -> variant
	srv      *service.Server
	hs       *http.Server
	served   chan struct{} // closed when hs.Serve has returned
	base     string
	client   *http.Client
	dir      string
}

// shuffleGates permutes the gate lines of a .bench text, keeping the
// header, input and output declarations (whose order is semantic).
func shuffleGates(text string, rng *rand.Rand) string {
	lines := strings.SplitAfter(text, "\n")
	var head, gates []string
	for _, l := range lines {
		if strings.Contains(l, " = ") {
			gates = append(gates, l)
		} else {
			head = append(head, l)
		}
	}
	rng.Shuffle(len(gates), func(i, j int) { gates[i], gates[j] = gates[j], gates[i] })
	return strings.Join(head, "") + strings.Join(gates, "")
}

// servePool generates the /analyze pool and the session netlists.
func servePool() ([][]poolEntry, [][]string, error) {
	pool := make([][]poolEntry, len(staScales))
	sessions := make([][]string, len(atpgScales))
	for si, scale := range staScales {
		p, _ := benchgen.ProfileByName(scale)
		for v := 0; v < servePoolVariants; v++ {
			seed := p.Seed*7919 + int64(v) + 1
			c, err := benchgen.GenerateRand(p, rand.New(rand.NewSource(seed)))
			if err != nil {
				return nil, nil, err
			}
			var b strings.Builder
			if err := c.Write(&b); err != nil {
				return nil, nil, err
			}
			text := b.String()
			quoted, err := json.Marshal(text)
			if err != nil {
				return nil, nil, err
			}
			quotedShuf, err := json.Marshal(shuffleGates(text, rand.New(rand.NewSource(seed))))
			if err != nil {
				return nil, nil, err
			}
			pool[si] = append(pool[si], poolEntry{text: text, quoted: quoted, quotedShuf: quotedShuf})
			if si < len(atpgScales) && v < sessionVariants {
				sessions[si] = append(sessions[si], text)
			}
		}
	}
	return pool, sessions, nil
}

// setupServe generates the inputs, boots the daemon with the timingd flag
// defaults plus a session directory, and runs the untimed warm prefix that
// fills the cache.
func setupServe(cfg *config, rank [][]int, r *result, dg *digests) (*serveState, error) {
	lib, err := prechar.Library()
	if err != nil {
		return nil, err
	}
	pool, sessions, err := servePool()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "sessions-")
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Options{
		Lib:                lib,
		DefaultTimeout:     30 * time.Second,
		CacheEntries:       512,
		CacheBytes:         64 << 20,
		CacheMaxEntryBytes: 4 << 20,
		SessionDir:         dir,
		Metrics:            engine.NewMetrics(),
	})
	if err != nil {
		return nil, err
	}
	if _, _, err := srv.RecoverSessions(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	st := &serveState{
		lib: lib, pool: pool, sessions: sessions, rank: rank, srv: srv, hs: hs, served: served, dir: dir,
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: serveClients, MaxIdleConnsPerHost: serveClients,
		}},
	}
	// The warm prefix runs on serveClients connections, as the measured
	// traffic does.
	var wg sync.WaitGroup
	for i := 0; i < serveClients; i++ {
		c := newServeClient(st, rand.New(rand.NewSource(cfg.seed*31+7+int64(i))), nil, r, dg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < warmPrefix/serveClients; j++ {
				c.analyze(0)
			}
		}()
	}
	wg.Wait()
	return st, nil
}

func (st *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = st.hs.Shutdown(ctx) // best effort: the run is over either way
	<-st.served
	_ = st.srv.Drain(ctx)
	st.client.CloseIdleConnections()
	os.RemoveAll(st.dir)
}

// digests holds a hash of the first normalised body seen for every
// /analyze key; every later response for the key must hash the same. The
// hash is maphash, not SHA-256: the clients hash every body, and a
// cryptographic hash's CPU time competed with the daemon for the two CPUs.
type digests struct {
	mu    sync.Mutex
	seed  maphash.Seed
	m     map[analyzeKey]uint64
	wrong bool
}

func newDigests(wrong bool) *digests {
	return &digests{seed: maphash.MakeSeed(), m: map[analyzeKey]uint64{}, wrong: wrong}
}

// sum hashes a body with its per-request fields cut.
func (d *digests) sum(body []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(d.seed)
	for _, part := range normalizeBody(body) {
		h.Write(part)
	}
	return h.Sum64()
}

// check records or compares the body's hash and reports whether it matches.
func (d *digests) check(k analyzeKey, body []byte) bool {
	sum := d.sum(body)
	d.mu.Lock()
	defer d.mu.Unlock()
	want, ok := d.m[k]
	if !ok {
		if d.wrong {
			sum++
		}
		d.m[k] = sum
		return true
	}
	return want == sum
}

// normalizeBody returns the parts of an indented response body that remain
// once the per-request top-level fields (request_id, elapsed_ms) are cut.
func normalizeBody(body []byte) [][]byte {
	var parts [][]byte
	for _, field := range []string{"\n  \"request_id\": ", "\n  \"elapsed_ms\": "} {
		i := bytes.Index(body, []byte(field))
		if i < 0 {
			continue
		}
		parts = append(parts, body[:i])
		j := bytes.IndexByte(body[i+1:], '\n')
		if j < 0 {
			body = nil
		} else {
			body = body[i+1+j:]
		}
	}
	return append(parts, body)
}

// serveClient is one closed-loop connection's operation stream.
type serveClient struct {
	st  *serveState
	rng *rand.Rand
	tr  *tracer
	r   *result
	dg  *digests

	zipf     []*rand.Zipf
	kind     deck // operation kind: below analyzeOps is /analyze
	class    deck // /analyze scale and windows flag
	canon    deck // 0 sends the gate-shuffled netlist
	sess     *liveSession
	scripts  []*liveSession   // sessions begun, for the layer probes
	lat      map[string][]obs // by class: "analyze", "analyze_hit", "delta", ...
	start    time.Time        // start of the measured window
	all      []obs            // every operation, weight 1
	sessW    []obs            // every operation, weight 1 for session operations
	last     obs              // the latest operation
	busy     time.Duration
	ops      int
	sessOps  int
	xcache   map[string]int
	bodyKB   []float64
	traced   []float64 // analyze-hit latencies of traced operations
	untraced []float64
	captured map[analyzeKey][]byte // first body per (scale, windows), traced runs only
	winBody  [][]byte
	buf      bytes.Buffer // reply buffer, reused across requests
	// pending holds the evidence of every /windows reply, checked against a
	// rebuild once the measured window is over.
	pending []windowsEvidence
	// checkTime is the time spent on output checks inside the measured
	// window (hashing bodies, copying session state).
	checkTime time.Duration
}

func newServeClient(st *serveState, rng *rand.Rand, tr *tracer, r *result, dg *digests) *serveClient {
	c := &serveClient{st: st, rng: rng, tr: tr, r: r, dg: dg,
		lat: map[string][]obs{}, xcache: map[string]int{}, captured: map[analyzeKey][]byte{},
		kind: deck{rng: rng, n: opBlock}, class: deck{rng: rng, n: 2 * len(staScales)}, canon: deck{rng: rng, n: canonEvery}}
	for range staScales {
		c.zipf = append(c.zipf, rand.NewZipf(rng, zipfS, zipfV, uint64(servePoolVariants-1)))
	}
	return c
}

// do sends one request and reads the whole reply, timing exactly that into
// c.last. The returned body is valid until the client's next request.
func (c *serveClient) do(class, method, path string, body []byte, traced bool) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, c.st.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	tr := c.tr
	if !traced {
		tr = nil
	}
	sp := tr.begin("http."+class, tr.newOp(), 0)
	start := time.Now()
	resp, err := c.st.client.Do(req)
	if err != nil {
		sp.end()
		return nil, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	sp.end()
	c.busy += d
	c.ops++
	o := obs{at: time.Since(c.start), d: d, w: 1}
	c.all = append(c.all, o)
	c.last = o
	if class == "analyze" {
		o.w = 0
	}
	c.sessW = append(c.sessW, o)
	return resp, c.buf.Bytes(), err
}

// deck deals 0..n-1 in a shuffled order, reshuffling after every n, so
// each value comes up exactly once per n draws.
type deck struct {
	rng   *rand.Rand
	n     int
	cards []int
}

func (d *deck) next() int {
	if len(d.cards) == 0 {
		d.cards = d.rng.Perm(d.n)
	}
	v := d.cards[0]
	d.cards = d.cards[1:]
	return v
}

// next runs one operation of the stream.
func (c *serveClient) next(i int) {
	if c.kind.next() < analyzeOps {
		c.analyze(i)
	} else {
		c.session(i)
	}
}

func (c *serveClient) analyze(i int) {
	cl := c.class.next()
	scale := cl / 2
	k := analyzeKey{scale: scale, variant: c.st.rank[scale][c.zipf[scale].Uint64()], windows: cl%2 == 1}
	e := c.st.pool[scale][k.variant]
	quoted := e.quoted
	if c.canon.next() == 0 {
		quoted = e.quotedShuf
	}
	body := analyzeBody(quoted, k.windows)
	c.r.attempt()
	traced := i%2 == 0
	resp, raw, err := c.do("analyze", "POST", "/analyze", body, traced)
	if err != nil {
		c.r.fail("/analyze: %v", err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		c.r.fail("/analyze answered %d: %.200s", resp.StatusCode, raw)
		return
	}
	d := c.last.d
	xc := resp.Header.Get("X-Cache")
	c.xcache[xc]++
	class := "analyze_miss"
	if xc == "hit" {
		class = "analyze_hit"
		if c.tr != nil {
			if traced {
				c.traced = append(c.traced, ms(d))
			} else {
				c.untraced = append(c.untraced, ms(d))
			}
		}
	}
	c.lat[class] = append(c.lat[class], c.last)
	c.lat["analyze"] = append(c.lat["analyze"], c.last)
	c.bodyKB = append(c.bodyKB, float64(len(raw))/1024)
	if c.tr != nil {
		c.capture(k, raw)
	}
	t0 := time.Now()
	ok := c.dg.check(k, raw)
	c.checkTime += time.Since(t0)
	if !ok {
		c.r.fail("/analyze %+v (%s): body differs from the first response for the same request", k, xc)
	}
}

// capture keeps the first body of each (scale, windows) class for the
// layer probes.
func (c *serveClient) capture(k analyzeKey, raw []byte) {
	for have := range c.captured {
		if have.scale == k.scale && have.windows == k.windows {
			return
		}
	}
	c.captured[k] = bytes.Clone(raw)
}

// liveSession is a session's script and the client's model of its state,
// from which /windows is checked against a from-scratch rebuild.
type liveSession struct {
	id      string
	text    string
	circuit service.CircuitJSON // as the create reply reported it
	cube    nineval.Cube
	perPI   map[string]twindow.PITiming
	swaps   map[string]netlist.GateKind // gate output net -> current kind
	script  []scriptStep
	next    int
	// windowsAt is the delta count of the last GET /windows.
	windowsAt int
}

type scriptStep struct {
	req    service.SessionDeltaRequest
	assign nineval.Cube
}

func (c *serveClient) session(i int) {
	s := c.sess
	traced := i%2 == 0
	c.sessOps++
	switch {
	case s == nil:
		texts := c.st.sessions[len(c.scripts)%len(c.st.sessions)]
		text := texts[c.rng.Intn(len(texts))]
		ns, err := newLiveSession(text, c.st.lib, c.rng)
		if err != nil {
			c.r.fail("session script: %v", err)
			return
		}
		body, _ := json.Marshal(service.SessionCreateRequest{Netlist: text}) // a struct of strings always encodes
		c.r.attempt()
		resp, raw, err := c.do("session.create", "POST", "/session", body, traced)
		if err != nil || resp.StatusCode != http.StatusCreated {
			c.r.fail("POST /session: %v %.200s", err, raw)
			return
		}
		var cr service.SessionCreateResponse
		if err := json.Unmarshal(raw, &cr); err != nil {
			c.r.fail("POST /session: %v", err)
			return
		}
		ns.id = cr.SessionID
		ns.circuit = cr.Circuit
		c.sess = ns
		c.scripts = append(c.scripts, ns)
		c.lat["session_create"] = append(c.lat["session_create"], c.last)
	case s.next == len(s.script):
		c.r.attempt()
		resp, raw, err := c.do("session.delete", "DELETE", "/session/"+s.id, nil, traced)
		c.sess = nil
		if err != nil || resp.StatusCode != http.StatusOK {
			c.r.fail("DELETE /session: %v %.200s", err, raw)
			return
		}
		c.lat["session_delete"] = append(c.lat["session_delete"], c.last)
	case s.next > 0 && s.next%windowsEvery == 0 && s.windowsAt != s.next:
		c.r.attempt()
		resp, raw, err := c.do("session.windows", "GET", "/session/"+s.id+"/windows", nil, traced)
		s.windowsAt = s.next
		if err != nil || resp.StatusCode != http.StatusOK {
			c.r.fail("GET /windows: %v %.200s", err, raw)
			return
		}
		c.lat["windows"] = append(c.lat["windows"], c.last)
		if c.tr != nil && len(c.winBody) < 6 {
			c.winBody = append(c.winBody, bytes.Clone(raw))
		}
		t0 := time.Now()
		c.pending = append(c.pending, s.evidence(raw, c.dg))
		c.checkTime += time.Since(t0)
	default:
		step := s.script[s.next]
		body, _ := json.Marshal(step.req) // strings and finite floats always encode
		c.r.attempt()
		resp, raw, err := c.do("session.delta", "POST", "/session/"+s.id+"/delta", body, traced)
		s.next++
		if err != nil || resp.StatusCode != http.StatusOK {
			c.r.fail("POST /delta: %v %.200s", err, raw)
			return
		}
		s.apply(step)
		c.lat["delta"] = append(c.lat["delta"], c.last)
	}
}

var twoFrame = []string{"01", "10", "11", "00", "x1", "1x"}

func parseTwoFrame(v string) nineval.Value {
	f := func(b byte) nineval.Frame {
		switch b {
		case '0':
			return nineval.F0
		case '1':
			return nineval.F1
		}
		return nineval.FX
	}
	return nineval.Value{V1: f(v[0]), V2: f(v[1])}
}

// wireKinds maps the session API's gate kind names to gate kinds.
var wireKinds = map[string]netlist.GateKind{"not": netlist.Inv, "buff": netlist.Buf, "nand": netlist.Nand, "nor": netlist.Nor}

func kindWire(k netlist.GateKind) string {
	switch k {
	case netlist.Inv:
		return "not"
	case netlist.Buf:
		return "buff"
	case netlist.Nand:
		return "nand"
	default:
		return "nor"
	}
}

func dualKind(k netlist.GateKind) netlist.GateKind {
	switch k {
	case netlist.Inv:
		return netlist.Buf
	case netlist.Buf:
		return netlist.Inv
	case netlist.Nand:
		return netlist.Nor
	default:
		return netlist.Nand
	}
}

// newLiveSession builds a seeded, always-valid delta script over the
// netlist: cube assigns and retracts on primary inputs, input retimes and
// same-arity gate swaps whose dual cell the library has.
func newLiveSession(text string, lib *core.Library, rng *rand.Rand) (*liveSession, error) {
	c, err := netlist.Parse("session", strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	s := &liveSession{text: text, cube: nineval.Cube{}, perPI: map[string]twindow.PITiming{}, swaps: map[string]netlist.GateKind{}}
	var swappable []int
	for gi := range c.Gates {
		g := &c.Gates[gi]
		n := len(g.Inputs)
		_, nand := lib.Cells[fmt.Sprintf("NAND%d", n)]
		_, nor := lib.Cells[fmt.Sprintf("NOR%d", n)]
		if g.Kind == netlist.Inv || g.Kind == netlist.Buf || (nand && nor) {
			swappable = append(swappable, gi)
		}
	}
	kinds := map[int]netlist.GateKind{}
	var assigned []string
	for len(s.script) < sessionDeltas {
		var st scriptStep
		switch r := rng.Intn(10); {
		case r < 4:
			st.req.Assign = map[string]string{}
			st.assign = nineval.Cube{}
			for i := 0; i <= rng.Intn(2); i++ {
				pi := c.PIs[rng.Intn(len(c.PIs))]
				v := twoFrame[rng.Intn(len(twoFrame))]
				st.req.Assign[pi] = v
				st.assign[pi] = parseTwoFrame(v)
				assigned = append(assigned, pi)
			}
		case r == 4 && len(assigned) > 0:
			st.req.Retract = []string{assigned[rng.Intn(len(assigned))]}
		case r < 8:
			early := rng.Float64() * 0.2e-9
			st.req.SetPI = &service.SessionPIJSON{
				Net:          c.PIs[rng.Intn(len(c.PIs))],
				ArrivalEarly: early,
				ArrivalLate:  early + rng.Float64()*0.2e-9,
				TransShort:   0.1e-9 + rng.Float64()*0.1e-9,
				TransLong:    0.2e-9 + rng.Float64()*0.1e-9,
			}
		default:
			if len(swappable) == 0 {
				continue
			}
			gi := swappable[rng.Intn(len(swappable))]
			k, ok := kinds[gi]
			if !ok {
				k = c.Gates[gi].Kind
			}
			kinds[gi] = dualKind(k)
			st.req.SwapGate = &service.SessionSwapJSON{Net: c.Gates[gi].Output, Kind: kindWire(kinds[gi])}
		}
		if st.req.Assign == nil && st.req.Retract == nil && st.req.SetPI == nil && st.req.SwapGate == nil {
			continue
		}
		s.script = append(s.script, st)
	}
	return s, nil
}

// apply applies one acknowledged delta to the client's model of the
// session.
func (s *liveSession) apply(st scriptStep) {
	for net, v := range st.assign {
		s.cube[net] = v
	}
	for _, net := range st.req.Retract {
		delete(s.cube, net)
	}
	if p := st.req.SetPI; p != nil {
		s.perPI[p.Net] = twindow.PITiming{ArrivalEarly: p.ArrivalEarly, ArrivalLate: p.ArrivalLate,
			TransShort: p.TransShort, TransLong: p.TransLong}
	}
	if sw := st.req.SwapGate; sw != nil {
		s.swaps[sw.Net] = wireKinds[sw.Kind]
	}
}

// windowsEvidence is what the measured window keeps of one /windows reply:
// a hash of its normalised body and a copy of the modelled session state.
// The rebuild it is checked against runs after the window, so the checker's
// graph builds do not compete with the daemon for the CPUs.
type windowsEvidence struct {
	s      *liveSession
	deltas int
	cube   nineval.Cube
	perPI  map[string]twindow.PITiming
	swaps  map[string]netlist.GateKind
	sum    uint64
}

func (s *liveSession) evidence(raw []byte, dg *digests) windowsEvidence {
	ev := windowsEvidence{s: s, deltas: s.next, cube: s.cube.Clone(), sum: dg.sum(raw),
		perPI: make(map[string]twindow.PITiming, len(s.perPI)), swaps: make(map[string]netlist.GateKind, len(s.swaps))}
	if dg.wrong {
		ev.sum++
	}
	for k, v := range s.perPI {
		ev.perPI[k] = v
	}
	for k, v := range s.swaps {
		ev.swaps[k] = v
	}
	return ev
}

// check rebuilds the session state from scratch with tgraph.NewWithCube,
// renders it as the daemon renders GET /windows, and compares the
// normalised hashes.
func (ev *windowsEvidence) check(lib *core.Library, dg *digests) string {
	c, err := netlist.Parse("session", strings.NewReader(ev.s.text))
	if err != nil {
		return "rebuild: " + err.Error()
	}
	for net, kind := range ev.swaps {
		// The script only swaps gates to their same-arity dual, which
		// SwapGateKind accepts.
		if _, err := c.SwapGateKind(net, kind); err != nil {
			return "rebuild: " + err.Error()
		}
	}
	g, err := tgraph.NewWithCube(c, ev.cube, tgraph.Options{Lib: lib, Mode: sta.ModeProposed, PerPI: ev.perPI})
	if err != nil {
		return "rebuild: " + err.Error()
	}
	want := service.SessionWindowsResponse{SessionID: ev.s.id, Circuit: ev.s.circuit, Cube: g.RawCube().String(),
		Lines: map[string]service.RefineLineJSON{}}
	g.Lines(func(net string, li twindow.LineInfo) { want.Lines[net] = lineJSON(li) })
	var buf bytes.Buffer
	if err := indentEncodeTo(&buf, &want); err != nil {
		return err.Error()
	}
	if dg.sum(buf.Bytes()) != ev.sum {
		return "windows differ from a from-scratch rebuild"
	}
	return ""
}

// lineJSON renders a line the way the service's session endpoints do.
func lineJSON(li twindow.LineInfo) service.RefineLineJSON {
	lj := service.RefineLineJSON{Value: li.Value.String(), SRise: li.SRise.String(), SFall: li.SFall.String()}
	if li.HasRise() {
		lj.Rise = &service.WindowJSON{AS: li.Rise.AS, AL: li.Rise.AL, TS: li.Rise.TS, TL: li.Rise.TL}
	}
	if li.HasFall() {
		lj.Fall = &service.WindowJSON{AS: li.Fall.AS, AL: li.Fall.AL, TS: li.Fall.TS, TL: li.Fall.TL}
	}
	return lj
}

// metricsText fetches /metrics as name -> value.
func (st *serveState) metricsText() (map[string]float64, error) {
	resp, err := st.client.Get(st.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSuffix(line[i+1:], "s"), 64); err == nil {
			out[strings.TrimSpace(line[:i])] = v
		}
	}
	return out, sc.Err()
}

// handlerP50 interpolates an endpoint's median handler latency (ms) from
// the growth of its /metrics histogram between two snapshots.
func handlerP50(before, after map[string]float64, endpoint string) (float64, int) {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := fmt.Sprintf("service/latency{endpoint=%q,le=", endpoint)
	for name, v := range after {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		le := strings.Trim(strings.TrimSuffix(strings.TrimPrefix(name, prefix), "}"), "\"")
		bound := math.Inf(1)
		if le != "+Inf" {
			d, err := time.ParseDuration(le)
			if err != nil {
				continue
			}
			bound = ms(d)
		}
		bs = append(bs, bucket{bound, v - before[name]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0, 0
	}
	total := bs[len(bs)-1].n
	half := total / 2
	prevLe, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= half {
			if math.IsInf(b.le, 1) {
				return prevLe, int(total)
			}
			return prevLe + (b.le-prevLe)*ratio(half-prevN, b.n-prevN), int(total)
		}
		prevLe, prevN = b.le, b.n
	}
	return prevLe, int(total)
}

func runServe(cfg *config) (*result, error) {
	r := newResult()
	// The popularity ranking is shared by both clients: per scale, a seeded
	// permutation of the netlists.
	rankRng := rand.New(rand.NewSource(cfg.seed))
	rank := make([][]int, len(staScales))
	for i := range rank {
		rank[i] = rankRng.Perm(servePoolVariants)
	}
	dg := newDigests(cfg.wrongDigest)
	st, setups, err := repeatSetup(func() (*serveState, error) { return setupServe(cfg, rank, r, dg) },
		func(s *serveState) { s.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()
	// Start the measured window from a collected heap: the three set-ups
	// leave their garbage behind.
	runtime.GC()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	before, err := st.metricsText()
	if err != nil {
		return nil, err
	}
	clients := make([]*serveClient, serveClients)
	for i := range clients {
		clients[i] = newServeClient(st, rand.New(rand.NewSource(cfg.seed*1000003+int64(i))), tr, r, dg)
	}
	start := time.Now()
	deadline := cfg.deadline(start)
	var wg sync.WaitGroup
	for _, c := range clients {
		c.start = start
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				c.next(i)
			}
		}(c)
	}
	wg.Wait()
	span := time.Since(start)
	cfg.speed.stopSampler()
	after, err := st.metricsText()
	if err != nil {
		return nil, err
	}
	var checkTime time.Duration
	var windowsChecked int
	for _, c := range clients {
		checkTime += c.checkTime
		for i := range c.pending {
			ev := &c.pending[i]
			windowsChecked++
			if msg := ev.check(st.lib, dg); msg != "" {
				c.r.fail("session %s after %d deltas: %s", ev.s.id, ev.deltas, msg)
			}
		}
		c.pending = nil
	}

	lat := map[string][]obs{}
	xcache := map[string]int{}
	var ops, sessOps int
	var busy time.Duration
	var bodyKB, traced, untraced []float64
	var all, sessW []obs
	for _, c := range clients {
		all = append(all, c.all...)
		sessW = append(sessW, c.sessW...)
		for k, v := range c.lat {
			lat[k] = append(lat[k], v...)
		}
		for k, v := range c.xcache {
			xcache[k] += v
		}
		ops += c.ops
		sessOps += c.sessOps
		busy += c.busy
		bodyKB = append(bodyKB, c.bodyKB...)
		traced = append(traced, c.traced...)
		untraced = append(untraced, c.untraced...)
	}
	// Closed-loop throughput with the clients' own check time left out:
	// operations over the mean time a client spent waiting for replies.
	// Durations are scaled to the reference speed (see calib.go); the
	// report also prints the gated figures as measured.
	perClient := func(v, w []float64) float64 { return serveClients * rate(v, w) }
	an := lat["analyze"]
	figures := func(sp *speedSampler) (reqPerS, p50, p90, sessPerS float64) {
		a := sp.normalize(an, start)
		return windowedMedian(sp.normalize(all, start), span, perClient), windowedMedian(a, span, pct(0.5)),
			windowedMedian(a, span, pct(0.9)), windowedMedian(sp.normalize(sessW, start), span, perClient)
	}
	reqPerS, p50, p90, sessPerS := figures(cfg.speed)
	r.setE2E("work_per_s", reqPerS, ops)
	r.setE2E("op_ms_p50", p50, len(an))
	r.setE2E("op_ms_p90", p90, len(an))
	r.setE2E("aux_per_s", sessPerS, sessOps)
	r.addNamed("serve_req_per_s", "1/s", reqPerS, ops)
	wq, w50, w90, ws := figures(nil)
	r.notes = append(r.notes, fmt.Sprintf("wall-clock: serve_req_per_s %.6g, analyze_ms_p50 %.6g, analyze_ms_p90 %.6g, session_ops_per_s %.6g", wq, w50, w90, ws))
	for _, n := range []struct {
		name, class string
		q           float64
	}{
		{"analyze_hit_ms_p50", "analyze_hit", 0.5}, {"analyze_hit_ms_p90", "analyze_hit", 0.9},
		{"analyze_miss_ms_p50", "analyze_miss", 0.5}, {"analyze_miss_ms_p90", "analyze_miss", 0.9},
		{"delta_ms_p50", "delta", 0.5}, {"delta_ms_p90", "delta", 0.9},
		{"windows_ms_p50", "windows", 0.5},
	} {
		r.addNamed(n.name, "ms", msQuantile(cfg.speed.normalize(lat[n.class], start), n.q), len(lat[n.class]))
	}

	// The client's X-Cache tally must agree with the daemon's counters.
	r.attempt()
	d := func(name string) int { return int(after[name] - before[name]) }
	if xcache["hit"] != d("service/cache_hits") || xcache["miss"] != d("service/cache_misses") ||
		xcache["coalesced"] != d("service/cache_coalesced") {
		r.fail("X-Cache tally %v disagrees with /metrics hits %d, misses %d, coalesced %d",
			xcache, d("service/cache_hits"), d("service/cache_misses"), d("service/cache_coalesced"))
	}
	hitRatio := ratio(float64(xcache["hit"]), float64(len(an)))
	// The traffic the assumed mix produced, so a change to it shows.
	r.addNamed("cache_hit_ratio", "ratio", hitRatio, len(an))
	r.addNamed("cache_evictions", "count", float64(d("service/cache_evictions")), 1)
	// The CPU the output checks took inside the measured window, as a share
	// of the CPU time the window offered.
	r.addNamed("check_cpu_pct", "%", 100*checkTime.Seconds()/(span.Seconds()*float64(runtime.NumCPU())), ops)
	r.notes = append(r.notes, fmt.Sprintf("X-Cache %v, mean analyze body %.1f kB, %d /windows replies checked after the window",
		xcache, ratio(sum(bodyKB), float64(len(bodyKB))), windowsChecked))

	if tr != nil {
		r.setLayer("reqcache.hit_ratio", hitRatio, len(an))
		r.setLayer("reqcache.evictions", float64(d("service/cache_evictions")), 1)
		r.setLayer("service.shed", float64(d("service/shed")), 1)
		r.setLayer("service.timeouts", float64(d("service/timeouts")), 1)
		r.setLayer("service.session_snapshots", float64(d("service/session_snapshots")), 1)
		r.setLayer("service.response_kb", ratio(sum(bodyKB), float64(len(bodyKB))), len(bodyKB))
		var handlerSum, handlerN, clientSum float64
		for _, ep := range []string{"analyze", "session"} {
			p50, n := handlerP50(before, after, ep)
			r.setLayer("service.handler_ms_p50."+ep, p50, n)
			handlerSum += 1000 * (after[fmt.Sprintf("service/latency_sum{endpoint=%q}", ep)] -
				before[fmt.Sprintf("service/latency_sum{endpoint=%q}", ep)])
			handlerN += after[fmt.Sprintf("service/latency_count{endpoint=%q}", ep)] -
				before[fmt.Sprintf("service/latency_count{endpoint=%q}", ep)]
		}
		clientSum = 1000 * busy.Seconds()
		r.setLayer("http.overhead_ms", ratio(clientSum, float64(ops))-ratio(handlerSum, handlerN), ops)
		r.setLayer("trace.overhead_pct", 100*(ratio(quantile(traced, 0.5), quantile(untraced, 0.5))-1), len(traced))
		if err := serveLayers(cfg, st, tr, clients, r); err != nil {
			return nil, err
		}
		lines, err := tr.write(traceFile(cfg))
		if err != nil {
			return nil, err
		}
		r.notes = append(r.notes, lines...)
	}
	return r, finishCommon(cfg, r, setups)
}

// serveLayers probes the layers behind the daemon's request path on the
// run's own inputs: parse, cache keying, analysis and response encoding on
// the netlists and bodies the run saw, and the session scripts replayed
// through tgraph and a scratch sessionlog.
func serveLayers(cfg *config, st *serveState, tr *tracer, clients []*serveClient, r *result) error {
	fp, err := store.LibraryFingerprint(st.lib)
	if err != nil {
		return err
	}
	var parseMs, keyMs, analyzeMs, encMs, winMs []float64
	for _, c := range clients {
		for k, raw := range c.captured {
			op := tr.newOp()
			text := st.pool[k.scale][k.variant].text
			sp := tr.begin("netlist.Parse", op, 0)
			t0 := time.Now()
			circ, err := netlist.Parse("request", strings.NewReader(text))
			parseMs = append(parseMs, ms(time.Since(t0)))
			sp.end()
			if err != nil {
				return err
			}
			sp = tr.begin("reqcache.CanonicalNetlist+KeyFrom", op, 0)
			t0 = time.Now()
			_ = reqcache.KeyFrom("analyze/1", fp, sta.ModeProposed.String(), "0", map[bool]string{false: "0", true: "1"}[k.windows],
				string(reqcache.CanonicalNetlist(circ)))
			keyMs = append(keyMs, ms(time.Since(t0)))
			sp.end()
			sp = tr.begin("sta.Analyze", op, 0)
			t0 = time.Now()
			if _, err := sta.Analyze(circ, sta.Options{Lib: st.lib, Mode: sta.ModeProposed, Jobs: 1}); err != nil {
				return err
			}
			analyzeMs = append(analyzeMs, ms(time.Since(t0)))
			sp.end()

			var resp service.AnalyzeResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				return err
			}
			sp = tr.begin("service.encode", op, 0)
			t0 = time.Now()
			// The handler's two encodings: a compact size pass for the
			// cache, then the indented write.
			if _, err := json.Marshal(&resp); err != nil {
				return err
			}
			if err := indentEncode(&resp); err != nil {
				return err
			}
			encMs = append(encMs, ms(time.Since(t0)))
			sp.end()
		}
		for _, raw := range c.winBody {
			var resp service.SessionWindowsResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				return err
			}
			sp := tr.begin("service.windows_encode", tr.newOp(), 0)
			t0 := time.Now()
			if err := indentEncode(&resp); err != nil {
				return err
			}
			winMs = append(winMs, ms(time.Since(t0)))
			sp.end()
		}
	}
	r.setLayer("netlist.parse_ms", quantile(parseMs, 0.5), len(parseMs))
	r.setLayer("reqcache.key_ms", quantile(keyMs, 0.5), len(keyMs))
	r.setLayer("sta.analyze_ms", quantile(analyzeMs, 0.5), len(analyzeMs))
	r.setLayer("service.encode_ms", quantile(encMs, 0.5), len(encMs))
	r.setLayer("service.windows_encode_ms", quantile(winMs, 0.5), len(winMs))

	// The first two sessions of every client, replayed.
	var scripts []*liveSession
	for _, c := range clients {
		scripts = append(scripts, c.scripts[:min(2, len(c.scripts))]...)
	}
	var deltaUs, appendUs, compactMs []float64
	for si, s := range scripts {
		circ, err := netlist.Parse("session", strings.NewReader(s.text))
		if err != nil {
			return err
		}
		g, err := tgraph.New(circ, tgraph.Options{Lib: st.lib, Mode: sta.ModeProposed})
		if err != nil {
			return err
		}
		lg, err := sessionlog.Create(filepath.Join(cfg.work, fmt.Sprintf("sessionlog-%d", si)),
			sessionlog.Meta{SessionID: fmt.Sprintf("probe-%d", si), LibraryFingerprint: fp},
			sessionlog.Record{Kind: "create", Netlist: s.text, Mode: sta.ModeProposed.String()}, sessionlog.Options{})
		if err != nil {
			return err
		}
		for i, step := range s.script {
			op := tr.newOp()
			sp := tr.begin("tgraph.delta", op, 0)
			t0 := time.Now()
			if _, err := applyStep(g, step); err != nil {
				lg.Close()
				return err
			}
			deltaUs = append(deltaUs, us(time.Since(t0)))
			sp.end()
			rec := journalRecord(step, int64(i+1))
			sp = tr.begin("sessionlog.Append", op, 0)
			t0 = time.Now()
			if err := lg.Append(rec); err != nil {
				lg.Close()
				return err
			}
			appendUs = append(appendUs, us(time.Since(t0)))
			sp.end()
			if (i+1)%(sessionDeltas/4) == 0 {
				snap, err := g.EncodeSnapshot()
				if err != nil {
					lg.Close()
					return err
				}
				sp = tr.begin("sessionlog.Compact", op, 0)
				t0 = time.Now()
				if err := lg.Compact(sessionlog.Snapshot{SessionID: fmt.Sprintf("probe-%d", si),
					Seq: int64(i + 1), Edit: int64(i + 1), Graph: snap}); err != nil {
					lg.Close()
					return err
				}
				compactMs = append(compactMs, ms(time.Since(t0)))
				sp.end()
			}
		}
		if err := lg.Close(); err != nil {
			return err
		}
	}
	r.setLayer("tgraph.delta_us", quantile(deltaUs, 0.5), len(deltaUs))
	r.setLayer("sessionlog.append_us", quantile(appendUs, 0.5), len(appendUs))
	r.setLayer("sessionlog.compact_ms", quantile(compactMs, 0.5), len(compactMs))

	return exactCounters(r, func() (map[string]float64, error) {
		cone := 0
		for _, s := range scripts {
			circ, err := netlist.Parse("session", strings.NewReader(s.text))
			if err != nil {
				return nil, err
			}
			g, err := tgraph.New(circ, tgraph.Options{Lib: st.lib, Mode: sta.ModeProposed})
			if err != nil {
				return nil, err
			}
			for _, step := range s.script {
				n, err := applyStep(g, step)
				if err != nil {
					return nil, err
				}
				cone += n
			}
		}
		return map[string]float64{"tgraph.cone_lines": float64(cone)}, nil
	})
}

func indentEncode(v any) error {
	var buf bytes.Buffer
	return indentEncodeTo(&buf, v)
}

// indentEncodeTo encodes v the way the daemon writes its replies.
func indentEncodeTo(buf *bytes.Buffer, v any) error {
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// applyStep applies one scripted delta to a graph the way the daemon does
// (cube, then set_pi, then swap_gate) and returns the lines it changed.
func applyStep(g *tgraph.Graph, st scriptStep) (int, error) {
	changed := 0
	if len(st.assign) > 0 || len(st.req.Retract) > 0 {
		raw := g.RawCube().Clone()
		for net, v := range st.assign {
			raw[net] = v
		}
		for _, net := range st.req.Retract {
			delete(raw, net)
		}
		if err := g.SetCube(context.Background(), raw); err != nil {
			return 0, err
		}
		changed += g.NumChanged()
	}
	if p := st.req.SetPI; p != nil {
		if err := g.SetPI(context.Background(), p.Net, twindow.PITiming{ArrivalEarly: p.ArrivalEarly, ArrivalLate: p.ArrivalLate,
			TransShort: p.TransShort, TransLong: p.TransLong}); err != nil {
			return 0, err
		}
		changed += g.NumChanged()
	}
	if sw := st.req.SwapGate; sw != nil {
		if err := g.SwapGate(context.Background(), sw.Net, wireKinds[sw.Kind]); err != nil {
			return 0, err
		}
		changed += g.NumChanged()
	}
	return changed, nil
}

// journalRecord is the record the daemon journals for a scripted delta.
func journalRecord(st scriptStep, seq int64) sessionlog.Record {
	rec := sessionlog.Record{Kind: "delta", Seq: seq, Edit: seq, Assign: st.req.Assign, Retract: st.req.Retract}
	if p := st.req.SetPI; p != nil {
		rec.SetPI = &sessionlog.PIRecord{Net: p.Net, ArrivalEarly: p.ArrivalEarly, ArrivalLate: p.ArrivalLate,
			TransShort: p.TransShort, TransLong: p.TransLong}
	}
	if sw := st.req.SwapGate; sw != nil {
		rec.Swap = &sessionlog.SwapRecord{Net: sw.Net, Kind: sw.Kind}
	}
	return rec
}
