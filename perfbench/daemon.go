package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aalwines/internal/batch"
	"aalwines/internal/engine"
	"aalwines/internal/gen"
	"aalwines/internal/httpapi"
	"aalwines/internal/live"
	"aalwines/internal/network"
	"aalwines/internal/scenario"
)

const (
	daemonRouters = 60
	daemonBudget  = 50_000_000
	// daemonSetups is how many times set-up starts the server; setup_s is
	// the median.
	daemonSetups = 9
	// daemonBuffer is the watch queue capacity: far above the at most
	// 2 × invariants events one round produces, so a gap means the stream
	// reader fell behind by many rounds.
	daemonBuffer = 256
)

// daemonInvariants picks one reachability, tunnel-reachability, waypoint
// and transparency query with failure bound 1.
func daemonInvariants(syn *gen.Synth, seed int64) []string {
	return pickQueries(syn, seed, 1, gen.QReach, gen.QTunnelReach, gen.QWaypoint, gen.QTransparency)
}

// whatIf holds the expected outcome of every write the workload can make,
// computed once in set-up through a direct scenario.Session.
type whatIf struct {
	baseline []live.Cell
	links    []string               // the seeded pool: links on baseline witness paths
	cells    map[string][]live.Cell // link → cells with that link failed
	events   map[string]int         // link → cells that differ from the baseline
}

func expectWhatIf(net *network.Network, invs []string) (*whatIf, error) {
	sess := scenario.NewSession(net)
	defer sess.Close()
	opts := batch.Options{Workers: 1, Engine: engine.Options{Budget: daemonBudget}}
	cellsNow := func() ([]live.Cell, error) {
		rs, overlay := sess.VerifyBatchSnapshot(context.Background(), invs, opts)
		out := make([]live.Cell, len(rs))
		for i, r := range rs {
			if r.Err != nil {
				return nil, fmt.Errorf("%q: %w", r.Query, r.Err)
			}
			out[i] = live.CellOf(overlay, r)
		}
		return out, nil
	}
	w := &whatIf{cells: map[string][]live.Cell{}, events: map[string]int{}}
	var err error
	if w.baseline, err = cellsNow(); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, c := range w.baseline {
		for _, st := range c.Trace {
			if !seen[st.Link] {
				seen[st.Link] = true
				w.links = append(w.links, st.Link)
			}
		}
	}
	sort.Strings(w.links)
	for _, l := range w.links {
		if _, err := sess.SetStack([]scenario.Delta{{Kind: scenario.FailLink, Link: l}}); err != nil {
			return nil, err
		}
		cs, err := cellsNow()
		if err != nil {
			return nil, fmt.Errorf("fail %s: %w", l, err)
		}
		w.cells[l] = cs
		for i := range cs {
			if !sameJSON(cs[i], w.baseline[i]) {
				w.events[l]++
			}
		}
	}
	return w, nil
}

func sameJSON(a, b any) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return bytes.Equal(ja, jb)
}

// daemon is one started server with its session, watch and stream reader.
type daemon struct {
	srv    *httptest.Server
	client *http.Client
	base   string // the session's URL

	mu      sync.Mutex
	arrived map[int64]time.Time // flush seq → first event's arrival
	verdict int                 // verdict events after the initial ones
	gaps    int
	closed  bool
	done    chan error
}

// startDaemon starts a loopback server on net, creates a session and a
// watch over invs, attaches the NDJSON stream and returns once the watch's
// initial events have arrived.
func startDaemon(net *network.Network, invs []string) (*daemon, error) {
	s := httpapi.NewServer()
	s.Parallel = 1
	s.SatJ = 0
	s.MaxBudget = daemonBudget
	s.Register(net)
	d := &daemon{srv: httptest.NewServer(s.Handler()), arrived: map[int64]time.Time{}, done: make(chan error, 1)}
	d.client = d.srv.Client()
	var sess httpapi.SessionJSON
	if err := d.call("POST", d.srv.URL+"/api/v1/sessions", httpapi.SessionCreateRequest{Network: net.Name}, &sess); err != nil {
		d.srv.Close()
		return nil, err
	}
	d.base = d.srv.URL + "/api/v1/sessions/" + sess.ID
	var wi live.WatchInfo
	if err := d.call("POST", d.base+"/watch", httpapi.WatchCreateRequest{Invariants: invs, Buffer: daemonBuffer}, &wi); err != nil {
		d.srv.Close()
		return nil, err
	}
	resp, err := d.client.Get(d.base + "/watch/" + wi.ID + "/events?format=ndjson")
	if err != nil {
		d.srv.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		d.srv.Close()
		return nil, fmt.Errorf("watch stream: HTTP %d", resp.StatusCode)
	}
	initial := make(chan struct{})
	go d.read(resp.Body, len(invs), initial)
	select {
	case <-initial:
		return d, nil
	case err := <-d.done:
		d.srv.Close()
		return nil, fmt.Errorf("watch stream ended during seeding: %v", err)
	}
}

// read consumes the watch stream until its close event, recording when
// each flush's first event arrived. It closes initial once the seeded
// events (one per invariant) are in.
func (d *daemon) read(body io.ReadCloser, seeded int, initial chan struct{}) {
	defer body.Close()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	n := 0
	for sc.Scan() {
		now := time.Now()
		var ev live.WatchEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			d.done <- fmt.Errorf("watch stream: %w", err)
			return
		}
		d.mu.Lock()
		switch ev.Type {
		case "verdict":
			if n < seeded {
				n++
				if n == seeded {
					close(initial)
				}
				break
			}
			d.verdict++
			if _, ok := d.arrived[ev.Seq]; !ok {
				d.arrived[ev.Seq] = now
			}
		case "gap":
			d.gaps++
		case "close":
			d.closed = true
		}
		d.mu.Unlock()
	}
	d.done <- sc.Err()
}

// stop closes the session, which ends the stream with a close event, waits
// for the reader and shuts the server down.
func (d *daemon) stop() error {
	err := d.call("DELETE", d.base, nil, nil)
	select {
	case rerr := <-d.done:
		if err == nil {
			err = rerr
		}
	case <-time.After(30 * time.Second):
		if err == nil {
			err = fmt.Errorf("watch stream did not end after session close")
		}
	}
	d.srv.CloseClientConnections()
	d.srv.Close()
	return err
}

// call sends one JSON request and decodes a 2xx response into out; any
// other status is an error.
func (d *daemon) call(method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, strings.TrimPrefix(url, d.srv.URL), resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// daemonStats collects one phase of rounds.
type daemonStats struct {
	requests   int
	reads      []float64 // client latency, ms
	readServer []float64 // server elapsedMs of each read
	readItems  float64   // Σ per-query elapsedMs over reads
	writes     []float64
	sent       []time.Time // send time of the i-th write (flush seq i+1)
	wantEvents int
	busy       time.Duration
	alloc      uint64
	tr         *tracer
}

// rounds drives write/read/write rounds until the deadline.
func rounds(r *run, d *daemon, w *whatIf, invs []string, rng *rand.Rand, seconds float64, st *daemonStats) {
	end := deadlineIn(seconds)
	a0 := totalAlloc()
	t0 := time.Now()
	defer func() {
		st.busy += time.Since(t0)
		st.alloc += totalAlloc() - a0
	}()
	for !end.passed() {
		link := w.links[rng.Intn(len(w.links))]
		var root int
		if st.tr != nil {
			st.tr.nextOp()
			root = st.tr.begin("round", 0)
		}
		// 1. write: fail a link on a baseline witness path.
		var dr httpapi.SessionDeltasResponse
		sent := time.Now()
		err := d.call("POST", d.base+"/deltas", httpapi.SessionDeltasRequest{Commands: []string{"fail " + link}}, &dr)
		st.writes = append(st.writes, ms(time.Since(sent)))
		st.tracked(root, "httpapi.write", sent)
		st.sent = append(st.sent, sent)
		st.requests++
		r.attempted++
		if err != nil || len(dr.Applied) != 1 {
			r.fail("fail %s: %v", link, err)
			// The stack is unknown now; the rest of the run would only
			// repeat this failure.
			return
		}
		st.wantEvents += w.events[link]

		// 2. read: the invariants on the failed state.
		var br httpapi.VerifyBatchResponse
		rs := time.Now()
		err = d.call("POST", d.base+"/verify-batch", httpapi.VerifyBatchRequest{Queries: invs}, &br)
		lat := time.Since(rs)
		st.requests++
		r.attempted++
		if err != nil {
			r.fail("verify-batch with %s failed: %v", link, err)
		} else {
			st.reads = append(st.reads, ms(lat))
			st.readServer = append(st.readServer, br.ElapsedMS)
			if st.tr != nil {
				rid := st.tr.add("httpapi.read", root, rs, rs.Add(lat))
				st.tr.child("batch.verify_batch", rid, time.Duration(br.ElapsedMS*float64(time.Millisecond)))
			}
			if err := checkRead(br, w.cells[link]); err != nil {
				r.fail("verify-batch with %s failed: %v", link, err)
			}
			for _, it := range br.Results {
				st.readItems += it.ElapsedMS
			}
		}

		// 3. write: undo the failure.
		us := time.Now()
		err = d.call("DELETE", d.base+"/deltas/"+strconv.Itoa(dr.Applied[0].Seq), nil, nil)
		st.writes = append(st.writes, ms(time.Since(us)))
		st.tracked(root, "httpapi.write", us)
		st.sent = append(st.sent, us)
		st.requests++
		r.attempted++
		if err != nil {
			r.fail("undo %s: %v", link, err)
			return
		}
		st.wantEvents += w.events[link]
		if st.tr != nil {
			st.tr.end(root)
		}
	}
}

func (st *daemonStats) tracked(root int, name string, start time.Time) {
	if st.tr != nil {
		st.tr.add(name, root, start, time.Now())
	}
}

// checkRead fails a read whose items errored (budget exhaustion included)
// or whose cells differ from the expected ones for the current stack.
func checkRead(br httpapi.VerifyBatchResponse, want []live.Cell) error {
	if len(br.Results) != len(want) {
		return fmt.Errorf("%d results, want %d", len(br.Results), len(want))
	}
	for i, it := range br.Results {
		if it.Error != "" {
			return fmt.Errorf("%q: %s (%s)", it.Query, it.Error, it.Code)
		}
		got := live.Cell{Query: it.Query, Verdict: it.Verdict, Weight: it.Weight, Failed: it.Failed, Trace: it.Trace}
		if !sameJSON(got, want[i]) {
			return fmt.Errorf("%q: verdict %s differs from the expected %s (or its witness does)", it.Query, it.Verdict, want[i].Verdict)
		}
	}
	return nil
}

// checkStream fails the run when the stream lost or invented events: the
// verdict event count must equal the expected count exactly, with no gap
// and a terminal close.
func checkStream(r *run, d *daemon, want int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.gaps > 0:
		r.fail("watch stream: %d gap events", d.gaps)
	case d.verdict != want:
		r.fail("watch stream: %d verdict events, want %d", d.verdict, want)
	case !d.closed:
		r.fail("watch stream: no close event")
	}
}

// lags returns, per write, the time from sending it to the arrival of the
// first watch event of its flush.
func (d *daemon) lags(sent []time.Time, seq0 int64) []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []float64
	for i, t := range sent {
		if at, ok := d.arrived[seq0+int64(i)+1]; ok {
			out = append(out, ms(at.Sub(t)))
		}
	}
	return out
}

// runDaemon is the daemon-whatif workload: a loopback HTTP server with one
// session and one watch stream, driven in write/read/write rounds.
func runDaemon(cfg config) (*run, error) {
	syn := gen.Zoo(gen.ZooOpts{Routers: daemonRouters, Seed: cfg.seed})
	net := syn.Net
	invs := daemonInvariants(syn, cfg.seed)
	if len(invs) != 4 {
		return nil, fmt.Errorf("daemon-whatif: seed %d yields %d invariants, want 4", cfg.seed, len(invs))
	}
	w, err := expectWhatIf(net, invs)
	if err != nil {
		return nil, fmt.Errorf("daemon-whatif: expected verdicts: %w", err)
	}
	if len(w.links) == 0 {
		return nil, fmt.Errorf("daemon-whatif: seed %d: no invariant has a witness path", cfg.seed)
	}
	r := &run{}
	r.note("network: zoo-%d seed %d, %d links, %d rules; %d invariants, %d witness-path links", daemonRouters, cfg.seed, net.Topo.NumLinks(), net.Routing.NumRules(), len(invs), len(w.links))

	var d *daemon
	var setups []float64
	for i := 0; i < daemonSetups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("daemon-whatif: set-up teardown: %w", err)
			}
		}
		t0 := time.Now()
		if d, err = startDaemon(net, invs); err != nil {
			return nil, fmt.Errorf("daemon-whatif: set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rng := rand.New(rand.NewSource(cfg.seed))

	if cfg.trace {
		return traceDaemon(cfg, r, d, w, invs, rng)
	}
	st := &daemonStats{}
	rounds(r, d, w, invs, rng, cfg.seconds, st)
	if err := d.stop(); err != nil {
		r.fail("stopping the daemon: %v", err)
	}
	lags := d.lags(st.sent, 0)
	checkStream(r, d, st.wantEvents)
	if len(lags) != len(st.sent) {
		r.fail("watch stream: %d of %d writes delivered no event", len(st.sent)-len(lags), len(st.sent))
	}
	readTail, rl := tailOrMax(st.reads, p90)
	writeTail, wl := tailOrMax(st.writes, p90)
	r.note("reads: %d, tail: %s; writes: %d, tail: %s; watch events %d", len(st.reads), rl, len(st.writes), wl, st.wantEvents)
	r.set("setup_s", median(setups), "s")
	r.set("throughput_per_s", float64(st.requests)/st.busy.Seconds(), "1/s")
	r.set("latency_p50_ms", median(st.reads), "ms")
	r.set("latency_tail_ms", readTail, "ms")
	r.set("write_p50_ms", median(st.writes), "ms")
	r.set("write_tail_ms", writeTail, "ms")
	r.set("watch_lag_p50_ms", median(lags), "ms")
	r.set("alloc_mb_per_op", float64(st.alloc)/float64(st.requests)/(1<<20), "MB")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	return r, nil
}

// traceDaemon runs half the time untraced, then half traced with spans
// around every request, and reads the server-side layers from deltas of
// GET /metrics over the traced half.
func traceDaemon(cfg config, r *run, d *daemon, w *whatIf, invs []string, rng *rand.Rand) (*run, error) {
	plain := &daemonStats{}
	rounds(r, d, w, invs, rng, cfg.seconds/2, plain)
	m0, err := scrape(d)
	if err != nil {
		return nil, err
	}
	traced := &daemonStats{tr: newTracer()}
	rounds(r, d, w, invs, rng, cfg.seconds/2, traced)
	m1, err := scrape(d)
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		r.fail("stopping the daemon: %v", err)
	}
	checkStream(r, d, plain.wantEvents+traced.wantEvents)

	delta := func(name string) float64 { return m1[name] - m0[name] }
	nw := float64(len(traced.writes))
	reverify := (1000*delta("batch_query_seconds_sum") - traced.readItems) / nw
	var readOver []float64
	for i, l := range traced.reads {
		readOver = append(readOver, l-traced.readServer[i])
	}
	reused, rebuilt := delta("scenario_rule_blocks_reused_total"), delta("scenario_rule_blocks_rebuilt_total")
	r.set("batch.verify_batch_ms", mean(traced.readServer), "ms")
	r.set("httpapi.read_overhead_ms", mean(readOver), "ms")
	r.set("batch.queue_wait_ms", 1000*delta("batch_queue_wait_seconds_sum")/delta("batch_queue_wait_seconds_count"), "ms")
	r.set("live.reverify_ms", reverify, "ms")
	r.set("httpapi.write_overhead_ms", mean(traced.writes)-reverify, "ms")
	r.set("translate.block_reuse_ratio", reused/(reused+rebuilt), "ratio")
	r.set("live.watch_events", delta("live_watch_events_total"), "count")
	r.set("live.watch_dropped", delta("live_watch_dropped_total"), "count")
	r.set("bench.unattributed_ms", ms(selfTimes(traced.tr.spans)["round"])/float64(len(traced.reads)), "ms")
	r.set("bench.trace_overhead_ratio",
		(float64(traced.requests)/traced.busy.Seconds())/(float64(plain.requests)/plain.busy.Seconds()), "ratio")
	r.note("untraced requests %d, traced requests %d", plain.requests, traced.requests)
	r.trace = traced.tr
	return r, nil
}

// scrape reads the daemon's Prometheus exposition into name → value,
// keeping the unlabelled series only.
func scrape(d *daemon) (map[string]float64, error) {
	resp, err := d.client.Get(d.srv.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
