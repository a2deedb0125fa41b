package httpapi_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aalwines/internal/gen"
	"aalwines/internal/httpapi"
	"aalwines/internal/live"
)

// TestMuxErrorsWearEnvelope checks that routing misses under /api/ answer
// with the JSON envelope instead of the mux's plain-text pages.
func TestMuxErrorsWearEnvelope(t *testing.T) {
	ts := newTestServer(t)

	resp := doJSON(t, http.MethodGet, ts.URL+"/api/v1/no-such-route", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	env := decodeEnvelope(t, resp)
	resp.Body.Close()
	if env.Code != "not-found" {
		t.Errorf("envelope = %+v, want not-found", env)
	}

	resp = doJSON(t, http.MethodDelete, ts.URL+"/api/v1/verify", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
	env = decodeEnvelope(t, resp)
	resp.Body.Close()
	if env.Code != "method-not-allowed" || !strings.Contains(env.Details["allow"], "POST") {
		t.Errorf("envelope = %+v, want method-not-allowed with allow=POST", env)
	}

	// Non-API paths keep the default plain-text behaviour.
	resp = doJSON(t, http.MethodGet, ts.URL+"/nope", nil)
	if ct := resp.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		t.Errorf("non-API 404 got JSON Content-Type %q", ct)
	}
	resp.Body.Close()
}

func createTestSession(t *testing.T, baseURL string) string {
	t.Helper()
	resp := doJSON(t, http.MethodPost, baseURL+"/api/v1/sessions",
		httpapi.SessionCreateRequest{Network: "running-example"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("session create: status = %d", resp.StatusCode)
	}
	sess := decodeBody[httpapi.SessionJSON](t, resp)
	resp.Body.Close()
	return sess.ID
}

// TestWatchLifecycle drives a watch through create → initial events →
// delta-triggered transition → list → close over the HTTP surface, using
// the NDJSON framing with a limit for deterministic reads.
func TestWatchLifecycle(t *testing.T) {
	ts := newTestServer(t)
	sid := createTestSession(t, ts.URL)
	base := ts.URL + "/api/v1/sessions/" + sid

	const q = "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0"
	resp := doJSON(t, http.MethodPost, base+"/watch",
		httpapi.WatchCreateRequest{Invariants: []string{q}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("watch create: status = %d", resp.StatusCode)
	}
	info := decodeBody[live.WatchInfo](t, resp)
	resp.Body.Close()
	if info.ID == "" || len(info.Invariants) != 1 || info.Pending != 1 {
		t.Fatalf("watch info = %+v, want one pending initial verdict", info)
	}

	// Bad invariants reject the whole watch with the query's own error.
	resp = doJSON(t, http.MethodPost, base+"/watch",
		httpapi.WatchCreateRequest{Invariants: []string{"<s40"}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad invariant: status = %d, want 422", resp.StatusCode)
	}
	env := decodeEnvelope(t, resp)
	resp.Body.Close()
	if env.Code != "query-error" || env.Details["query"] != "<s40" {
		t.Fatalf("bad invariant envelope = %+v", env)
	}

	// Drain the initial event over NDJSON.
	evs := readNDJSONEvents(t, base+"/watch/"+info.ID+"/events?format=ndjson&limit=1")
	if len(evs) != 1 || evs[0].Type != "verdict" || evs[0].Query != q || evs[0].Cell == nil {
		t.Fatalf("initial events = %+v", evs)
	}
	initialVerdict := evs[0].Cell.Verdict

	// A delta on the witness path re-verifies and queues the transition.
	link := evs[0].Cell.Trace[0].Link
	dresp := doJSON(t, http.MethodPost, base+"/deltas",
		httpapi.SessionDeltasRequest{Commands: []string{"fail " + link}})
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status = %d", dresp.StatusCode)
	}
	dresp.Body.Close()
	evs = readNDJSONEvents(t, base+"/watch/"+info.ID+"/events?format=ndjson&limit=1")
	if len(evs) != 1 || evs[0].Type != "verdict" || evs[0].Cell.Verdict == initialVerdict {
		t.Fatalf("transition events = %+v (initial verdict %s)", evs, initialVerdict)
	}

	// List shows the watch; closing it 204s; the id is then unknown.
	lresp := doJSON(t, http.MethodGet, base+"/watch", nil)
	ws := decodeBody[[]live.WatchInfo](t, lresp)
	lresp.Body.Close()
	if len(ws) != 1 || ws[0].ID != info.ID {
		t.Fatalf("watch list = %+v", ws)
	}
	cresp := doJSON(t, http.MethodDelete, base+"/watch/"+info.ID, nil)
	if cresp.StatusCode != http.StatusNoContent {
		t.Fatalf("watch close: status = %d", cresp.StatusCode)
	}
	cresp.Body.Close()
	gresp := doJSON(t, http.MethodDelete, base+"/watch/"+info.ID, nil)
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("watch close again: status = %d, want 404", gresp.StatusCode)
	}
	env = decodeEnvelope(t, gresp)
	gresp.Body.Close()
	if env.Code != "watch-not-found" {
		t.Fatalf("envelope = %+v", env)
	}
}

// reverifyCount reads live_reverify_ms_count from GET /metrics.
func reverifyCount(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	for _, line := range strings.Split(getMetrics(t, ts), "\n") {
		if v, ok := strings.CutPrefix(line, "live_reverify_ms_count "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("bad count line %q", line)
			}
			return n
		}
	}
	t.Fatal("live_reverify_ms_count missing from /metrics")
	return 0
}

// TestDeltaRefreshObservesReverify: the re-verification an HTTP delta or
// undo triggers on a watched session is a live_reverify_ms observation,
// as a feed flush's is; a session without watches re-verifies nothing.
func TestDeltaRefreshObservesReverify(t *testing.T) {
	ts := newTestServer(t)
	sid := createTestSession(t, ts.URL)
	base := ts.URL + "/api/v1/sessions/" + sid
	step := func(method, url string, body any) int {
		t.Helper()
		before := reverifyCount(t, ts)
		resp := doJSON(t, method, url, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status = %d", method, url, resp.StatusCode)
		}
		return reverifyCount(t, ts) - before
	}
	fail := httpapi.SessionDeltasRequest{Commands: []string{"fail v2.oe4#v3.ie4"}}
	if n := step(http.MethodPost, base+"/deltas", fail); n != 0 {
		t.Fatalf("delta without watches: %d observations, want 0", n)
	}
	resp := doJSON(t, http.MethodPost, base+"/watch",
		httpapi.WatchCreateRequest{Invariants: []string{"<ip> [.#v0] .* [v3#.] <ip> 1"}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("watch create: status = %d", resp.StatusCode)
	}
	drain := httpapi.SessionDeltasRequest{Commands: []string{"fail v2.oe5#v4.ie5"}}
	if n := step(http.MethodPost, base+"/deltas", drain); n != 1 {
		t.Errorf("delta: %d observations, want 1", n)
	}
	if n := step(http.MethodDelete, base+"/deltas/2", nil); n != 1 {
		t.Errorf("undo: %d observations, want 1", n)
	}
}

// TestWatchLimitIgnoresHeartbeats is the regression test for heartbeats
// counting toward ?limit: a quiet stream with limit=N must stay open
// through any number of keep-alives and end only after N real events.
func TestWatchLimitIgnoresHeartbeats(t *testing.T) {
	s := httpapi.NewServer()
	s.Register(gen.RunningExample().Network)
	s.Heartbeat = 20 * time.Millisecond
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	sid := createTestSession(t, ts.URL)
	base := ts.URL + "/api/v1/sessions/" + sid
	const q = "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0"

	// One-shot verify to learn a link on the witness path before the watch
	// stream (which consumes the initial cell) is attached.
	vresp := doJSON(t, http.MethodPost, base+"/verify", httpapi.VerifyRequest{Query: q})
	if vresp.StatusCode != http.StatusOK {
		t.Fatalf("verify: status = %d", vresp.StatusCode)
	}
	witness := decodeBody[struct {
		Trace []struct {
			Link string `json:"link"`
		} `json:"trace"`
	}](t, vresp)
	vresp.Body.Close()
	if len(witness.Trace) == 0 {
		t.Fatal("witness query returned no trace")
	}

	resp := doJSON(t, http.MethodPost, base+"/watch",
		httpapi.WatchCreateRequest{Invariants: []string{q}})
	info := decodeBody[live.WatchInfo](t, resp)
	resp.Body.Close()

	done := make(chan []live.WatchEvent, 1)
	go func() {
		done <- readNDJSONEvents(t, base+"/watch/"+info.ID+"/events?format=ndjson&limit=2")
	}()

	// The pending initial verdict is the only real event; several heartbeat
	// periods later the stream must still be waiting for the second.
	time.Sleep(150 * time.Millisecond)
	select {
	case evs := <-done:
		t.Fatalf("stream ended on heartbeats alone: %+v", evs)
	default:
	}

	dresp := doJSON(t, http.MethodPost, base+"/deltas",
		httpapi.SessionDeltasRequest{Commands: []string{"fail " + witness.Trace[0].Link}})
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status = %d", dresp.StatusCode)
	}
	dresp.Body.Close()

	evs := <-done
	var real, beats int
	for _, ev := range evs {
		if ev.Type == "heartbeat" {
			beats++
		} else {
			real++
		}
	}
	if real != 2 || evs[len(evs)-1].Type != "verdict" {
		t.Fatalf("stream = %+v, want exactly 2 real events ending in a verdict", evs)
	}
	if beats == 0 {
		t.Fatal("no heartbeats observed — the limit semantics were not exercised")
	}
}

func readNDJSONEvents(t *testing.T, url string) []live.WatchEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events: Content-Type = %q", ct)
	}
	var out []live.WatchEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev live.WatchEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, ev)
	}
	return out
}

// TestWatchSSEStream is the SSE smoke test: correct content type, correct
// framing, events parse back out of the data: lines, and the stream closes
// with the close event when the session is torn down.
func TestWatchSSEStream(t *testing.T) {
	ts := newTestServer(t)
	sid := createTestSession(t, ts.URL)
	base := ts.URL + "/api/v1/sessions/" + sid

	resp := doJSON(t, http.MethodPost, base+"/watch", httpapi.WatchCreateRequest{
		Invariants: []string{"<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0"},
	})
	info := decodeBody[live.WatchInfo](t, resp)
	resp.Body.Close()

	// Close the session from a second connection while the stream is open:
	// the stream must end with an honest close event.
	sresp, err := http.Get(base + "/watch/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	// A second stream on the same watch is refused while this one is live.
	bresp, err := http.Get(base + "/watch/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if bresp.StatusCode != http.StatusConflict {
		t.Fatalf("second stream: status = %d, want 409", bresp.StatusCode)
	}
	env := decodeEnvelope(t, bresp)
	bresp.Body.Close()
	if env.Code != "watch-busy" {
		t.Fatalf("second stream envelope = %+v", env)
	}

	go func() {
		resp := doJSON(t, http.MethodDelete, ts.URL+"/api/v1/sessions/"+sid, nil)
		resp.Body.Close()
	}()

	var types []string
	var data []string
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			types = append(types, strings.TrimPrefix(line, "event: "))
		}
		if strings.HasPrefix(line, "data: ") {
			data = append(data, strings.TrimPrefix(line, "data: "))
		}
	}
	if len(types) < 2 || types[0] != "verdict" || types[len(types)-1] != "close" {
		t.Fatalf("SSE event types = %v, want verdict ... close", types)
	}
	var closeEv live.WatchEvent
	if err := json.Unmarshal([]byte(data[len(data)-1]), &closeEv); err != nil {
		t.Fatal(err)
	}
	if closeEv.Type != "close" || closeEv.Reason != "session-closed" {
		t.Fatalf("close event = %+v", closeEv)
	}
}

// TestSessionCloseConcurrentGet is the regression test for the
// closed-session race: gets racing a close must each see either the live
// session or a clean 404 session-not-found envelope — never a broken
// response. Run with -race.
func TestSessionCloseConcurrentGet(t *testing.T) {
	ts := newTestServer(t)
	for round := 0; round < 8; round++ {
		sid := createTestSession(t, ts.URL)
		url := ts.URL + "/api/v1/sessions/" + sid
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 10; i++ {
					resp := doJSON(t, http.MethodGet, url, nil)
					switch resp.StatusCode {
					case http.StatusOK:
						var sj httpapi.SessionJSON
						if err := json.NewDecoder(resp.Body).Decode(&sj); err != nil {
							t.Errorf("bad 200 body during close race: %v", err)
						}
					case http.StatusNotFound:
						var env httpapi.ErrorEnvelope
						if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Code != "session-not-found" {
							t.Errorf("bad 404 during close race: %+v (%v)", env, err)
						}
					default:
						t.Errorf("status %d during close race", resp.StatusCode)
					}
					resp.Body.Close()
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp := doJSON(t, http.MethodDelete, url, nil)
			if resp.StatusCode != http.StatusNoContent {
				t.Errorf("close: status = %d", resp.StatusCode)
			}
			resp.Body.Close()
		}()
		close(start)
		wg.Wait()
	}
}

// TestWatchOnLiveFeedSession checks AttachLiveFeed registers an
// API-visible session whose watches see feed-driven transitions.
func TestWatchOnLiveFeedSession(t *testing.T) {
	s := newLiveFeedServer(t)

	base := s.ts.URL + "/api/v1/sessions/" + s.sid
	const q = "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0"
	resp := doJSON(t, http.MethodPost, base+"/watch",
		httpapi.WatchCreateRequest{Invariants: []string{q}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("watch create on feed session: status = %d", resp.StatusCode)
	}
	info := decodeBody[live.WatchInfo](t, resp)
	resp.Body.Close()

	evs := readNDJSONEvents(t, base+"/watch/"+info.ID+"/events?format=ndjson&limit=1")
	if len(evs) != 1 || evs[0].Type != "verdict" {
		t.Fatalf("initial = %+v", evs)
	}
	link := evs[0].Cell.Trace[0].Link

	// Drive the feed: fail the witness link, flush.
	s.feed(t, fmt.Sprintf("{%q:%q,%q:%q}\nflush\n", "type", "link-down", "link", link))
	evs = readNDJSONEvents(t, base+"/watch/"+info.ID+"/events?format=ndjson&limit=1")
	if len(evs) != 1 || evs[0].Type != "verdict" || evs[0].Cell.Verdict == "satisfied" {
		t.Fatalf("feed transition = %+v", evs)
	}
}

// TestFeedFlushRevertRefreshesWatches: the feed owns a feed session's
// stack, so a flush that drops an HTTP delta changes the session and must
// re-verify its watches. The verdict event it delivers equals a
// from-scratch verify of the reverted (empty-stack) session.
func TestFeedFlushRevertRefreshesWatches(t *testing.T) {
	s := newLiveFeedServer(t)
	base := s.ts.URL + "/api/v1/sessions/" + s.sid
	const q = "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0"
	s.feed(t, "flush\n")
	resp := doJSON(t, http.MethodPost, base+"/watch", httpapi.WatchCreateRequest{Invariants: []string{q}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("watch create: status = %d", resp.StatusCode)
	}
	events := base + "/watch/" + decodeBody[live.WatchInfo](t, resp).ID + "/events?format=ndjson&limit=1"
	if evs := readNDJSONEvents(t, events); len(evs) != 1 || evs[0].Cell.Verdict != "satisfied" {
		t.Fatalf("initial = %+v, want satisfied", evs)
	}

	resp = doJSON(t, http.MethodPost, base+"/deltas",
		httpapi.SessionDeltasRequest{Commands: []string{"fail vsrc.oe0#v0.ie0"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deltas: status = %d", resp.StatusCode)
	}
	if evs := readNDJSONEvents(t, events); len(evs) != 1 || evs[0].Cell.Verdict == "satisfied" {
		t.Fatalf("after the delta = %+v, want a flip from satisfied", evs)
	}

	s.feed(t, "flush\n")
	watches := decodeBody[[]live.WatchInfo](t, doJSON(t, http.MethodGet, base+"/watch", nil))
	if len(watches) != 1 || watches[0].Pending != 1 {
		t.Fatalf("after the reverting flush, watches = %+v, want one pending event", watches)
	}
	evs := readNDJSONEvents(t, events)
	if len(evs) != 1 {
		t.Fatalf("after the reverting flush = %+v, want one event", evs)
	}
	_, fresh := postVerify(t, s.ts, httpapi.VerifyRequest{Network: "running-example", Query: q})
	want, _ := json.Marshal(live.Cell{Query: fresh.Query, Verdict: fresh.Verdict, Weight: fresh.Weight,
		Failed: fresh.Failed, Trace: fresh.Trace})
	if got, _ := json.Marshal(evs[0].Cell); string(got) != string(want) {
		t.Fatalf("after the reverting flush = %s, want %s", got, want)
	}
}

// liveFeedServer pairs an API server with a feed-attached session, the
// aalwinesd -feed wiring in miniature.
type liveFeedServer struct {
	ts  *httptest.Server
	sid string
	ing *live.Ingester
}

func newLiveFeedServer(t *testing.T) *liveFeedServer {
	t.Helper()
	s := httpapi.NewServer()
	s.Register(gen.RunningExample().Network)
	ing, sid, err := s.AttachLiveFeed("running-example", live.Options{MaxPending: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &liveFeedServer{ts: ts, sid: sid, ing: ing}
}

// feed replays text through the ingester synchronously (window 0, so
// flushes happen only on flush events and EOF).
func (s *liveFeedServer) feed(t *testing.T, text string) {
	t.Helper()
	stats, err := s.ing.Run(context.Background(), strings.NewReader(text))
	if err != nil {
		t.Fatalf("feed: %v", err)
	}
	if stats.Errors != 0 {
		t.Fatalf("feed stats = %+v, want no errors", stats)
	}
}
