package httpapi_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"aalwines/internal/cli"
	"aalwines/internal/gen"
	"aalwines/internal/httpapi"
	"aalwines/internal/sweep"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := httpapi.NewServer()
	s.Register(gen.RunningExample().Network)
	s.Register(gen.Zoo(gen.ZooOpts{Routers: 16, Seed: 1, Protection: true}).Net)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestListNetworks(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/v1/networks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if d := resp.Header.Get("Deprecation"); d != "" {
		t.Errorf("v1 route carries Deprecation header %q", d)
	}
	var infos []httpapi.NetworkInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("networks = %d, want 2", len(infos))
	}
	if infos[0].Name > infos[1].Name {
		t.Error("not sorted")
	}
	for _, in := range infos {
		if in.Rules == 0 || in.Routers == 0 {
			t.Errorf("empty info: %+v", in)
		}
	}
}

// decodeEnvelope asserts a non-2xx response carries the single error
// envelope: a non-empty machine-readable code and a message, and no legacy
// top-level "error" key.
func decodeEnvelope(t *testing.T, resp *http.Response) httpapi.ErrorEnvelope {
	t.Helper()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var generic map[string]json.RawMessage
	if err := json.Unmarshal(raw, &generic); err != nil {
		t.Fatalf("error body is not JSON: %v\n%s", err, raw)
	}
	if _, ok := generic["error"]; ok {
		t.Errorf("error body still has legacy top-level \"error\" key: %s", raw)
	}
	var env httpapi.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("error body does not match envelope: %v\n%s", err, raw)
	}
	if env.Code == "" || env.Message == "" {
		t.Errorf("envelope missing code/message: %s", raw)
	}
	return env
}

func TestTopology(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/v1/networks/running-example/topology")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var topo httpapi.TopologyJSON
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	if len(topo.Routers) != 7 || len(topo.Links) != 8 {
		t.Fatalf("topology: %d routers %d links", len(topo.Routers), len(topo.Links))
	}
	// Unknown network → 404 error envelope with a details pointer.
	resp2, err := http.Get(ts.URL + "/api/v1/networks/ghost/topology")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp2.StatusCode)
	}
	env := decodeEnvelope(t, resp2)
	if env.Code != "not-found" || env.Details["network"] != "ghost" {
		t.Errorf("envelope = %+v, want not-found with details.network=ghost", env)
	}
}

func postVerify(t *testing.T, ts *httptest.Server, req httpapi.VerifyRequest) (*http.Response, cli.ResultJSON) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/api/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out cli.ResultJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestVerifyEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, out := postVerify(t, ts, httpapi.VerifyRequest{
		Network: "running-example",
		Query:   "<ip> [.#v0] .* [v3#.] <ip> 0",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Verdict != "satisfied" || len(out.Trace) != 4 {
		t.Fatalf("result = %+v", out)
	}
}

func TestVerifyWeighted(t *testing.T) {
	ts := newTestServer(t)
	resp, out := postVerify(t, ts, httpapi.VerifyRequest{
		Network: "running-example",
		Query:   "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
		Weight:  "Hops, Failures + 3*Tunnels",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Weight) != 2 || out.Weight[0] != 5 || out.Weight[1] != 0 {
		t.Fatalf("weight = %v, want [5 0]", out.Weight)
	}
}

func TestVerifyMopedEngine(t *testing.T) {
	ts := newTestServer(t)
	resp, out := postVerify(t, ts, httpapi.VerifyRequest{
		Network: "running-example",
		Query:   "<ip> [.#v0] .* [v3#.] <ip> 0",
		Engine:  "moped",
	})
	if resp.StatusCode != http.StatusOK || out.Verdict != "satisfied" {
		t.Fatalf("status=%d result=%+v", resp.StatusCode, out)
	}
}

func TestVerifyErrors(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		req    httpapi.VerifyRequest
		status int
		code   string
	}{
		{httpapi.VerifyRequest{Network: "ghost", Query: "<ip> .* <ip> 0"}, http.StatusNotFound, "not-found"},
		{httpapi.VerifyRequest{Network: "running-example"}, http.StatusBadRequest, "bad-request"},
		{httpapi.VerifyRequest{Network: "running-example", Query: "<bogus> .* <ip> 0"}, http.StatusUnprocessableEntity, "query-error"},
		// A parse error whose text mentions "budget" is still a query error.
		{httpapi.VerifyRequest{Network: "running-example", Query: "<ip> [.#budget] .* [v3#.] <ip> 0"}, http.StatusUnprocessableEntity, "query-error"},
		{httpapi.VerifyRequest{Network: "running-example", Query: "budget"}, http.StatusUnprocessableEntity, "query-error"},
		{httpapi.VerifyRequest{Network: "running-example", Query: "<ip> .* <ip> 0", Weight: "frobs"}, http.StatusBadRequest, "bad-request"},
		{httpapi.VerifyRequest{Network: "running-example", Query: "<ip> .* <ip> 0", Engine: "z3"}, http.StatusBadRequest, "bad-request"},
		{httpapi.VerifyRequest{Network: "running-example", Query: "<ip> .* <ip> 0", Engine: "moped", Weight: "Hops"}, http.StatusBadRequest, "bad-request"},
	}
	for i, c := range cases {
		resp, _ := postVerify(t, ts, c.req)
		if resp.StatusCode != c.status {
			t.Errorf("case %d: status = %d, want %d", i, resp.StatusCode, c.status)
			continue
		}
		if env := decodeEnvelope(t, resp); env.Code != c.code {
			t.Errorf("case %d: code = %q, want %q", i, env.Code, c.code)
		}
	}
	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/api/v1/verify", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status = %d", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Code != "bad-request" {
		t.Errorf("malformed body: code = %q, want bad-request", env.Code)
	}
}

func TestVerifyBudgetCap(t *testing.T) {
	s := httpapi.NewServer()
	s.Register(gen.RunningExample().Network)
	s.MaxBudget = 1 // absurdly small: every query times out
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, eng := range []string{"dual", "moped"} {
		body, _ := json.Marshal(httpapi.VerifyRequest{
			Network: "running-example",
			Query:   "<ip> [.#v0] .* [v3#.] <ip> 0",
			Budget:  1_000_000, // request may not raise the cap
			Engine:  eng,
		})
		resp, err := http.Post(ts.URL+"/api/v1/verify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusGatewayTimeout {
			resp.Body.Close()
			t.Fatalf("%s: status = %d, want 504", eng, resp.StatusCode)
		}
		env := decodeEnvelope(t, resp)
		resp.Body.Close()
		if env.Code != "budget-exhausted" {
			t.Errorf("%s: code = %q, want budget-exhausted", eng, env.Code)
		}
		// Partial stats: the build phase completed before saturation gave
		// up, so the envelope's stats block carries its timing — and, for
		// moped's eager product, its rule count (the default on-the-fly
		// product has no rules before saturation).
		if env.Stats == nil {
			t.Fatalf("%s: error envelope missing partial stats", eng)
		}
		if env.Stats.TimingMS.Build <= 0 {
			t.Errorf("%s: partial stats lost the build timing: %+v", eng, env.Stats.TimingMS)
		}
		if eng == "moped" && env.Stats.Sizes.OverRules == 0 {
			t.Errorf("%s: partial stats lost the rule count: %+v", eng, env.Stats.Sizes)
		}
	}
}

// TestVerifyBatchBudgetCode checks that a budget-exhausted query inside a
// batch carries the same machine-readable code (and its partial stats) as
// the single-verify route's 504, even though the batch itself returns 200.
func TestVerifyBatchBudgetCode(t *testing.T) {
	s := httpapi.NewServer()
	s.Register(gen.RunningExample().Network)
	s.MaxBudget = 1
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, out := postBatch(t, ts, httpapi.VerifyBatchRequest{
		Network: "running-example",
		Queries: []string{"<ip> [.#v0] .* [v3#.] <ip> 0"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	item := out.Results[0]
	if item.Error == "" || item.Code != "budget-exhausted" {
		t.Fatalf("item = %+v, want budget-exhausted error", item)
	}
	if item.TimingMS.Build <= 0 {
		t.Errorf("batch error item lost partial stats: %+v", item.TimingMS)
	}
}

// TestMetricsEndpoint drives a batch through the API and checks that
// GET /metrics exposes non-zero saturation, cache and latency metrics in
// Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	postBatch(t, ts, httpapi.VerifyBatchRequest{
		Network: "running-example",
		Queries: []string{
			"<ip> [.#v0] .* [v3#.] <ip> 0",
			"<ip> [.#v0] .* [v3#.] <ip> 0", // repeat → cache hit
		},
	})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"pds_worklist_pops_total{alg=\"poststar\"}",
		"pds_early_accept_total",
		"pds_index_probes_total{alg=\"poststar\"}",
		"pds_pool_hits_total",
		"pds_pool_misses_total",
		"engine_rules_generated_total{approx=\"over\"}",
		"translate_rules_emitted_total",
		"translate_rules_kept_total",
		"engine_early_accept_fallback_total",
		"translate_cache_gets_total{network=\"running-example\"}",
		"batch_query_seconds_count",
		"engine_phase_seconds_bucket{phase=\"build\",le=",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// The registry is process-global and other tests contribute, but this
	// batch alone guarantees non-zero pops and cache gets.
	if strings.Contains(body, "pds_worklist_pops_total{alg=\"poststar\"} 0\n") {
		t.Error("poststar pops counter is zero after a batch")
	}
	// The engine builds on the fly by default, so the batch generated
	// rules.
	if strings.Contains(body, "engine_rules_generated_total{approx=\"over\"} 0\n") {
		t.Error("over generated-rules counter is zero after a batch")
	}
}

func postBatch(t *testing.T, ts *httptest.Server, req httpapi.VerifyBatchRequest) (*http.Response, httpapi.VerifyBatchResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/api/v1/verify-batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out httpapi.VerifyBatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// TestVerifyBatchEndpoint runs a batch over the running example and checks
// order, verdict agreement with the single endpoint and inline per-query
// errors.
func TestVerifyBatchEndpoint(t *testing.T) {
	ts := newTestServer(t)
	queries := []string{
		"<ip> [.#v0] .* [v3#.] <ip> 0",
		"<ip> [.#v0] .* [v2#v4] .* [v3#.] <ip> 1",
		"<ip> [.#no-such-router] .* <ip> 0", // parse error, isolated
		"<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
	}
	resp, out := postBatch(t, ts, httpapi.VerifyBatchRequest{
		Network: "running-example", Queries: queries, Workers: 4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Results) != len(queries) {
		t.Fatalf("results = %d, want %d", len(out.Results), len(queries))
	}
	for i, item := range out.Results {
		if item.Query != queries[i] {
			t.Errorf("result %d out of order: %q", i, item.Query)
		}
		if i == 2 {
			if item.Error == "" {
				t.Error("malformed query reported no error")
			}
			continue
		}
		if item.Error != "" {
			t.Fatalf("%q: %s", item.Query, item.Error)
		}
		_, single := postVerify(t, ts, httpapi.VerifyRequest{
			Network: "running-example", Query: queries[i],
		})
		if item.Verdict != single.Verdict {
			t.Errorf("%q: batch verdict %q, single %q", item.Query, item.Verdict, single.Verdict)
		}
	}
}

func TestVerifyBatchErrors(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		req    httpapi.VerifyBatchRequest
		status int
	}{
		{httpapi.VerifyBatchRequest{Network: "ghost", Queries: []string{"<ip> .* <ip> 0"}}, http.StatusNotFound},
		{httpapi.VerifyBatchRequest{Network: "running-example"}, http.StatusBadRequest},
		{httpapi.VerifyBatchRequest{Network: "running-example", Queries: []string{"<ip> .* <ip> 0"}, Engine: "z3"}, http.StatusBadRequest},
	}
	for i, c := range cases {
		resp, _ := postBatch(t, ts, c.req)
		if resp.StatusCode != c.status {
			t.Errorf("case %d: status = %d, want %d", i, resp.StatusCode, c.status)
		}
	}
}

// TestConcurrentBatch fires overlapping batch requests (and a worker cap)
// at one server; under -race this stresses the per-network runner sharing.
func TestConcurrentBatch(t *testing.T) {
	s := httpapi.NewServer()
	s.Register(gen.RunningExample().Network)
	s.Parallel = 2
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	queries := []string{
		"<ip> [.#v0] .* [v3#.] <ip> 0",
		"<ip> [.#v0] .* [v2#v4] .* [v3#.] <ip> 1",
		"<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
	}
	const calls = 6
	out := make([]httpapi.VerifyBatchResponse, calls)
	var wg sync.WaitGroup
	for c := 0; c < calls; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(httpapi.VerifyBatchRequest{
				Network: "running-example", Queries: queries, Workers: 8,
			})
			resp, err := http.Post(ts.URL+"/api/v1/verify-batch", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d", resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&out[c]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for c := 1; c < calls; c++ {
		for i := range queries {
			a, b := out[c].Results[i], out[0].Results[i]
			if a.Verdict != b.Verdict || a.Error != b.Error {
				t.Errorf("call %d query %d: %q/%q differs from %q/%q",
					c, i, a.Verdict, a.Error, b.Verdict, b.Error)
			}
		}
	}
}

// TestConcurrentVerify exercises the read-only concurrency contract.
func TestConcurrentVerify(t *testing.T) {
	ts := newTestServer(t)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(httpapi.VerifyRequest{
				Network: "running-example",
				Query:   "<ip> [.#v0] .* [v3#.] <ip> 0",
			})
			resp, err := http.Post(ts.URL+"/api/v1/verify", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- resp.Status
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// --- scenario session routes ---

func doJSON(t *testing.T, method, url string, body any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSessionLifecycle drives one session through create → verify →
// mutate → verify → undo → verify → close, checking that the empty-stack
// session agrees with the plain verify route and that undo restores the
// original fingerprint and verdict.
func TestSessionLifecycle(t *testing.T) {
	ts := newTestServer(t)
	const queryText = "<ip> [.#v0] .* [v3#.] <ip> 0"

	resp := doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions",
		httpapi.SessionCreateRequest{Network: "running-example"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status = %d, want 201", resp.StatusCode)
	}
	sj := decodeBody[httpapi.SessionJSON](t, resp)
	if sj.ID != "s1" || sj.Network != "running-example" {
		t.Fatalf("session = %+v", sj)
	}
	if len(sj.Fingerprint) != 16 {
		t.Fatalf("fingerprint = %q, want 16 hex digits", sj.Fingerprint)
	}
	if sj.Deltas == nil || len(sj.Deltas) != 0 {
		t.Fatalf("deltas = %#v, want empty slice", sj.Deltas)
	}
	baseFP := sj.Fingerprint
	sessURL := ts.URL + "/api/v1/sessions/" + sj.ID

	// List includes the session.
	listResp := doJSON(t, http.MethodGet, ts.URL+"/api/v1/sessions", nil)
	if got := decodeBody[[]httpapi.SessionJSON](t, listResp); len(got) != 1 || got[0].ID != "s1" {
		t.Fatalf("list = %+v", got)
	}

	// Empty-stack session verify agrees with the plain route.
	_, plain := postVerify(t, ts, httpapi.VerifyRequest{
		Network: "running-example", Query: queryText,
	})
	vresp := doJSON(t, http.MethodPost, sessURL+"/verify",
		httpapi.VerifyRequest{Query: queryText})
	if vresp.StatusCode != http.StatusOK {
		t.Fatalf("session verify: status = %d", vresp.StatusCode)
	}
	base := decodeBody[cli.ResultJSON](t, vresp)
	if base.Verdict != plain.Verdict || len(base.Trace) != len(plain.Trace) {
		t.Fatalf("empty-stack session verdict %q (trace %d) differs from plain %q (trace %d)",
			base.Verdict, len(base.Trace), plain.Verdict, len(plain.Trace))
	}

	// Apply a link failure.
	dresp := doJSON(t, http.MethodPost, sessURL+"/deltas",
		httpapi.SessionDeltasRequest{Commands: []string{"fail v2.oe4#v3.ie4"}})
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("deltas: status = %d", dresp.StatusCode)
	}
	dout := decodeBody[httpapi.SessionDeltasResponse](t, dresp)
	if len(dout.Applied) != 1 || dout.Applied[0].Seq != 1 ||
		dout.Applied[0].Canon != "fail v2.oe4#v3.ie4" {
		t.Fatalf("applied = %+v", dout.Applied)
	}
	if dout.Session.Fingerprint == baseFP {
		t.Error("fingerprint unchanged after delta")
	}

	vresp2 := doJSON(t, http.MethodPost, sessURL+"/verify",
		httpapi.VerifyRequest{Query: queryText})
	if vresp2.StatusCode != http.StatusOK {
		t.Fatalf("session verify after delta: status = %d", vresp2.StatusCode)
	}
	decodeBody[cli.ResultJSON](t, vresp2)

	// Cache stats are exposed on GET after verifying.
	gresp := doJSON(t, http.MethodGet, sessURL, nil)
	gj := decodeBody[httpapi.SessionJSON](t, gresp)
	if gj.Cache == nil || gj.Cache.Gets == 0 {
		t.Fatalf("session get: cache stats = %+v, want non-zero gets", gj.Cache)
	}
	if len(gj.Deltas) != 1 {
		t.Fatalf("session get: deltas = %+v", gj.Deltas)
	}

	// Undo restores the base fingerprint and verdict.
	uresp := doJSON(t, http.MethodDelete, sessURL+"/deltas/1", nil)
	if uresp.StatusCode != http.StatusOK {
		t.Fatalf("undo: status = %d", uresp.StatusCode)
	}
	uj := decodeBody[httpapi.SessionJSON](t, uresp)
	if uj.Fingerprint != baseFP || len(uj.Deltas) != 0 {
		t.Fatalf("undo: session = %+v, want fingerprint %s and no deltas", uj, baseFP)
	}
	vresp3 := doJSON(t, http.MethodPost, sessURL+"/verify",
		httpapi.VerifyRequest{Query: queryText})
	redo := decodeBody[cli.ResultJSON](t, vresp3)
	if redo.Verdict != base.Verdict {
		t.Errorf("verdict after undo = %q, want %q", redo.Verdict, base.Verdict)
	}

	// Batch verification against the overlay.
	bresp := doJSON(t, http.MethodPost, sessURL+"/verify-batch",
		httpapi.VerifyBatchRequest{Queries: []string{queryText, queryText}})
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("session batch: status = %d", bresp.StatusCode)
	}
	bout := decodeBody[httpapi.VerifyBatchResponse](t, bresp)
	if len(bout.Results) != 2 || bout.Results[0].Verdict != base.Verdict {
		t.Fatalf("session batch results = %+v", bout.Results)
	}

	// Close, then the id is gone.
	cresp := doJSON(t, http.MethodDelete, sessURL, nil)
	if cresp.StatusCode != http.StatusNoContent {
		t.Fatalf("close: status = %d, want 204", cresp.StatusCode)
	}
	goneResp := doJSON(t, http.MethodGet, sessURL, nil)
	if goneResp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after close: status = %d, want 404", goneResp.StatusCode)
	}
	env := decodeEnvelope(t, goneResp)
	if env.Code != "session-not-found" || env.Details["session"] != "s1" {
		t.Errorf("envelope = %+v, want session-not-found with details.session=s1", env)
	}
}

// TestSessionErrors covers the error envelope on every session route,
// including atomic rollback of partially-applied delta batches.
func TestSessionErrors(t *testing.T) {
	ts := newTestServer(t)

	// Unknown network on create.
	resp := doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions",
		httpapi.SessionCreateRequest{Network: "ghost"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("create ghost: status = %d", resp.StatusCode)
	}
	decodeEnvelope(t, resp)

	// Bad initial delta: creation fails atomically, no session leaks.
	resp = doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions",
		httpapi.SessionCreateRequest{
			Network: "running-example",
			Deltas:  []string{"fail no-such-link"},
		})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("create with bad delta: status = %d, want 422", resp.StatusCode)
	}
	env := decodeEnvelope(t, resp)
	if env.Details["command"] != "fail no-such-link" {
		t.Errorf("details = %+v, want the offending command", env.Details)
	}
	listResp := doJSON(t, http.MethodGet, ts.URL+"/api/v1/sessions", nil)
	if got := decodeBody[[]httpapi.SessionJSON](t, listResp); len(got) != 0 {
		t.Fatalf("failed create leaked sessions: %+v", got)
	}

	// Working session for route-level errors.
	resp = doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions",
		httpapi.SessionCreateRequest{Network: "running-example"})
	sj := decodeBody[httpapi.SessionJSON](t, resp)
	sessURL := ts.URL + "/api/v1/sessions/" + sj.ID

	// Partially-bad delta batch rolls back entirely.
	dresp := doJSON(t, http.MethodPost, sessURL+"/deltas",
		httpapi.SessionDeltasRequest{Commands: []string{
			"fail v2.oe4#v3.ie4", // valid
			"drain nowhere",      // invalid router
		}})
	if dresp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("mixed deltas: status = %d, want 422", dresp.StatusCode)
	}
	env = decodeEnvelope(t, dresp)
	if env.Details["command"] != "drain nowhere" || env.Details["index"] != "1" {
		t.Errorf("details = %+v, want offending command at index 1", env.Details)
	}
	gj := decodeBody[httpapi.SessionJSON](t, doJSON(t, http.MethodGet, sessURL, nil))
	if len(gj.Deltas) != 0 {
		t.Fatalf("rollback failed, deltas = %+v", gj.Deltas)
	}

	// An absurd priority is rejected up front (422) instead of letting
	// materialize allocate billions of groups for it.
	dresp = doJSON(t, http.MethodPost, sessURL+"/deltas",
		httpapi.SessionDeltasRequest{Commands: []string{
			"add-entry v0.oe1#v2.ie1 s40 2000000000 v2.oe4#v3.ie4",
		}})
	if dresp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("huge priority: status = %d, want 422", dresp.StatusCode)
	}
	decodeEnvelope(t, dresp)

	// Undo of an unknown seq.
	uresp := doJSON(t, http.MethodDelete, sessURL+"/deltas/99", nil)
	if uresp.StatusCode != http.StatusNotFound {
		t.Fatalf("undo 99: status = %d, want 404", uresp.StatusCode)
	}
	if env := decodeEnvelope(t, uresp); env.Details["seq"] != "99" {
		t.Errorf("details = %+v, want seq 99", env.Details)
	}

	// Non-numeric seq.
	uresp = doJSON(t, http.MethodDelete, sessURL+"/deltas/frog", nil)
	if uresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("undo frog: status = %d, want 400", uresp.StatusCode)
	}
	decodeEnvelope(t, uresp)

	// Verify with a missing query.
	vresp := doJSON(t, http.MethodPost, sessURL+"/verify",
		httpapi.VerifyRequest{})
	if vresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty query: status = %d, want 400", vresp.StatusCode)
	}
	decodeEnvelope(t, vresp)

	// Verify with a malformed query.
	vresp = doJSON(t, http.MethodPost, sessURL+"/verify",
		httpapi.VerifyRequest{Query: "<bogus> .* <ip> 0"})
	if vresp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad query: status = %d, want 422", vresp.StatusCode)
	}
	if env := decodeEnvelope(t, vresp); env.Code != "query-error" {
		t.Errorf("code = %q, want query-error", env.Code)
	}

	// Routes on an unknown session id.
	for _, probe := range []struct{ method, url string }{
		{http.MethodGet, ts.URL + "/api/v1/sessions/s999"},
		{http.MethodDelete, ts.URL + "/api/v1/sessions/s999"},
		{http.MethodPost, ts.URL + "/api/v1/sessions/s999/verify"},
	} {
		resp := doJSON(t, probe.method, probe.url, httpapi.VerifyRequest{Query: "x"})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status = %d, want 404", probe.method, probe.url, resp.StatusCode)
			continue
		}
		decodeEnvelope(t, resp)
	}
}

// TestSessionLimit checks the MaxSessions guard returns 429 with the
// envelope rather than creating unbounded sessions.
func TestSessionLimit(t *testing.T) {
	s := httpapi.NewServer()
	s.Register(gen.RunningExample().Network)
	s.MaxSessions = 2
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		resp := doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions",
			httpapi.SessionCreateRequest{Network: "running-example"})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: status = %d", i, resp.StatusCode)
		}
	}
	resp := doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions",
		httpapi.SessionCreateRequest{Network: "running-example"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over limit: status = %d, want 429", resp.StatusCode)
	}
	decodeEnvelope(t, resp)
	// Closing one frees a slot.
	cresp := doJSON(t, http.MethodDelete, ts.URL+"/api/v1/sessions/s1", nil)
	if cresp.StatusCode != http.StatusNoContent {
		t.Fatalf("close: status = %d", cresp.StatusCode)
	}
	resp = doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions",
		httpapi.SessionCreateRequest{Network: "running-example"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create after close: status = %d, want 201", resp.StatusCode)
	}
	if sj := decodeBody[httpapi.SessionJSON](t, resp); sj.ID != fmt.Sprintf("s%d", 3) {
		t.Errorf("id = %q, want s3 (closed ids are never reused)", sj.ID)
	}
}

func postSweep(t *testing.T, ts *httptest.Server, network string, req httpapi.SweepRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/api/v1/networks/"+network+"/sweep", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestSweepEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp := postSweep(t, ts, "running-example", httpapi.SweepRequest{
		Depth: 2,
		Invariants: []string{
			"<ip> [.#v0] [v0#v2] .* [v3#.] <ip> 0",
			"<ip> [.#v0] .* [v3#.] <ip> 0",
		},
		Workers:      2,
		IncludeCells: true,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rep sweep.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	// 8 links → 8 singles + 28 pairs, × 2 invariants.
	if rep.Links != 8 || rep.Scenarios != 36 || rep.CellsTotal != 72 || rep.Incomplete {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Cells) != 72 {
		t.Fatalf("cells embedded = %d, want 72", len(rep.Cells))
	}
	if len(rep.Invariants) != 2 || rep.Invariants[0].Breaking == 0 {
		t.Fatalf("invariants = %+v", rep.Invariants)
	}
}

func TestSweepErrors(t *testing.T) {
	ts := newTestServer(t)
	check := func(resp *http.Response, wantStatus int, wantCode string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
		}
		var env httpapi.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if env.Code != wantCode {
			t.Fatalf("code = %q, want %q", env.Code, wantCode)
		}
	}
	inv := []string{"<ip> [.#v0] .* [v3#.] <ip> 0"}
	check(postSweep(t, ts, "no-such-net", httpapi.SweepRequest{Invariants: inv}),
		http.StatusNotFound, "not-found")
	check(postSweep(t, ts, "running-example", httpapi.SweepRequest{}),
		http.StatusBadRequest, "bad-request")
	check(postSweep(t, ts, "running-example", httpapi.SweepRequest{Depth: 3, Invariants: inv}),
		http.StatusBadRequest, "bad-request")
	check(postSweep(t, ts, "running-example", httpapi.SweepRequest{Invariants: []string{"not a query"}}),
		http.StatusBadRequest, "bad-request")
	// Config errors must get a proper envelope in stream mode too: the
	// success header is only written once the first cell lands.
	check(postSweep(t, ts, "running-example", httpapi.SweepRequest{Depth: 3, Invariants: inv, Stream: true}),
		http.StatusBadRequest, "bad-request")
}

func TestSweepStream(t *testing.T) {
	ts := newTestServer(t)
	resp := postSweep(t, ts, "running-example", httpapi.SweepRequest{
		Depth:      1,
		Invariants: []string{"<ip> [.#v0] .* [v3#.] <ip> 0"},
		Workers:    2,
		Stream:     true,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	var cells int
	var report *sweep.Report
	for {
		var ev httpapi.SweepStreamEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		switch {
		case ev.Cell != nil && report == nil:
			cells++
		case ev.Report != nil && report == nil:
			report = ev.Report
		default:
			t.Fatalf("unexpected event after report: %+v", ev)
		}
	}
	if report == nil {
		t.Fatal("stream ended without a report line")
	}
	// 8 single-link scenarios × 1 invariant.
	if cells != 8 || report.CellsTotal != 8 || report.Incomplete {
		t.Fatalf("streamed %d cells, report %+v", cells, report)
	}
}
