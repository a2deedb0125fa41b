// Command apicontract validates the versioned HTTP API contract against a
// running aalwinesd. It drives every /api/v1 route — including the watch
// subscription block and its NDJSON event transcript — in a fixed order on
// a freshly-started server, and compares each response to a golden JSON
// document, after stripping
// volatile fields (timings, translation sizes, cache counters) that
// legitimately vary between runs and engine versions.
//
//	aalwinesd -listen :8080 -net running-example &
//	apicontract -base http://localhost:8080
//	apicontract -base http://localhost:8080 -update   # regenerate goldens
//
// The golden files live in internal/httpapi/testdata/golden; CI runs this
// tool in the api-contract job, so any change to a response shape must
// either be backwards compatible or update the goldens in the same commit.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"
)

// volatileKeys are dropped from responses before comparison: they vary by
// wall clock or by engine internals that are not part of the API contract.
var volatileKeys = map[string]bool{
	"timingMs":  true, // per-phase wall-clock timings
	"elapsedMs": true, // batch wall-clock timings
	"sizes":     true, // automaton/rule counts move with translation changes
	"cache":     true, // session cache counters depend on engine internals
	"latencyMs": true, // sweep per-cell latency percentiles
}

type step struct {
	name       string
	method     string
	path       string
	body       string
	wantStatus int
	// wantHeaders are literal header expectations (e.g. the Content-Type of
	// an event stream).
	wantHeaders map[string]string
	// golden is the basename of the expected response document; empty for
	// bodyless responses (204).
	golden string
	// ndjson marks a newline-delimited-JSON response (watch event streams):
	// each line is parsed separately and the golden holds the transcript as
	// a JSON array.
	ndjson bool
}

// steps is the full v1 surface in execution order. The id of the session
// created by session-create is captured at runtime and substituted for
// {sid} in later paths (and canonicalised to "s1" in goldens), so the tool
// also passes against a server that has already served other sessions.
var steps = []step{
	{name: "healthz", method: "GET", path: "/healthz", wantStatus: 200},
	{name: "networks", method: "GET", path: "/api/v1/networks",
		wantStatus: 200, golden: "networks.json"},
	{name: "topology", method: "GET", path: "/api/v1/networks/running-example/topology",
		wantStatus: 200, golden: "topology.json"},
	{name: "topology-missing", method: "GET", path: "/api/v1/networks/ghost/topology",
		wantStatus: 404, golden: "topology_missing.json"},
	{name: "verify", method: "POST", path: "/api/v1/verify",
		body:       `{"network":"running-example","query":"<ip> [.#v0] .* [v3#.] <ip> 0"}`,
		wantStatus: 200, golden: "verify.json"},
	{name: "verify-error", method: "POST", path: "/api/v1/verify",
		body:       `{"network":"running-example","query":"<bogus> .* <ip> 0"}`,
		wantStatus: 422, golden: "verify_error.json"},
	{name: "verify-batch", method: "POST", path: "/api/v1/verify-batch",
		body:       `{"network":"running-example","queries":["<ip> [.#v0] .* [v3#.] <ip> 0","<ip> [.#v0] .* [v2#v4] .* [v3#.] <ip> 1"]}`,
		wantStatus: 200, golden: "verify_batch.json"},
	{name: "sweep", method: "POST", path: "/api/v1/networks/running-example/sweep",
		body:       `{"depth":1,"invariants":["<ip> [.#v0] .* [v3#.] <ip> 0","<ip> [.#v0] [v0#v2] .* [v3#.] <ip> 0"],"workers":1,"includeCells":true}`,
		wantStatus: 200, golden: "sweep.json"},
	{name: "sweep-bad-depth", method: "POST", path: "/api/v1/networks/running-example/sweep",
		body:       `{"depth":3,"invariants":["<ip> [.#v0] .* [v3#.] <ip> 0"]}`,
		wantStatus: 400, golden: "sweep_error.json"},
	{name: "sweep-bad-invariant", method: "POST", path: "/api/v1/networks/running-example/sweep",
		body:       `{"depth":1,"invariants":["<bogus"]}`,
		wantStatus: 422, golden: "sweep_bad_invariant.json"},
	{name: "session-create", method: "POST", path: "/api/v1/sessions",
		body:       `{"network":"running-example"}`,
		wantStatus: 201, golden: "session_create.json"},
	{name: "session-list", method: "GET", path: "/api/v1/sessions",
		wantStatus: 200, golden: "session_list.json"},
	{name: "session-deltas", method: "POST", path: "/api/v1/sessions/{sid}/deltas",
		body:       `{"commands":["fail v2.oe4#v3.ie4"]}`,
		wantStatus: 200, golden: "session_deltas.json"},
	{name: "session-deltas-invalid", method: "POST", path: "/api/v1/sessions/{sid}/deltas",
		body:       `{"commands":["fail no-such-link"]}`,
		wantStatus: 422, golden: "session_deltas_invalid.json"},
	{name: "session-verify", method: "POST", path: "/api/v1/sessions/{sid}/verify",
		body:       `{"query":"<ip> [.#v0] .* [v3#.] <ip> 0"}`,
		wantStatus: 200, golden: "session_verify.json"},
	{name: "session-verify-batch", method: "POST", path: "/api/v1/sessions/{sid}/verify-batch",
		body:       `{"queries":["<ip> [.#v0] .* [v3#.] <ip> 0","<ip> [.#v0] .* [v3#.] <ip> 1"]}`,
		wantStatus: 200, golden: "session_verify_batch.json"},
	{name: "session-undo", method: "DELETE", path: "/api/v1/sessions/{sid}/deltas/1",
		wantStatus: 200, golden: "session_undo.json"},
	{name: "session-undo-missing", method: "DELETE", path: "/api/v1/sessions/{sid}/deltas/99",
		wantStatus: 404, golden: "session_undo_missing.json"},
	{name: "session-get", method: "GET", path: "/api/v1/sessions/{sid}",
		wantStatus: 200, golden: "session_get.json"},
	// The watch block runs on an empty delta stack (session-undo rolled the
	// fail back), so the initial verdicts are the base network's. A fresh
	// session always hands out watch id w1.
	{name: "watch-create", method: "POST", path: "/api/v1/sessions/{sid}/watch",
		body:       `{"invariants":["<ip> [.#v0] .* [v3#.] <ip> 0","<ip> [.#v0] .* [v3#.] <ip> 1"]}`,
		wantStatus: 201, golden: "watch_create.json"},
	{name: "watch-create-bad-query", method: "POST", path: "/api/v1/sessions/{sid}/watch",
		body:       `{"invariants":["<bogus"]}`,
		wantStatus: 422, golden: "watch_create_bad_query.json"},
	{name: "watch-list", method: "GET", path: "/api/v1/sessions/{sid}/watch",
		wantStatus: 200, golden: "watch_list.json"},
	{name: "watch-events", method: "GET",
		path:       "/api/v1/sessions/{sid}/watch/w1/events?format=ndjson&limit=2",
		wantStatus: 200,
		wantHeaders: map[string]string{
			"Content-Type": "application/x-ndjson"},
		golden: "watch_events.json", ndjson: true},
	{name: "watch-events-missing", method: "GET",
		path:       "/api/v1/sessions/{sid}/watch/w99/events",
		wantStatus: 404, golden: "watch_not_found.json"},
	{name: "watch-close", method: "DELETE", path: "/api/v1/sessions/{sid}/watch/w1",
		wantStatus: 204},
	{name: "watch-close-missing", method: "DELETE", path: "/api/v1/sessions/{sid}/watch/w1",
		wantStatus: 404, golden: "watch_close_missing.json"},
	{name: "session-close", method: "DELETE", path: "/api/v1/sessions/{sid}",
		wantStatus: 204},
	{name: "session-gone", method: "GET", path: "/api/v1/sessions/{sid}",
		wantStatus: 404, golden: "session_gone.json"},
}

func main() {
	base := flag.String("base", "http://localhost:8080", "base URL of a running aalwinesd")
	goldenDir := flag.String("golden", "internal/httpapi/testdata/golden", "directory of golden response documents")
	update := flag.Bool("update", false, "rewrite the golden files from the live responses")
	wait := flag.Duration("wait", 10*time.Second, "how long to wait for the server's /healthz")
	flag.Parse()

	if err := waitHealthy(*base, *wait); err != nil {
		fmt.Fprintln(os.Stderr, "apicontract:", err)
		os.Exit(1)
	}
	failures := 0
	sid := ""
	for _, st := range steps {
		if err := runStep(*base, *goldenDir, st, *update, &sid); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %-26s %v\n", st.name, err)
			failures++
			continue
		}
		fmt.Printf("ok   %-26s %s %s\n", st.name, st.method, st.path)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "apicontract: %d of %d steps failed\n", failures, len(steps))
		os.Exit(1)
	}
	fmt.Printf("apicontract: %d steps passed\n", len(steps))
}

func waitHealthy(base string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %v: %v", base, wait, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func runStep(base, goldenDir string, st step, update bool, sid *string) error {
	var rd io.Reader
	if st.body != "" {
		rd = strings.NewReader(st.body)
	}
	path := strings.ReplaceAll(st.path, "{sid}", *sid)
	req, err := http.NewRequest(st.method, base+path, rd)
	if err != nil {
		return err
	}
	if st.body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != st.wantStatus {
		return fmt.Errorf("status %d, want %d (body: %.200s)", resp.StatusCode, st.wantStatus, raw)
	}
	for k, v := range st.wantHeaders {
		if got := resp.Header.Get(k); got != v {
			return fmt.Errorf("header %s = %q, want %q", k, got, v)
		}
	}
	if st.name == "session-create" {
		var sj struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &sj); err != nil || sj.ID == "" {
			return fmt.Errorf("create response has no session id: %.200s", raw)
		}
		*sid = sj.ID
	}
	if st.golden == "" {
		return nil
	}
	if st.ndjson {
		// Re-frame the line-delimited transcript as one JSON array so the
		// canonical renderer and the golden diff work unchanged.
		var arr []json.RawMessage
		for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
			arr = append(arr, json.RawMessage(line))
		}
		if raw, err = json.Marshal(arr); err != nil {
			return fmt.Errorf("ndjson transcript: %v", err)
		}
	}
	got, err := normalize(raw, *sid)
	if err != nil {
		return fmt.Errorf("response is not JSON: %v", err)
	}
	goldenPath := filepath.Join(goldenDir, st.golden)
	if update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(goldenPath, append(got, '\n'), 0o644)
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, bytes.TrimRight(want, "\n")) {
		return fmt.Errorf("response differs from %s\n--- want\n%s\n--- got\n%s", goldenPath, want, got)
	}
	return nil
}

// normalize parses arbitrary JSON, removes volatile keys at every depth and
// re-marshals with sorted keys and stable indentation, so goldens compare
// byte-for-byte.
func normalize(raw []byte, sid string) ([]byte, error) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	var re *regexp.Regexp
	if sid != "" && sid != "s1" {
		// Canonicalise the live session id to s1, the id a fresh server
		// hands out, so goldens stay server-state independent. The word
		// boundary keeps label names like "s10" intact.
		re = regexp.MustCompile(`\b` + regexp.QuoteMeta(sid) + `\b`)
	}
	return marshalCanonical(strip(v, re), "")
}

func strip(v any, sid *regexp.Regexp) any {
	switch x := v.(type) {
	case map[string]any:
		for k := range x {
			if volatileKeys[k] {
				delete(x, k)
				continue
			}
			x[k] = strip(x[k], sid)
		}
		return x
	case []any:
		for i := range x {
			x[i] = strip(x[i], sid)
		}
		return x
	case string:
		if sid != nil {
			return sid.ReplaceAllString(x, "s1")
		}
		return x
	default:
		return v
	}
}

// marshalCanonical renders JSON with sorted object keys; encoding/json
// already sorts map keys, but doing it by hand keeps the indentation rules
// explicit and stable.
func marshalCanonical(v any, indent string) ([]byte, error) {
	var buf bytes.Buffer
	if err := writeCanonical(&buf, v, indent); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeCanonical(buf *bytes.Buffer, v any, indent string) error {
	next := indent + "  "
	switch x := v.(type) {
	case map[string]any:
		if len(x) == 0 {
			buf.WriteString("{}")
			return nil
		}
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteString("{\n")
		for i, k := range keys {
			buf.WriteString(next)
			kb, _ := json.Marshal(k)
			buf.Write(kb)
			buf.WriteString(": ")
			if err := writeCanonical(buf, x[k], next); err != nil {
				return err
			}
			if i < len(keys)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString(indent + "}")
	case []any:
		if len(x) == 0 {
			buf.WriteString("[]")
			return nil
		}
		buf.WriteString("[\n")
		for i, e := range x {
			buf.WriteString(next)
			if err := writeCanonical(buf, e, next); err != nil {
				return err
			}
			if i < len(x)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString(indent + "]")
	default:
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		buf.Write(b)
	}
	return nil
}
