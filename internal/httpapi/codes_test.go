package httpapi

import (
	"context"
	"encoding/json"
	"go/parser"
	"go/token"
	"maps"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"aalwines/internal/gen"
	"aalwines/internal/sweep"
)

// TestErrorCodeTable drives one failing request per error code through the
// server's handler and checks that each is answered with its code and the
// status statusOf gives that code; the four pre-versioning paths are
// probed as plain unknown routes. It also holds the table in the package
// documentation to statusOf.
func TestErrorCodeTable(t *testing.T) {
	s := NewServer()
	s.Register(gen.RunningExample().Network)
	s.MaxBudget = 1   // every saturation runs out
	s.MaxSessions = 1 // the session below fills the server
	h := s.Handler()
	serve := func(ctx context.Context, method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)).WithContext(ctx))
		return rec
	}
	bg := context.Background()
	const q = "<ip> [.#v0] .* [v3#.] <ip> 0"
	if rec := serve(bg, "POST", "/api/v1/sessions", `{"network":"running-example"}`); rec.Code != http.StatusCreated {
		t.Fatalf("session create: status = %d", rec.Code)
	}
	if rec := serve(bg, "POST", "/api/v1/sessions/s1/watch", `{"invariants":["`+q+`"]}`); rec.Code != http.StatusCreated {
		t.Fatalf("watch create: status = %d", rec.Code)
	}
	if !s.sessions["s1"].hub.Watch("w1").TryAttach() {
		t.Fatal("watch w1 already has a stream attached")
	}
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	expired, cancelExpired := context.WithDeadline(bg, time.Now().Add(-time.Second))
	defer cancelExpired()

	verify := `{"network":"running-example","query":"` + q + `"}`
	// The running example's 36 depth-2 scenarios times one invariant more
	// than the cap admits.
	invs := make([]string, sweep.MaxCells/36+1)
	for i := range invs {
		invs[i] = q
	}
	bigSweep, _ := json.Marshal(map[string]any{"depth": 2, "invariants": invs})

	probes := []struct {
		code         string
		ctx          context.Context
		method, path string
		body         string
	}{
		{"bad-request", bg, "POST", "/api/v1/verify-batch", `{"network":"running-example"}`},
		{"not-found", bg, "GET", "/api/v1/networks/ghost/topology", ""},
		{"not-found", bg, "GET", "/api/networks", ""},
		{"not-found", bg, "GET", "/api/networks/running-example/topology", ""},
		{"not-found", bg, "POST", "/api/verify", verify},
		{"not-found", bg, "POST", "/api/verify-batch", verify},
		{"session-not-found", bg, "POST", "/api/v1/sessions/s9/verify", `{"query":`},
		{"watch-not-found", bg, "GET", "/api/v1/sessions/s1/watch/w9/events", ""},
		{"method-not-allowed", bg, "DELETE", "/api/v1/verify", ""},
		{"cancelled", cancelled, "POST", "/api/v1/verify", verify},
		{"deadline-exceeded", expired, "POST", "/api/v1/verify", verify},
		{"watch-busy", bg, "GET", "/api/v1/sessions/s1/watch/w1/events", ""},
		{"request-too-large", bg, "POST", "/api/v1/verify", `{"query":"` + strings.Repeat("x", maxBodyBytes) + `"}`},
		{"delta-error", bg, "POST", "/api/v1/sessions/s1/deltas", `{"commands":["fail no-such-link"]}`},
		{"query-error", bg, "POST", "/api/v1/verify", `{"network":"running-example","query":"not a query"}`},
		{"sweep-too-large", bg, "POST", "/api/v1/networks/running-example/sweep", string(bigSweep)},
		{"too-many-sessions", bg, "POST", "/api/v1/sessions", `{"network":"running-example"}`},
		{"budget-exhausted", bg, "POST", "/api/v1/sessions/s1/verify", verify},
	}
	probed := map[string]bool{}
	check := func(what, code string, rec *httptest.ResponseRecorder) {
		t.Helper()
		probed[code] = true
		var env ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Errorf("%s: body is not an envelope: %v", what, err)
			return
		}
		if env.Code != code || rec.Code != statusOf[code] {
			t.Errorf("%s: %d %q, want %d %q", what, rec.Code, env.Code, statusOf[code], code)
		}
	}
	for _, p := range probes {
		check(p.method+" "+p.path, p.code, serve(p.ctx, p.method, p.path, p.body))
	}
	// Only a handler panic produces internal-error.
	rec := httptest.NewRecorder()
	withMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})).ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/x", nil))
	check("panic", "internal-error", rec)
	for code := range statusOf {
		if !probed[code] {
			t.Errorf("no request probes %q", code)
		}
	}

	f, err := parser.ParseFile(token.NewFileSet(), "httpapi.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]int{}
	for _, m := range regexp.MustCompile(`(?m)^\t(\d{3}) ([a-z-]+) `).FindAllStringSubmatch(f.Doc.Text(), -1) {
		documented[m[2]], _ = strconv.Atoi(m[1])
	}
	if !maps.Equal(documented, statusOf) {
		t.Errorf("package documentation lists %v, statusOf holds %v", documented, statusOf)
	}
}
