package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aalwines/internal/cli"
	"aalwines/internal/engine"
	"aalwines/internal/gen"
	"aalwines/internal/httpapi"
	"aalwines/internal/live"
	"aalwines/internal/sweep"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the rule must sort
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n, permille int
		ok          bool
		v           float64
	}{
		{n: 0, permille: p90},
		{n: 16, permille: p90},
		{n: 99, permille: p90},                   // 9 beyond p90: below the floor
		{n: 100, permille: p90, ok: true, v: 90}, // exactly 10 beyond
		{n: 999, permille: p99},
		{n: 1000, permille: p99, ok: true, v: 990},
		{n: 6806, permille: p99, ok: true, v: 6738},
		{n: 6806, permille: 999},
	} {
		v, ok := tail(seq(tc.n), tc.permille)
		if ok != tc.ok || v != tc.v {
			t.Errorf("tail(%d samples, %d‰) = (%v, %v), want (%v, %v)", tc.n, tc.permille, v, ok, tc.v, tc.ok)
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < tailFloor {
			t.Errorf("%d samples: %d beyond the tail, want at least %d", tc.n, beyond, tailFloor)
		}
	}
	// Below the floor there is no tail; the fallback is the maximum.
	if v, label := tailOrMax(seq(16), p90); v != 16 || label != "max" {
		t.Errorf("tailOrMax below the floor = (%v, %s), want the max 16", v, label)
	}
	if v, label := tailOrMax(seq(100), p90); v != 90 || label != "p90" {
		t.Errorf("tailOrMax = (%v, %s), want p90 = 90", v, label)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},  // grandchild
		{ID: 5, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past root
		{ID: 6, Name: "root", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		// root: 100 − union{[10,60], [90,100]} = 40, plus the childless 10.
		"root": 50,
		"a":    25,
		"b":    60, // self time is per span: nothing nests inside either b
		"c":    5,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
	if tot := totals(spans); tot["b"] != 60 || tot["root"] != 110 {
		t.Errorf("totals = %v", tot)
	}
}

func TestTracerChildLayout(t *testing.T) {
	tr := newTracer()
	tr.nextOp()
	p := tr.begin("batch", 0)
	time.Sleep(2 * time.Millisecond)
	tr.end(p)
	tr.child("x", p, 300*time.Microsecond)
	tr.child("y", p, 500*time.Microsecond)
	x, y := tr.spans[1], tr.spans[2]
	if x.Start != tr.spans[0].Start || y.Start != x.End || y.dur() != 500*time.Microsecond || y.Op != 1 {
		t.Fatalf("children laid out as %+v, %+v", x, y)
	}
	if self := selfTimes(tr.spans); self["batch"] != tr.spans[0].dur()-800*time.Microsecond {
		t.Errorf("self[batch] = %v", self["batch"])
	}
}

const reQuery = "<ip> [.#v0] .* [v3#.] <ip> 0"

func TestPaperCheckerRejectsFlippedVerdict(t *testing.T) {
	re := gen.RunningExample()
	res, err := engine.VerifyText(re.Network, reQuery, engine.Options{})
	if err != nil || res.Verdict != engine.Satisfied {
		t.Fatalf("running example: %v %v", res.Verdict, err)
	}
	ok := &paperChecker{net: re.Network, expected: map[string]string{reQuery: "satisfied"}, seen: map[string][]byte{}}
	if err := ok.check(reQuery, res, nil); err != nil {
		t.Fatalf("correct verdict rejected: %v", err)
	}
	flipped := &paperChecker{net: re.Network, expected: map[string]string{reQuery: "unsatisfied"}, seen: map[string][]byte{}}
	if err := flipped.check(reQuery, res, nil); err == nil {
		t.Error("flipped verdict accepted")
	}
	// A repeat that renders differently (here: the witness went missing)
	// fails too, as does a run that errored.
	bad := res
	bad.Trace = nil
	if err := ok.check(reQuery, bad, nil); err == nil {
		t.Error("a repeat with a different rendering accepted")
	}
	if err := ok.check(reQuery, res, engine.ErrBudget); err == nil {
		t.Error("budget exhaustion accepted")
	}
}

func TestSweepCheckerRejectsFlippedVerdict(t *testing.T) {
	want := sweepExpect{verdicts: map[string]int{"satisfied": 3, "unsatisfied": 1}, breaking: 1, minimal: "[[a]]"}
	good := sweep.InvariantReport{Verdicts: map[string]int{"satisfied": 3, "unsatisfied": 1}, Breaking: 1, MinimalBreaking: [][]string{{"a"}}}
	if err := checkInvariant(good, want); err != nil {
		t.Fatalf("matching aggregates rejected: %v", err)
	}
	flipped := good
	flipped.Verdicts = map[string]int{"satisfied": 4}
	if err := checkInvariant(flipped, want); err == nil {
		t.Error("flipped verdict counts accepted")
	}

	// A repeated grid with one flipped cell fails exactly that cell.
	re := gen.RunningExample()
	cfg := sweepConfig([]string{reQuery})
	cfg.Depth = 1
	first, err := sweep.Run(context.Background(), re.Network, cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sweep.Run(context.Background(), re.Network, cfg)
	if err != nil {
		t.Fatal(err)
	}
	again.Cells[2].Res.Verdict = engine.Unsatisfied
	again.Cells[2].Res.Trace = nil
	c := &sweepChecker{net: re.Network, invariants: []string{reQuery}, seed: 7}
	r := &run{}
	c.check(r, first)
	c.check(r, again)
	if r.failed != 1 {
		t.Errorf("flipped cell: %d failed, want 1 (%v)", r.failed, r.info)
	}
}

func TestDaemonCheckers(t *testing.T) {
	cell := live.Cell{Query: reQuery, Verdict: "satisfied"}
	resp := httpapi.VerifyBatchResponse{}
	resp.Results = make([]cli.BatchItemJSON, 1)
	resp.Results[0].Query, resp.Results[0].Verdict = reQuery, "satisfied"
	if err := checkRead(resp, []live.Cell{cell}); err != nil {
		t.Fatalf("matching read rejected: %v", err)
	}
	resp.Results[0].Verdict = "unsatisfied"
	if err := checkRead(resp, []live.Cell{cell}); err == nil {
		t.Error("flipped verdict accepted")
	}
	resp.Results[0].Verdict, resp.Results[0].Error, resp.Results[0].Code = "", "budget", "budget-exhausted"
	if err := checkRead(resp, []live.Cell{cell}); err == nil {
		t.Error("budget-exhausted item accepted")
	}

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"code":"internal-error"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()
	d := &daemon{srv: srv, client: srv.Client()}
	if err := d.call("POST", srv.URL+"/api/v1/sessions", httpapi.SessionCreateRequest{}, nil); err == nil || !strings.Contains(err.Error(), "HTTP 500") {
		t.Errorf("non-2xx response: err = %v", err)
	}

	for _, tc := range []struct {
		name           string
		verdict, gaps  int
		closed, failed bool
	}{
		{"complete", 4, 0, true, false},
		{"dropped event", 3, 0, true, true},
		{"extra event", 5, 0, true, true},
		{"gap", 4, 1, true, true},
		{"no close", 4, 0, false, true},
	} {
		d := &daemon{verdict: tc.verdict, gaps: tc.gaps, closed: tc.closed}
		r := &run{}
		checkStream(r, d, 4)
		if (r.failed > 0) != tc.failed {
			t.Errorf("%s: failed=%d, want failure %v", tc.name, r.failed, tc.failed)
		}
	}
}
