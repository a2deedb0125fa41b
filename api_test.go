package aalwines_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"aalwines"
)

// TestPublicAPIQuickstart is the README's quickstart as a contract test.
func TestPublicAPIQuickstart(t *testing.T) {
	net := aalwines.RunningExample()
	res, err := aalwines.VerifyText(context.Background(), net, "<ip> [.#v0] .* [v3#.] <ip> 0", aalwines.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != aalwines.Satisfied {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if len(res.Trace) != 4 {
		t.Fatalf("trace = %s", res.Trace.Format(net))
	}
}

// TestPublicAPIVerifyBatch covers the batch entry point: deterministic
// ordering, serial-identical verdicts and a reusable runner.
func TestPublicAPIVerifyBatch(t *testing.T) {
	net := aalwines.RunningExample()
	queries := []string{
		"<ip> [.#v0] .* [v3#.] <ip> 0",
		"<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
		"<ip> [.#v0] .* [v2#v4] .* [v3#.] <ip> 0",
		"<ip> [.#v0] .* [v2#v4] .* [v3#.] <ip> 1",
	}
	serial := make([]aalwines.Verdict, len(queries))
	for i, q := range queries {
		res, err := aalwines.VerifyText(context.Background(), net, q, aalwines.Options{})
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res.Verdict
	}
	for _, workers := range []int{1, 4} {
		results := aalwines.VerifyBatch(context.Background(), net, queries,
			aalwines.BatchOptions{Workers: workers})
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d %q: %v", workers, r.Query, r.Err)
			}
			if r.Index != i || r.Query != queries[i] {
				t.Fatalf("workers=%d: result %d out of order", workers, i)
			}
			if r.Res.Verdict != serial[i] {
				t.Errorf("workers=%d %q: verdict %v, serial %v", workers, r.Query, r.Res.Verdict, serial[i])
			}
		}
	}
	runner := aalwines.NewBatchRunner(net)
	for sweep := 0; sweep < 2; sweep++ {
		for i, r := range runner.Verify(context.Background(), queries, aalwines.BatchOptions{Workers: 2}) {
			if r.Err != nil || r.Res.Verdict != serial[i] {
				t.Fatalf("runner sweep %d query %d: err=%v verdict=%v", sweep, i, r.Err, r.Res.Verdict)
			}
		}
	}
}

func TestPublicAPIWeighted(t *testing.T) {
	net := aalwines.RunningExample()
	spec, err := aalwines.ParseWeight("Hops, Failures + 3*Tunnels")
	if err != nil {
		t.Fatal(err)
	}
	q, err := aalwines.ParseQuery("<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1", net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := aalwines.Verify(context.Background(), net, q, aalwines.Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != aalwines.Satisfied || res.Weight[0] != 5 || res.Weight[1] != 0 {
		t.Fatalf("res = %v %v", res.Verdict, res.Weight)
	}
}

func TestPublicAPIXMLRoundTrip(t *testing.T) {
	net := aalwines.NewWAN(16, 3)
	var topo, route bytes.Buffer
	if err := aalwines.WriteXML(&topo, &route, net); err != nil {
		t.Fatal(err)
	}
	again, err := aalwines.ReadXML(&topo, &route)
	if err != nil {
		t.Fatal(err)
	}
	if again.Routing.NumRules() != net.Routing.NumRules() {
		t.Fatal("round trip lost rules")
	}
}

func TestPublicAPIGMLAndSynthesis(t *testing.T) {
	doc := `graph [
	  node [ id 0 label "A" ]
	  node [ id 1 label "B" ]
	  node [ id 2 label "C" ]
	  edge [ source 0 target 1 ]
	  edge [ source 1 target 2 ]
	  edge [ source 0 target 2 ]
	]`
	net, err := aalwines.ReadGML(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	aalwines.SynthesizeDataplane(net, 3, 1)
	if net.Routing.NumRules() == 0 {
		t.Fatal("no dataplane synthesised")
	}
	res, err := aalwines.VerifyText(context.Background(), net, "<ip> [.#A] .* [.#B] <ip> 1", aalwines.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != aalwines.Satisfied {
		t.Fatalf("verdict = %v", res.Verdict)
	}
}

func TestPublicAPIOperatorNetworkAndDOT(t *testing.T) {
	net := aalwines.NewOperatorNetwork(1, 1)
	if net.Topo.NumRouters() < 31 {
		t.Fatalf("routers = %d", net.Topo.NumRouters())
	}
	res, err := aalwines.VerifyText(context.Background(), net, "<smpls? ip> .* <. smpls ip> 0", aalwines.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var dot bytes.Buffer
	if err := aalwines.WriteDOT(&dot, net, res); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(dot.String(), "digraph") {
		t.Fatal("not DOT output")
	}
	// Locations and geo distance work on the operator network.
	df := aalwines.GeoDistance(net)
	if df(0) == 0 {
		t.Fatal("zero distance")
	}
}

// TestPublicAPICancellation pins the context contract: an already-cancelled
// context aborts the run with its error.
func TestPublicAPICancellation(t *testing.T) {
	net := aalwines.RunningExample()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := aalwines.VerifyText(ctx, net, "<ip> [.#v0] .* [v3#.] <ip> 0", aalwines.Options{})
	if err == nil {
		t.Fatal("cancelled context did not abort verification")
	}
}

// failWriter errors after n bytes, to drive WriteXML's error paths.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errSink
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

var errSink = errors.New("sink full")

// TestPublicAPIWriteXMLErrors checks a failed write names the document that
// broke, so callers writing two files know which one is incomplete.
func TestPublicAPIWriteXMLErrors(t *testing.T) {
	net := aalwines.RunningExample()
	var ok bytes.Buffer
	err := aalwines.WriteXML(&failWriter{}, &ok, net)
	if err == nil || !strings.Contains(err.Error(), "topology document") || !errors.Is(err, errSink) {
		t.Fatalf("topology failure: %v", err)
	}
	ok.Reset()
	err = aalwines.WriteXML(&ok, &failWriter{}, net)
	if err == nil || !strings.Contains(err.Error(), "routing document") || !errors.Is(err, errSink) {
		t.Fatalf("routing failure: %v", err)
	}
}

// TestPublicAPIScenarioSession drives the what-if facade: fail a link,
// observe the verdict change, undo, observe it restored — all without
// mutating the base network.
func TestPublicAPIScenarioSession(t *testing.T) {
	net := aalwines.RunningExample()
	s := aalwines.NewScenarioSession(net)
	defer s.Close()

	const q = "<ip> [.#v0] .* [v3#.] <ip> 0"
	base, err := s.Verify(context.Background(), q, aalwines.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Verdict != aalwines.Satisfied {
		t.Fatalf("base verdict = %v", base.Verdict)
	}

	d, err := aalwines.ParseScenarioDelta("fail v2.oe4#v3.ie4")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := s.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	failed, err := s.Verify(context.Background(), q, aalwines.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if failed.Verdict == aalwines.Satisfied && len(failed.Trace) == len(base.Trace) {
		t.Log("failure did not change the witness; still exercises the overlay")
	}
	if err := s.Undo(seq); err != nil {
		t.Fatal(err)
	}
	redo, err := s.Verify(context.Background(), q, aalwines.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if redo.Verdict != base.Verdict {
		t.Fatalf("undo did not restore verdict: %v vs %v", redo.Verdict, base.Verdict)
	}
	if net.Routing.NumRules() != s.Overlay().Routing.NumRules() {
		t.Fatal("after full undo the overlay should be the base network")
	}

	// Scenario files parse into applicable stacks.
	ds, err := aalwines.ParseScenario("# take out v4\ndrain v4\n\nfail v2.oe4#v3.ie4\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if _, err := s.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.Deltas()) != 2 {
		t.Fatalf("deltas = %d, want 2", len(s.Deltas()))
	}

	// A directly constructed delta with an unset (zero) or oversized
	// priority must fail validation, not panic inside materialisation.
	zero, err := aalwines.ParseScenarioDelta("add-entry v0.oe1#v2.ie1 s40 1 v2.oe4#v3.ie4")
	if err != nil {
		t.Fatal(err)
	}
	zero.Priority = 0
	if _, err := s.Apply(zero); err == nil {
		t.Fatal("Apply with zero priority succeeded, want validation error")
	}
	zero.Priority = aalwines.ScenarioMaxPriority + 1
	if _, err := s.Apply(zero); err == nil {
		t.Fatal("Apply above ScenarioMaxPriority succeeded, want validation error")
	}

	// Atomic batches surface a typed error naming the failing position.
	_, err = s.ApplyAllText([]string{"fail v2.oe4#v3.ie4", "drain nowhere"})
	var ae *aalwines.ScenarioApplyError
	if !errors.As(err, &ae) || ae.Index != 1 {
		t.Fatalf("ApplyAllText error = %v, want *ScenarioApplyError at index 1", err)
	}
	if len(s.Deltas()) != 2 {
		t.Fatalf("failed batch mutated the session: %d deltas", len(s.Deltas()))
	}
}
