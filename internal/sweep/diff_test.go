package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"aalwines/internal/cli"
	"aalwines/internal/engine"
	"aalwines/internal/gen"
	"aalwines/internal/network"
	"aalwines/internal/scenario"
)

// checkSweepDifferential is the soundness harness: it runs the sweep and
// re-verifies every completed cell through an independent from-scratch
// scenario session of the same failure set, requiring byte-identical
// results — first structurally (verdict, witness trace, failed set,
// weight), then on the rendered JSON with wall-clock timings zeroed, so
// the whole user-visible verdict contract is covered.
func checkSweepDifferential(t *testing.T, net *network.Network, cfg Config) {
	t.Helper()
	ctx := context.Background()
	res, err := Run(ctx, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Incomplete {
		t.Fatal("sweep incomplete")
	}
	for _, cell := range res.Cells {
		qt := cfg.Invariants[cell.Invariant]
		sc := res.Scenarios[cell.Scenario]
		ref := scenario.NewSession(net)
		if _, err := ref.ApplyAll(sc.Deltas(net.Topo)); err != nil {
			t.Fatalf("reference apply of %v: %v", sc.Links, err)
		}
		want, werr := ref.Verify(ctx, qt, cfg.Engine)
		ref.Close()

		label := "scenario " + sc.String() + " " + qt
		if (cell.Err == nil) != (werr == nil) {
			t.Fatalf("%s: err %v vs reference %v", label, cell.Err, werr)
		}
		if cell.Err != nil {
			continue
		}
		got := cell.Res
		if got.Verdict != want.Verdict {
			t.Fatalf("%s: verdict %v, want %v", label, got.Verdict, want.Verdict)
		}
		if !reflect.DeepEqual(got.Trace, want.Trace) {
			t.Fatalf("%s: traces differ:\n  got  %v\n  want %v", label, got.Trace, want.Trace)
		}
		if !reflect.DeepEqual(got.Failed, want.Failed) {
			t.Fatalf("%s: failed sets differ: got %v want %v", label, got.Failed, want.Failed)
		}
		if !reflect.DeepEqual(got.Weight, want.Weight) {
			t.Fatalf("%s: weights differ: got %v want %v", label, got.Weight, want.Weight)
		}
		// Byte identity of the rendered result (trace steps, headers,
		// failed-link names) — the form every surface ships.
		gj, wj := cli.ToJSON(net, qt, got), cli.ToJSON(net, qt, want)
		gj.TimingMS, wj.TimingMS = cli.Timings{}, cli.Timings{}
		gb, err := json.Marshal(gj)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := json.Marshal(wj)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%s: rendered JSON differs:\n  got  %s\n  want %s", label, gb, wb)
		}
	}
}

// String renders a scenario for test failure messages.
func (sc Scenario) String() string {
	b := make([]byte, 0, 16)
	for i, l := range sc.Links {
		if i > 0 {
			b = append(b, '+')
		}
		b = appendInt(b, int(l))
	}
	return string(b)
}

func appendInt(b []byte, n int) []byte {
	if n >= 10 {
		b = appendInt(b, n/10)
	}
	return append(b, byte('0'+n%10))
}

func TestSweepDifferentialRunningExample(t *testing.T) {
	re := gen.RunningExample()
	checkSweepDifferential(t, re.Network, Config{
		Depth: 2,
		Invariants: []string{
			"<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
			"<ip> [.#v0] [v0#v2] .* [v3#.] <ip> 0",
		},
		Workers: 4,
	})
}

// TestSweepDifferentialZoo holds the same bar on generated zoo-scale
// networks: a full single-failure sweep on zoo-10, and a full
// double-failure sweep on zoo-4 (14 links, 105 scenarios), small enough to
// keep the fresh-session reference affordable.
func TestSweepDifferentialZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo differential sweep is slow")
	}
	syn := gen.Zoo(gen.ZooOpts{Routers: 10, Seed: 7, Protection: true})
	var queries []string
	for _, gq := range syn.Queries(2, 5) {
		queries = append(queries, gq.Text)
	}
	checkSweepDifferential(t, syn.Net, Config{
		Depth:      1,
		Invariants: queries,
		Workers:    4,
	})

	syn = gen.Zoo(gen.ZooOpts{Routers: 4, Seed: 3, Protection: true})
	queries = queries[:0]
	for _, gq := range syn.Queries(2, 9) {
		queries = append(queries, gq.Text)
	}
	checkSweepDifferential(t, syn.Net, Config{
		Depth:      2,
		Invariants: queries,
		Workers:    4,
	})
}

// TestSweepDifferentialWithBudget keeps the harness honest on the error
// path: under a tight budget the sweep's per-cell errors must match the
// reference session's, cell for cell.
func TestSweepDifferentialWithBudget(t *testing.T) {
	re := gen.RunningExample()
	checkSweepDifferential(t, re.Network, Config{
		Depth:      1,
		Invariants: []string{"<ip> [.#v0] .* [v3#.] <ip> 0"},
		Workers:    2,
		Engine:     engine.Options{Budget: 1},
	})
}
