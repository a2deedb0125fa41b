package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"aalwines/internal/engine"
	"aalwines/internal/gen"
	"aalwines/internal/network"
	"aalwines/internal/topology"
)

// tinyGraph is a 3-router line with a parallel link: 4 directed links, so
// the enumeration counts are easy to eyeball (4 singles, 6 pairs).
func tinyGraph() *topology.Graph {
	g := topology.New()
	a := g.AddRouter("a")
	b := g.AddRouter("b")
	c := g.AddRouter("c")
	g.MustAddLink(a, b, "o0", "i0", 1)
	g.MustAddLink(a, b, "o1", "i1", 1) // parallel
	g.MustAddLink(b, c, "o2", "i2", 1)
	g.MustAddLink(c, a, "o3", "i3", 1)
	return g
}

func TestEnumerate(t *testing.T) {
	g := tinyGraph()

	scs, err := Enumerate(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 4 {
		t.Fatalf("depth 1: %d scenarios, want 4", len(scs))
	}
	for i, sc := range scs {
		if sc.ID != i || len(sc.Links) != 1 || sc.Links[0] != topology.LinkID(i) {
			t.Fatalf("depth 1 scenario %d = %+v", i, sc)
		}
	}

	scs, err = Enumerate(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 4+6 {
		t.Fatalf("depth 2: %d scenarios, want 10", len(scs))
	}
	wantPairs := [][2]topology.LinkID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	for i, p := range wantPairs {
		sc := scs[4+i]
		if sc.ID != 4+i || len(sc.Links) != 2 || sc.Links[0] != p[0] || sc.Links[1] != p[1] {
			t.Fatalf("pair %d = %+v, want %v", i, sc, p)
		}
	}
	seen := map[string]bool{}
	for _, sc := range scs {
		k := fmt.Sprint(sc.Links)
		if seen[k] {
			t.Fatalf("duplicate scenario %v", sc.Links)
		}
		seen[k] = true
	}

	// Determinism: a second enumeration is structurally identical.
	again, err := Enumerate(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scs, again) {
		t.Fatal("enumeration is not deterministic")
	}

	for _, depth := range []int{0, 3, -1} {
		if _, err := Enumerate(g, depth); err == nil {
			t.Errorf("Enumerate depth %d succeeded, want error", depth)
		}
	}
}

// TestErrCode: failed cells and the breaking analysis speak the engine's
// error vocabulary.
func TestErrCode(t *testing.T) {
	g := tinyGraph()
	for _, tc := range []struct {
		err  error
		want string
	}{
		{fmt.Errorf("wrap: %w", engine.ErrBudget), "budget-exhausted"},
		{context.DeadlineExceeded, "deadline-exceeded"},
		{context.Canceled, "cancelled"},
		{errors.New("boom"), "query-error"},
	} {
		if got := (CellResult{Links: []topology.LinkID{0}, Err: tc.err}).JSON(g).Code; got != tc.want {
			t.Errorf("cell code of %v = %q, want %q", tc.err, got, tc.want)
		}
		if got := outcome(engine.Result{}, tc.err); got != "error:"+tc.want {
			t.Errorf("outcome(%v) = %q, want %q", tc.err, got, "error:"+tc.want)
		}
	}
}

var runningExampleInvariants = []string{
	// Delivery through the v0→v2 tunnel head: at v2 the primary next hop is
	// e4 with e5 as priority-2 protection, so neither single failure breaks
	// this but the {e4, e5} pair is a minimal breaking set.
	"<ip> [.#v0] [v0#v2] .* [v3#.] <ip> 0",
	"<ip> [.#v0] .* [v3#.] <ip> 0",
}

func TestSweepRunningExample(t *testing.T) {
	re := gen.RunningExample()
	var streamed []CellResult
	cfg := Config{
		Depth:        2,
		Invariants:   runningExampleInvariants,
		Workers:      4,
		IncludeCells: true,
		OnCell:       func(c CellResult) { streamed = append(streamed, c) },
	}
	res, err := Run(context.Background(), re.Network, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := &res.Report

	links := re.Network.Topo.NumLinks() // 8
	wantScen := links + links*(links-1)/2
	if rep.Links != links || rep.Scenarios != wantScen || rep.CellsTotal != wantScen*2 {
		t.Fatalf("report sizing: links=%d scenarios=%d cells=%d, want %d/%d/%d",
			rep.Links, rep.Scenarios, rep.CellsTotal, links, wantScen, wantScen*2)
	}
	if rep.Incomplete || rep.CellsIncomplete != 0 {
		t.Fatalf("complete sweep marked incomplete: %+v", rep)
	}
	if len(rep.Cells) != rep.CellsTotal {
		t.Fatalf("IncludeCells: %d cells embedded, want %d", len(rep.Cells), rep.CellsTotal)
	}
	if len(streamed) != rep.CellsTotal {
		t.Fatalf("OnCell fired %d times, want %d", len(streamed), rep.CellsTotal)
	}
	seen := map[[2]int]bool{}
	for _, c := range streamed {
		k := [2]int{c.Scenario, c.Invariant}
		if seen[k] {
			t.Fatalf("cell (%d,%d) streamed twice", c.Scenario, c.Invariant)
		}
		seen[k] = true
	}

	if len(rep.Invariants) != 2 || len(res.Baseline) != 2 {
		t.Fatalf("invariant aggregation: %d reports, %d baselines", len(rep.Invariants), len(res.Baseline))
	}
	for qi, inv := range rep.Invariants {
		total := inv.Errors
		for _, n := range inv.Verdicts {
			total += n
		}
		if total != wantScen {
			t.Fatalf("invariant %d: verdicts+errors = %d, want %d", qi, total, wantScen)
		}
		// Recompute the breaking analysis from the raw grid and require the
		// aggregate to agree with it.
		base := outcome(res.Baseline[qi].Res, res.Baseline[qi].Err)
		if inv.Baseline != base {
			t.Fatalf("invariant %d: baseline %q vs %q", qi, inv.Baseline, base)
		}
		breaking := 0
		singleBreak := map[topology.LinkID]bool{}
		for _, c := range res.Cells {
			if c.Invariant != qi {
				continue
			}
			if outcome(c.Res, c.Err) != base {
				breaking++
				if len(c.Links) == 1 {
					singleBreak[c.Links[0]] = true
				}
			}
		}
		if inv.Breaking != breaking {
			t.Fatalf("invariant %d: breaking %d, want %d", qi, inv.Breaking, breaking)
		}
		// Minimality: a reported pair must break while both its singles hold.
		g := re.Network.Topo
		nameToLink := map[string]topology.LinkID{}
		for l := 0; l < g.NumLinks(); l++ {
			nameToLink[g.LinkName(topology.LinkID(l))] = topology.LinkID(l)
		}
		for _, set := range inv.MinimalBreaking {
			for _, name := range set {
				l, ok := nameToLink[name]
				if !ok {
					t.Fatalf("invariant %d: unknown link %q in minimal set", qi, name)
				}
				if len(set) == 2 && singleBreak[l] {
					t.Fatalf("invariant %d: pair %v not minimal (%q breaks alone)", qi, set, name)
				}
			}
		}
	}

	// The tunnel invariant must be broken by the e4+e5 double failure (both
	// next hops out of v2 gone) — the walkthrough's headline example.
	trans := rep.Invariants[0]
	e4 := re.Network.Topo.LinkName(re.Links["e4"])
	e5 := re.Network.Topo.LinkName(re.Links["e5"])
	found := false
	for _, set := range trans.MinimalBreaking {
		if len(set) == 2 &&
			((set[0] == e4 && set[1] == e5) || (set[0] == e5 && set[1] == e4)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("e4+e5 not reported as a minimal breaking pair; got %v", trans.MinimalBreaking)
	}

	if rep.Cache.Gets == 0 || rep.Cache.BlocksReused == 0 {
		t.Fatalf("no cache activity recorded: %+v", rep.Cache)
	}

	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"sweep:", "invariant:", "breaking:", "cache:", "latency:"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}

func TestSweepConfigErrors(t *testing.T) {
	re := gen.RunningExample()
	ctx := context.Background()
	// 36 depth-2 scenarios of the running example's 8 links, times one
	// invariant more than MaxCells admits.
	tooMany := make([]string, MaxCells/36+1)
	for i := range tooMany {
		tooMany[i] = runningExampleInvariants[0]
	}
	// A network read from XML can have routers but no links.
	linkless := network.New("linkless")
	linkless.Topo.AddRouter("v0")
	var queryErr *engine.QueryError
	var tooLarge *TooLargeError
	cases := []struct {
		net  *network.Network
		cfg  Config
		want func(error) bool
	}{
		{re.Network, Config{Depth: 1}, nil}, // no invariants
		{re.Network, Config{Depth: 1, Invariants: []string{"not a query"}}, func(err error) bool {
			return errors.As(err, &queryErr) && queryErr.Query == "not a query"
		}},
		{re.Network, Config{Depth: 3, Invariants: runningExampleInvariants}, nil}, // bad depth
		{linkless, Config{Depth: 1, Invariants: []string{"<ip> [.#v0] .* <ip> 0"}}, func(err error) bool {
			return strings.Contains(err.Error(), "empty failure space")
		}},
		{re.Network, Config{Depth: 2, Invariants: tooMany}, func(err error) bool {
			return errors.As(err, &tooLarge) && *tooLarge == TooLargeError{Scenarios: 36, Invariants: len(tooMany)}
		}},
	}
	for i, c := range cases {
		_, err := Run(ctx, c.net, c.cfg)
		if err == nil || c.want != nil && !c.want(err) {
			t.Errorf("case %d: Run error = %v", i, err)
		}
	}
}

// TestSweepCancellation cancels the sweep from the first completed cell's
// callback: the partial report must mark exactly the never-run cells
// incomplete, keep the completed verdicts, and leave no worker goroutines
// behind.
func TestSweepCancellation(t *testing.T) {
	re := gen.RunningExample()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := 0
	cfg := Config{
		Depth:      2,
		Invariants: runningExampleInvariants,
		Workers:    2,
		OnCell: func(CellResult) {
			fired++
			cancel()
		},
	}
	res, err := Run(ctx, re.Network, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := &res.Report
	if !rep.Incomplete || rep.CellsIncomplete == 0 {
		t.Fatalf("cancelled sweep not marked incomplete: %+v", rep)
	}
	if rep.CellsIncomplete >= rep.CellsTotal {
		t.Fatalf("no cell completed before cancellation: %+v", rep)
	}
	done, incomplete := 0, 0
	for _, c := range res.Cells {
		if c.Incomplete {
			incomplete++
			if !errors.Is(c.Err, context.Canceled) {
				t.Fatalf("incomplete cell (%d,%d) has err %v", c.Scenario, c.Invariant, c.Err)
			}
		} else {
			done++
			if c.Err != nil {
				t.Fatalf("completed cell (%d,%d) has err %v", c.Scenario, c.Invariant, c.Err)
			}
		}
	}
	if incomplete != rep.CellsIncomplete || done+incomplete != rep.CellsTotal {
		t.Fatalf("cell accounting: %d done + %d incomplete vs report %+v", done, incomplete, rep)
	}
	// Incomplete cells contribute to the per-invariant tally, not verdicts.
	sumInc := 0
	for _, inv := range rep.Invariants {
		sumInc += inv.Incomplete
	}
	if sumInc != rep.CellsIncomplete {
		t.Fatalf("per-invariant incomplete sum %d != %d", sumInc, rep.CellsIncomplete)
	}

	// All pool goroutines must be joined by the time Run returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepBudgetIsPerCell: an exhausted per-cell engine budget is a
// completed outcome ("error:budget-exhausted"), not incompleteness — and
// since the baseline blows the same budget, it is not breaking either.
func TestSweepBudgetIsPerCell(t *testing.T) {
	re := gen.RunningExample()
	cfg := Config{
		Depth:      1,
		Invariants: runningExampleInvariants[:1],
		Workers:    2,
		Engine:     engine.Options{Budget: 1},
	}
	res, err := Run(context.Background(), re.Network, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Incomplete {
		t.Fatalf("budget-exhausted cells must not mark the sweep incomplete: %+v", res.Report)
	}
	inv := res.Report.Invariants[0]
	if inv.Errors != res.Report.Scenarios {
		t.Fatalf("want every cell budget-exhausted, got %d/%d errors", inv.Errors, res.Report.Scenarios)
	}
	if inv.Baseline != "error:budget-exhausted" {
		t.Fatalf("baseline outcome %q", inv.Baseline)
	}
	if inv.Breaking != 0 {
		t.Fatalf("uniformly budget-exhausted sweep reports %d breaking scenarios", inv.Breaking)
	}
}
