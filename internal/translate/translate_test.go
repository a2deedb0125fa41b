package translate_test

import (
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/labels"
	"aalwines/internal/network"
	"aalwines/internal/pds"
	"aalwines/internal/query"
	"aalwines/internal/routing"
	"aalwines/internal/translate"
	"aalwines/internal/weight"
)

func mustParse(t *testing.T, text string, net *network.Network) *query.Query {
	t.Helper()
	q, err := query.Parse(text, net)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestBuildOverShape(t *testing.T) {
	re := gen.RunningExample()
	q := mustParse(t, "<ip> [.#v0] .* [v3#.] <ip> 0", re.Network)
	sys := translate.Build(re.Network, q, translate.Options{})
	if sys.PDS == nil || len(sys.PDS.Rules) == 0 {
		t.Fatal("empty PDS")
	}
	if int(sys.Bot) != re.Labels.Len() {
		t.Errorf("Bot = %d, want %d", sys.Bot, re.Labels.Len())
	}
	if sys.Dim != 0 {
		t.Errorf("Dim = %d for unweighted build", sys.Dim)
	}
	if len(sys.FinalStates) == 0 {
		t.Error("no final states")
	}
	st := sys.PDS.Stats()
	if st.Rules != len(sys.PDS.Rules) {
		t.Error("Stats inconsistent")
	}
}

func TestReductionShrinksRules(t *testing.T) {
	re := gen.RunningExample()
	q := mustParse(t, "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0", re.Network)
	reduced := translate.Build(re.Network, q, translate.Options{})
	full := translate.Build(re.Network, q, translate.Options{NoReductions: true})
	if reduced.RulesBeforeReduction != len(full.PDS.Rules) {
		t.Errorf("RulesBeforeReduction = %d, unreduced build has %d",
			reduced.RulesBeforeReduction, len(full.PDS.Rules))
	}
	if len(reduced.PDS.Rules) > len(full.PDS.Rules) {
		t.Error("reduction added rules")
	}
	if len(reduced.PDS.Rules) == len(full.PDS.Rules) {
		t.Log("reduction removed nothing on this instance (allowed but unusual)")
	}
}

func TestDecodeStateRoundTrip(t *testing.T) {
	re := gen.RunningExample()
	q := mustParse(t, "<ip> [.#v0] .* [v3#.] <ip> 2", re.Network)
	for _, mode := range []translate.Mode{translate.Over, translate.Under} {
		sys := translate.Build(re.Network, q, translate.Options{Mode: mode})
		// Base states decode consistently; chain states don't decode.
		seen := 0
		for s := 0; s < sys.PDS.NumStates; s++ {
			if _, _, f, ok := sys.DecodeState(pds.State(s)); ok {
				seen++
				if mode == translate.Over && f != 0 {
					t.Fatalf("over-approx state %d has budget %d", s, f)
				}
				if mode == translate.Under && f > q.MaxFailures {
					t.Fatalf("under-approx state %d has budget %d > k", s, f)
				}
			}
		}
		if seen == 0 {
			t.Fatal("no decodable base states")
		}
	}
}

func TestUnderModeHasMoreStates(t *testing.T) {
	re := gen.RunningExample()
	q := mustParse(t, "<ip> [.#v0] .* [v3#.] <ip> 2", re.Network)
	over := translate.Build(re.Network, q, translate.Options{Mode: translate.Over})
	under := translate.Build(re.Network, q, translate.Options{Mode: translate.Under})
	if under.PDS.NumStates <= over.PDS.NumStates {
		t.Errorf("under states %d <= over states %d", under.PDS.NumStates, over.PDS.NumStates)
	}
}

func TestWeightedBuildAnnotatesRules(t *testing.T) {
	re := gen.RunningExample()
	q := mustParse(t, "<ip> [.#v0] .* [v3#.] <ip> 1", re.Network)
	spec, _ := weight.ParseSpec("Hops, Failures")
	sys := translate.Build(re.Network, q, translate.Options{Spec: spec})
	if sys.Dim != 2 {
		t.Fatalf("Dim = %d, want 2", sys.Dim)
	}
	withWeight := 0
	var sawFailureCost bool
	for _, r := range sys.PDS.Rules {
		if w := sys.PDS.Weights.Of(&r); w != nil {
			if len(w) != 2 {
				t.Fatalf("rule weight %v has wrong dim", w)
			}
			withWeight++
			if w[1] > 0 {
				sawFailureCost = true
			}
		}
	}
	if withWeight == 0 {
		t.Fatal("no weighted rules")
	}
	if !sawFailureCost {
		t.Error("no rule carries a Failures cost despite the backup group")
	}
}

func TestKZeroSkipsBackupGroups(t *testing.T) {
	re := gen.RunningExample()
	q0 := mustParse(t, "<ip> [.#v0] .* [v3#.] <ip> 0", re.Network)
	q1 := mustParse(t, "<ip> [.#v0] .* [v3#.] <ip> 1", re.Network)
	s0 := translate.Build(re.Network, q0, translate.Options{NoReductions: true})
	s1 := translate.Build(re.Network, q1, translate.Options{NoReductions: true})
	if len(s0.PDS.Rules) >= len(s1.PDS.Rules) {
		t.Errorf("k=0 rules %d >= k=1 rules %d; backup groups must be excluded at k=0",
			len(s0.PDS.Rules), len(s1.PDS.Rules))
	}
}

func TestDecodeHeader(t *testing.T) {
	re := gen.RunningExample()
	q := mustParse(t, "<ip> .* <ip> 0", re.Network)
	sys := translate.Build(re.Network, q, translate.Options{})
	ip1 := translate.LabelSymOf(re.L["ip1"])
	s20 := translate.LabelSymOf(re.L["s20"])
	h, err := sys.DecodeHeader([]pds.Sym{s20, ip1, sys.Bot})
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 2 || h[0] != re.L["s20"] || h[1] != re.L["ip1"] {
		t.Fatalf("decoded %v", h)
	}
	if _, err := sys.DecodeHeader([]pds.Sym{s20, ip1}); err == nil {
		t.Error("missing ⊥ accepted")
	}
	if _, err := sys.DecodeHeader([]pds.Sym{sys.Bot, ip1, sys.Bot}); err == nil {
		t.Error("⊥ mid-stack accepted")
	}
	if _, err := sys.DecodeHeader(nil); err == nil {
		t.Error("empty stack accepted")
	}
}

// popThenSwapNet exercises chain construction with an op sequence that
// continues after a pop (the revealed symbol is unknown at build time).
func popThenSwapNet(t *testing.T) (*network.Network, map[string]labels.ID) {
	t.Helper()
	n := network.New("pop-then-swap")
	a := n.Topo.AddRouter("a")
	b := n.Topo.AddRouter("b")
	c := n.Topo.AddRouter("c")
	in := n.Topo.MustAddLink(a, b, "i", "i", 1)
	out := n.Topo.MustAddLink(b, c, "o", "o", 1)
	lb := map[string]labels.ID{
		"t1": n.Labels.MustIntern("t1", labels.MPLS),
		"s1": n.Labels.MustIntern("s1", labels.BottomMPLS),
		"s2": n.Labels.MustIntern("s2", labels.BottomMPLS),
		"ip": n.Labels.MustIntern("ip0", labels.IP),
	}
	// pop reveals either s1 or s2, then swap to s2: only valid when the
	// revealed label is a bottom label (it is).
	n.Routing.MustAdd(in, lb["t1"], 1, routing.Entry{
		Out: out, Ops: routing.Ops{routing.Pop(), routing.Swap(lb["s2"])}})
	return n, lb
}

func TestPopThenSwapChain(t *testing.T) {
	n, lb := popThenSwapNet(t)
	q := mustParse(t, "<t1 smpls ip> [.#b] . <smpls ip> 0", n)
	sys := translate.Build(n, q, translate.Options{NoReductions: true})
	// The chain must contain one pop rule per candidate revealed label
	// (s1 and s2) and swap rules from the chain states.
	pops, swaps := 0, 0
	for _, r := range sys.PDS.Rules {
		switch r.Kind {
		case pds.PopRule:
			pops++
		case pds.SwapRule:
			swaps++
		}
	}
	if pops == 0 || swaps < 2 {
		t.Fatalf("pops=%d swaps=%d; expected branching over revealed labels", pops, swaps)
	}
	// End to end: the trace pops t1 and swaps the revealed bottom label.
	res, err2 := pds.PoststarOpts(sys.PDS, sys.InitAuto(), pds.SatOptions{})
	if err2 != nil {
		t.Fatal(err2)
	}
	acc, ok := res.FindAccepting(sys.FinalStates, sys.FinalSpec)
	if !ok {
		t.Fatal("query unsatisfied; expected a witness")
	}
	ic, rules, err3 := res.Reconstruct(acc)
	if err3 != nil {
		t.Fatal(err3)
	}
	tr, err4 := sys.DecodeTrace(ic, rules)
	if err4 != nil {
		t.Fatal(err4)
	}
	if len(tr) != 2 {
		t.Fatalf("trace = %s", tr.Format(n))
	}
	last := tr[1].Header
	if len(last) != 2 || last[0] != lb["s2"] {
		t.Fatalf("final header = %s, want s2 ∘ ip0", last.Format(n.Labels))
	}
}

// TestStepsRecorded checks that every tag of an eager build numbers a
// routing entry whose out-link is the link the rule chain moves to.
func TestStepsRecorded(t *testing.T) {
	re := gen.RunningExample()
	q := mustParse(t, "<ip> [.#v0] .* [v3#.] <ip> 1", re.Network)
	sys := translate.Build(re.Network, q, translate.Options{})
	rt := re.Network.Routing
	tagged := 0
	for _, r := range sys.PDS.Rules {
		if r.Tag < 0 {
			continue
		}
		tagged++
		if int(r.Tag) >= rt.NumRules() {
			t.Fatalf("rule tag %d out of range %d", r.Tag, rt.NumRules())
		}
		e, _ := rt.Entry(r.Tag)
		if to, _, _, ok := sys.DecodeState(r.ToState); ok && to != e.Out {
			t.Fatalf("rule %v tagged %d moves to link %d, its entry leaves by %d", r, r.Tag, to, e.Out)
		}
	}
	if tagged == 0 {
		t.Fatal("no tagged rules")
	}
}

// TestInitAutoAllocs bounds the allocations of building the initial
// automaton on the fattree-k8 ladder rung's queries (576 links, about 578
// initial transitions each). Witness records come from one arena, the
// entry loop reuses one buffer and the state table has room for the
// query's own states, so the count does not grow with the links: a heap
// record per transition made about 1,190 allocations.
func TestInitAutoAllocs(t *testing.T) {
	s := gen.FatTree(gen.FatTreeOpts{K: 8, Seed: 1})
	for _, gq := range s.Queries(12, 1) {
		sys := translate.Build(s.Net, mustParse(t, gq.Text, s.Net), translate.Options{Slice: true})
		n := testing.AllocsPerRun(5, func() { sys.InitAuto() })
		t.Logf("%s: %.0f allocations", gq.Text, n)
		if n >= 64 {
			t.Errorf("%s: InitAuto made %.0f allocations, want fewer than 64", gq.Text, n)
		}
	}
}
