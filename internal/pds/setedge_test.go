package pds

import (
	"testing"

	"aalwines/internal/nfa"
)

// setInit builds an initial automaton accepting ⟨0, x ⊥⟩ for every x in
// tops, using a single virtual set edge.
func setInit(p *PDS, tops []Sym, bot Sym) *Auto {
	a := NewAuto(p, 0)
	s1 := a.AddState()
	s2 := a.AddState()
	set := nfa.NewSet(p.NumSyms)
	for _, t := range tops {
		set.Add(nfa.Sym(t))
	}
	a.AddVirtualEdge(0, a.VirtualSym(set), s1, nil)
	a.AddEdge(s1, bot, s2)
	a.SetAccept(s2, true)
	return a
}

// TestSetEdgeSaturation: rules fire for each concrete member of a set edge.
func TestSetEdgeSaturation(t *testing.T) {
	// Symbols: 0,1 tops; 2 bottom. Rule swaps 0 -> 1 moving to state 1;
	// rule pops 1 moving to state 2... states: 0,1,2.
	p := New(3, 3)
	p.AddRule(Rule{FromState: 0, FromSym: 0, ToState: 1, Kind: SwapRule, Sym1: 1})
	p.AddRule(Rule{FromState: 0, FromSym: 1, ToState: 2, Kind: SwapRule, Sym1: 0})
	init := setInit(p, []Sym{0, 1}, 2)
	res, err := PoststarOpts(p, init, SatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		c    Config
		want bool
	}{
		{Config{0, []Sym{0, 2}}, true}, // initial via set
		{Config{0, []Sym{1, 2}}, true}, // initial via set
		{Config{1, []Sym{1, 2}}, true}, // rule 0 applied to member 0
		{Config{2, []Sym{0, 2}}, true}, // rule 1 applied to member 1
		{Config{1, []Sym{0, 2}}, false},
		{Config{0, []Sym{2, 2}}, false}, // bottom not in the set
	}
	for _, c := range cases {
		if got := res.Auto.AcceptsConfig(c.c); got != c.want {
			t.Errorf("AcceptsConfig(%v) = %v, want %v", c.c, got, c.want)
		}
	}
}

// TestSetEdgeWitness: reconstruction through a set edge resolves the
// concrete symbol the rule consumed.
func TestSetEdgeWitness(t *testing.T) {
	p := New(3, 3)
	p.AddRule(Rule{FromState: 0, FromSym: 1, ToState: 2, Kind: SwapRule, Sym1: 0, Tag: 7})
	init := setInit(p, []Sym{0, 1}, 2)
	res, err := PoststarOpts(p, init, SatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	acc, ok := res.FindAccepting([]State{2}, anySpec(3))
	if !ok {
		t.Fatal("target state not reached")
	}
	ic, rules, err := res.Reconstruct(acc)
	if err != nil {
		t.Fatal(err)
	}
	// The derivation must have started from ⟨0, 1 2⟩ — the set member the
	// rule consumed — not from the other member 0.
	if ic.State != 0 || len(ic.Stack) != 2 || ic.Stack[0] != 1 || ic.Stack[1] != 2 {
		t.Fatalf("initial config = %v, want ⟨0, [1 2]⟩", ic)
	}
	if len(rules) != 1 || p.Rules[rules[0]].Tag != 7 {
		t.Fatalf("rules = %v", rules)
	}
	if _, err := res.Replay(ic, rules); err != nil {
		t.Fatal(err)
	}
}

// TestSetEdgeFindAcceptingIntersection: the search must pick a symbol in
// the intersection of the edge set and the spec set.
func TestSetEdgeFindAcceptingIntersection(t *testing.T) {
	p := New(1, 4) // symbols 0,1,2 tops; 3 bottom
	a := NewAuto(p, 0)
	s1 := a.AddState()
	s2 := a.AddState()
	set := nfa.SetOf(4, 0, 1, 2)
	a.AddVirtualEdge(0, a.VirtualSym(set), s1, nil)
	a.AddEdge(s1, 3, s2)
	a.SetAccept(s2, true)
	res, err := PoststarOpts(p, a, SatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Spec only allows top = 1.
	spec := nfa.New(4)
	m := spec.AddState()
	f := spec.AddState()
	spec.AddArc(spec.Start(), nfa.SetOf(4, 1), m)
	spec.AddArc(m, nfa.SetOf(4, 3), f)
	spec.SetAccept(f, true)
	acc, ok := res.FindAccepting([]State{0}, spec)
	if !ok {
		t.Fatal("no accepted config found")
	}
	if acc.Config.Stack[0] != 1 {
		t.Fatalf("chosen symbol = %d, want 1 (the intersection)", acc.Config.Stack[0])
	}
}

// TestVirtualSymInterning: equal sets share a virtual symbol.
func TestVirtualSymInterning(t *testing.T) {
	p := New(1, 4)
	a := NewAuto(p, 0)
	s1 := a.VirtualSym(nfa.SetOf(4, 0, 2))
	s2 := a.VirtualSym(nfa.SetOf(4, 0, 2))
	s3 := a.VirtualSym(nfa.SetOf(4, 1))
	if s1 != s2 {
		t.Error("equal sets got different virtual symbols")
	}
	if s1 == s3 {
		t.Error("different sets share a virtual symbol")
	}
	if a.SymSet(s1) == nil || a.SymSet(0) != nil || a.SymSet(Eps) != nil {
		t.Error("SymSet resolution wrong")
	}
	if !a.Matches(s1, 2) || a.Matches(s1, 1) || !a.Matches(1, 1) || a.Matches(Eps, 1) {
		t.Error("Matches wrong")
	}
}

// TestPrestarWithSetTarget: pre* of a target with a set edge.
func TestPrestarWithSetTarget(t *testing.T) {
	// ⟨0,0 w⟩ -> swap -> ⟨1,1 w⟩; target accepts ⟨1, x ⊥⟩ for x ∈ {1,2}.
	p := New(2, 4)
	p.AddRule(Rule{FromState: 0, FromSym: 0, ToState: 1, Kind: SwapRule, Sym1: 1})
	target := NewAuto(p, 0)
	s1 := target.AddState()
	s2 := target.AddState()
	target.AddVirtualEdge(1, target.VirtualSym(nfa.SetOf(4, 1, 2)), s1, nil)
	target.AddEdge(s1, 3, s2)
	target.SetAccept(s2, true)
	res := prestar(p, target)
	if !res.AcceptsConfig(Config{0, []Sym{0, 3}}) {
		t.Error("pre* misses ⟨0, 0⊥⟩")
	}
	if !res.AcceptsConfig(Config{1, []Sym{2, 3}}) {
		t.Error("pre* misses target config itself")
	}
	if res.AcceptsConfig(Config{0, []Sym{2, 3}}) {
		t.Error("pre* accepts unrelated config")
	}
}
