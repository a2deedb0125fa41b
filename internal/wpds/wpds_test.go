package wpds_test

import (
	"math/rand"
	"testing"

	"aalwines/internal/nfa"
	"aalwines/internal/pds"
	"aalwines/internal/wpds"
)

// --- semiring law checks ---

func checkLaws[W any](t *testing.T, name string, sr wpds.Semiring[W], gen func(*rand.Rand) W) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b, c := gen(rng), gen(rng), gen(rng)
		if !sr.Equal(sr.Combine(a, a), a) {
			t.Fatalf("%s: ⊕ not idempotent on %v", name, a)
		}
		if !sr.Equal(sr.Combine(a, b), sr.Combine(b, a)) {
			t.Fatalf("%s: ⊕ not commutative", name)
		}
		if !sr.Equal(sr.Combine(a, sr.Combine(b, c)), sr.Combine(sr.Combine(a, b), c)) {
			t.Fatalf("%s: ⊕ not associative", name)
		}
		if !sr.Equal(sr.Extend(a, sr.Extend(b, c)), sr.Extend(sr.Extend(a, b), c)) {
			t.Fatalf("%s: ⊗ not associative", name)
		}
		if !sr.Equal(sr.Extend(a, sr.Combine(b, c)), sr.Combine(sr.Extend(a, b), sr.Extend(a, c))) {
			t.Fatalf("%s: ⊗ does not left-distribute", name)
		}
		if !sr.Equal(sr.Extend(sr.Combine(a, b), c), sr.Combine(sr.Extend(a, c), sr.Extend(b, c))) {
			t.Fatalf("%s: ⊗ does not right-distribute", name)
		}
		if !sr.Equal(sr.Combine(a, sr.Zero()), a) || !sr.Equal(sr.Extend(a, sr.One()), a) ||
			!sr.Equal(sr.Extend(sr.One(), a), a) {
			t.Fatalf("%s: identity laws fail", name)
		}
		if !sr.Equal(sr.Extend(a, sr.Zero()), sr.Zero()) || !sr.Equal(sr.Extend(sr.Zero(), a), sr.Zero()) {
			t.Fatalf("%s: zero does not annihilate", name)
		}
	}
}

func TestSemiringLaws(t *testing.T) {
	checkLaws[bool](t, "Bool", wpds.Bool{}, func(r *rand.Rand) bool { return r.Intn(2) == 0 })
	genDist := func(r *rand.Rand) wpds.Dist {
		if r.Intn(5) == 0 {
			return wpds.Infinity
		}
		return wpds.D(uint64(r.Intn(100)))
	}
	checkLaws[wpds.Dist](t, "MinPlus", wpds.MinPlus{}, genDist)
	checkLaws[wpds.Dist](t, "MaxMin", wpds.MaxMin{}, genDist)
}

// --- cross-checks against the specialised internal/pds engine ---

// randomSystems builds matching wpds and pds systems with random rules and
// per-rule weights in [0, 8].
func randomSystems(rng *rand.Rand) (*wpds.PDS[wpds.Dist], *pds.PDS) {
	states := 2 + rng.Intn(2)
	syms := 3 + rng.Intn(2) // last symbol is the bottom marker
	bot := syms - 1
	wp := &wpds.PDS[wpds.Dist]{States: states, Syms: syms}
	pp := pds.New(states, syms)
	n := 4 + rng.Intn(6)
	for i := 0; i < n; i++ {
		from := rng.Intn(states)
		fsym := rng.Intn(syms)
		to := rng.Intn(states)
		w := uint64(rng.Intn(9))
		kind := wpds.RuleKind(rng.Intn(3))
		if kind == wpds.Pop && fsym == bot {
			kind = wpds.Swap
		}
		r := wpds.Rule[wpds.Dist]{FromState: from, FromSym: fsym, ToState: to, Kind: kind, Weight: wpds.D(w)}
		pr := pds.Rule{FromState: pds.State(from), FromSym: pds.Sym(fsym), ToState: pds.State(to), W: pp.Weights.Add([]uint64{w})}
		switch kind {
		case wpds.Pop:
			pr.Kind = pds.PopRule
		case wpds.Swap:
			s1 := rng.Intn(syms - 1)
			if fsym == bot {
				s1 = bot // keep the marker at the bottom
			}
			r.Sym1 = s1
			pr.Kind = pds.SwapRule
			pr.Sym1 = pds.Sym(s1)
		case wpds.Push:
			s1 := rng.Intn(syms - 1)
			r.Sym1 = s1
			r.Sym2 = fsym
			pr.Kind = pds.PushRule
			pr.Sym1 = pds.Sym(s1)
			pr.Sym2 = pds.Sym(fsym)
		}
		wp.AddRule(r)
		pp.AddRule(pr)
	}
	return wp, pp
}

// initAutos builds matching initial automata accepting exactly ⟨0, s₀ ⊥⟩.
func initAutos(wp *wpds.PDS[wpds.Dist], pp *pds.PDS) (*wpds.Auto[wpds.Dist], *pds.Auto) {
	bot := wp.Syms - 1
	wa := wpds.NewAuto[wpds.Dist](wpds.MinPlus{}, wp)
	m1 := wa.AddState()
	m2 := wa.AddState()
	wa.AddTransition(0, 0, m1, wpds.MinPlus{}.One())
	wa.AddTransition(m1, bot, m2, wpds.MinPlus{}.One())
	wa.SetAccept(m2, true)

	pa := pds.NewAuto(pp, 0)
	p1 := pa.AddState()
	p2 := pa.AddState()
	pa.AddEdge(0, 0, p1)
	pa.AddEdge(p1, pds.Sym(bot), p2)
	pa.SetAccept(p2, true)
	return wa, pa
}

// TestMinPlusAgreesWithSpecialised: the generic MinPlus post* value of a
// configuration equals the minimum weight the specialised engine computes.
func TestMinPlusAgreesWithSpecialised(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 60; iter++ {
		wp, pp := randomSystems(rng)
		wa, pa := initAutos(wp, pp)
		sat := wpds.Poststar[wpds.Dist](wpds.MinPlus{}, wp, wa)
		res, err := pds.PoststarOpts(pp, pa, pds.SatOptions{Dim: 1})
		if err != nil {
			t.Fatal(err)
		}
		bot := wp.Syms - 1
		// Compare the value of every short configuration.
		for st := 0; st < wp.States; st++ {
			for sym := 0; sym < bot; sym++ {
				cfg := wpds.Config{State: st, Stack: []int{sym, bot}}
				v := sat.Value(cfg)
				spec := exactSpec(pp.NumSyms, []pds.Sym{pds.Sym(sym), pds.Sym(bot)})
				acc, ok := res.FindAccepting([]pds.State{pds.State(st)}, spec)
				if v.Inf != !ok {
					t.Fatalf("iter %d cfg %v: generic inf=%v specialised found=%v", iter, cfg, v.Inf, ok)
				}
				if ok && (len(acc.Weight) != 1 || acc.Weight[0] != v.V) {
					t.Fatalf("iter %d cfg %v: generic %d specialised %v", iter, cfg, v.V, acc.Weight)
				}
			}
		}
	}
}

// TestBoolAgreesWithReachability: Bool post* matches unweighted pds
// acceptance.
func TestBoolAgreesWithReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 60; iter++ {
		wpDist, pp := randomSystems(rng)
		// Rebuild the same rules over Bool.
		wb := &wpds.PDS[bool]{States: wpDist.States, Syms: wpDist.Syms}
		for _, r := range wpDist.Rules {
			wb.AddRule(wpds.Rule[bool]{
				FromState: r.FromState, FromSym: r.FromSym, ToState: r.ToState,
				Kind: r.Kind, Sym1: r.Sym1, Sym2: r.Sym2, Weight: true,
			})
		}
		bot := wb.Syms - 1
		ba := wpds.NewAuto[bool](wpds.Bool{}, wb)
		m1 := ba.AddState()
		m2 := ba.AddState()
		ba.AddTransition(0, 0, m1, true)
		ba.AddTransition(m1, bot, m2, true)
		ba.SetAccept(m2, true)
		bsat := wpds.Poststar[bool](wpds.Bool{}, wb, ba)

		pa := pds.NewAuto(pp, 0)
		p1 := pa.AddState()
		p2 := pa.AddState()
		pa.AddEdge(0, 0, p1)
		pa.AddEdge(p1, pds.Sym(bot), p2)
		pa.SetAccept(p2, true)
		res, err := pds.PoststarOpts(pp, pa, pds.SatOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for st := 0; st < wb.States; st++ {
			for sym := 0; sym < bot; sym++ {
				generic := bsat.Value(wpds.Config{State: st, Stack: []int{sym, bot}})
				specialised := res.Auto.AcceptsConfig(pds.Config{
					State: pds.State(st), Stack: []pds.Sym{pds.Sym(sym), pds.Sym(bot)},
				})
				if generic != specialised {
					t.Fatalf("iter %d ⟨%d,[%d ⊥]⟩: generic=%v specialised=%v",
						iter, st, sym, generic, specialised)
				}
			}
		}
	}
}

// TestPrestarPoststarDuality: for single-config initial/final sets, the
// Bool pre* value of the initial config w.r.t. the final set equals the
// Bool post* value of the final config w.r.t. the initial set.
func TestPrestarPoststarDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for iter := 0; iter < 80; iter++ {
		wpDist, _ := randomSystems(rng)
		wb := &wpds.PDS[bool]{States: wpDist.States, Syms: wpDist.Syms}
		for _, r := range wpDist.Rules {
			wb.AddRule(wpds.Rule[bool]{
				FromState: r.FromState, FromSym: r.FromSym, ToState: r.ToState,
				Kind: r.Kind, Sym1: r.Sym1, Sym2: r.Sym2, Weight: true,
			})
		}
		bot := wb.Syms - 1
		c0 := wpds.Config{State: 0, Stack: []int{0, bot}}
		c1 := wpds.Config{State: rng.Intn(wb.States), Stack: []int{rng.Intn(bot), bot}}

		mk := func(c wpds.Config) *wpds.Auto[bool] {
			a := wpds.NewAuto[bool](wpds.Bool{}, wb)
			prev := c.State
			for i, sym := range c.Stack {
				next := a.AddState()
				_ = i
				a.AddTransition(prev, sym, next, true)
				prev = next
			}
			a.SetAccept(prev, true)
			return a
		}
		fwd := wpds.Poststar[bool](wpds.Bool{}, wb, mk(c0)).Value(c1)
		bwd := wpds.Prestar[bool](wpds.Bool{}, wb, mk(c1)).Value(c0)
		if fwd != bwd {
			t.Fatalf("iter %d: post* says %v, pre* says %v (c0=%v c1=%v)", iter, fwd, bwd, c0, c1)
		}
	}
}

// TestMaxMinBottleneck: a two-route system where the wider route wins under
// the bottleneck semiring.
func TestMaxMinBottleneck(t *testing.T) {
	// States 0→{1,2}→3, symbol 0 with bottom 1.
	p := &wpds.PDS[wpds.Dist]{States: 4, Syms: 2}
	add := func(from, to int, cap uint64) {
		p.AddRule(wpds.Rule[wpds.Dist]{
			FromState: from, FromSym: 0, ToState: to, Kind: wpds.Swap, Sym1: 0,
			Weight: wpds.D(cap),
		})
	}
	add(0, 1, 10)
	add(1, 3, 2) // narrow second hop: bottleneck 2
	add(0, 2, 5)
	add(2, 3, 5) // balanced route: bottleneck 5
	sr := wpds.MaxMin{}
	a := wpds.NewAuto[wpds.Dist](sr, p)
	m1 := a.AddState()
	m2 := a.AddState()
	a.AddTransition(0, 0, m1, sr.One())
	a.AddTransition(m1, 1, m2, sr.One())
	a.SetAccept(m2, true)
	sat := wpds.Poststar[wpds.Dist](sr, p, a)
	got := sat.Value(wpds.Config{State: 3, Stack: []int{0, 1}})
	if got.Inf || got.V != 5 {
		t.Fatalf("bottleneck = %v, want 5 (the balanced route)", got)
	}
}

// exactSpec builds an NFA accepting exactly one stack word.
func exactSpec(numSyms int, word []pds.Sym) *nfa.NFA {
	a := nfa.New(numSyms)
	cur := a.Start()
	for _, sym := range word {
		next := a.AddState()
		a.AddArc(cur, nfa.SetOf(numSyms, nfa.Sym(sym)), next)
		cur = next
	}
	a.SetAccept(cur, true)
	return a
}
