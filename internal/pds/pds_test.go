package pds

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"aalwines/internal/nfa"
)

// exactSpec builds an NFA over the stack alphabet accepting exactly the
// given word.
func exactSpec(numSyms int, word []Sym) *nfa.NFA {
	a := nfa.New(numSyms)
	cur := a.Start()
	for _, s := range word {
		next := a.AddState()
		a.AddArc(cur, nfa.SetOf(numSyms, nfa.Sym(s)), next)
		cur = next
	}
	a.SetAccept(cur, true)
	return a
}

// anySpec accepts any stack content.
func anySpec(numSyms int) *nfa.NFA {
	a := nfa.New(numSyms)
	a.AddArc(a.Start(), nfa.FullSet(numSyms), a.Start())
	a.SetAccept(a.Start(), true)
	return a
}

// singleInit builds an initial P-automaton accepting exactly ⟨state, word⟩.
func singleInit(p *PDS, state State, word []Sym) *Auto {
	a := NewAuto(p, 0)
	cur := State(-1)
	prev := state
	for i, s := range word {
		cur = a.AddState()
		if i == 0 {
			a.AddEdge(prev, Sym(s), cur)
		} else {
			a.AddEdge(prev, Sym(s), cur)
		}
		prev = cur
	}
	if len(word) == 0 {
		a.SetAccept(state, true)
	} else {
		a.SetAccept(cur, true)
	}
	return a
}

// anbn builds the PDS: state 0 pushes a's (symbol 0) on bottom marker
// (symbol 2), then moves to state 1 which pops them.
func anbn() *PDS {
	p := New(2, 3)
	const a, b, bot = 0, 1, 2
	_ = b
	p.AddRule(Rule{FromState: 0, FromSym: bot, ToState: 0, Kind: PushRule, Sym1: a, Sym2: bot})
	p.AddRule(Rule{FromState: 0, FromSym: a, ToState: 0, Kind: PushRule, Sym1: a, Sym2: a})
	p.AddRule(Rule{FromState: 0, FromSym: a, ToState: 1, Kind: SwapRule, Sym1: a})
	p.AddRule(Rule{FromState: 1, FromSym: a, ToState: 1, Kind: PopRule})
	return p
}

func TestPoststarAnbn(t *testing.T) {
	p := anbn()
	init := singleInit(p, 0, []Sym{2}) // ⟨0, ⊥⟩
	res, err := PoststarOpts(p, init, SatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Reachable: ⟨0, a^n ⊥⟩, ⟨1, a^m ⊥⟩ for m ≤ n after swap, ⟨1, ⊥⟩.
	cases := []struct {
		c    Config
		want bool
	}{
		{Config{0, []Sym{2}}, true},
		{Config{0, []Sym{0, 2}}, true},
		{Config{0, []Sym{0, 0, 0, 2}}, true},
		{Config{1, []Sym{0, 0, 2}}, true},
		{Config{1, []Sym{2}}, true},
		{Config{1, []Sym{1, 2}}, false}, // symbol b never appears
		{Config{0, []Sym{2, 2}}, false},
		{Config{0, []Sym{0}}, false}, // no bottom marker
	}
	for _, c := range cases {
		if got := res.Auto.AcceptsConfig(c.c); got != c.want {
			t.Errorf("AcceptsConfig(%v) = %v, want %v", c.c, got, c.want)
		}
	}
}

func TestFindAcceptingAndReconstruct(t *testing.T) {
	p := anbn()
	init := singleInit(p, 0, []Sym{2})
	res, err := PoststarOpts(p, init, SatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Find ⟨1, a a ⊥⟩.
	acc, ok := res.FindAccepting([]State{1}, exactSpec(3, []Sym{0, 0, 2}))
	if !ok {
		t.Fatal("config not found")
	}
	if acc.Config.State != 1 || len(acc.Config.Stack) != 3 {
		t.Fatalf("found %v", acc.Config)
	}
	initCfg, rules, err := res.Reconstruct(acc)
	if err != nil {
		t.Fatal(err)
	}
	if initCfg.State != 0 || len(initCfg.Stack) != 1 || initCfg.Stack[0] != 2 {
		t.Fatalf("reconstructed initial config %v, want ⟨0,⊥⟩", initCfg)
	}
	configs, err := res.Replay(initCfg, rules)
	if err != nil {
		t.Fatal(err)
	}
	last := configs[len(configs)-1]
	if last.State != acc.Config.State || len(last.Stack) != len(acc.Config.Stack) {
		t.Fatalf("replay ends at %v, want %v", last, acc.Config)
	}
	for i := range last.Stack {
		if last.Stack[i] != acc.Config.Stack[i] {
			t.Fatalf("replay stack mismatch: %v vs %v", last, acc.Config)
		}
	}
}

// TestFindAcceptingN: the alternatives come cheapest first, the first is
// FindAccepting's, and each one's derivation replays to its configuration.
func TestFindAcceptingN(t *testing.T) {
	p := anbn()
	res, err := PoststarOpts(p, singleInit(p, 0, []Sym{2}), SatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := anySpec(3)
	accs := res.FindAcceptingN([]State{1}, spec, 4)
	if len(accs) != 4 {
		t.Fatalf("got %d configurations, want 4", len(accs))
	}
	if first, _ := res.FindAccepting([]State{1}, spec); first.Config.String() != accs[0].Config.String() {
		t.Errorf("first alternative %v, FindAccepting %v", accs[0].Config, first.Config)
	}
	// ⟨1, aⁿ⊥⟩ for n = 0..3: one more a per alternative.
	for n, acc := range accs {
		if acc.Config.State != 1 || len(acc.Config.Stack) != n+1 {
			t.Fatalf("alternative %d is %v, want ⟨1, a^%d ⊥⟩", n, acc.Config, n)
		}
		ic, rules, err := res.Reconstruct(acc)
		if err != nil {
			t.Fatalf("alternative %d: %v", n, err)
		}
		cfgs, err := res.Replay(ic, rules)
		if err != nil {
			t.Fatalf("alternative %d: replay: %v", n, err)
		}
		if last := cfgs[len(cfgs)-1]; last.String() != acc.Config.String() {
			t.Fatalf("alternative %d: replay ends at %v, want %v", n, last, acc.Config)
		}
	}
	if got := res.FindAcceptingN([]State{1}, exactSpec(3, []Sym{1, 2}), 4); len(got) != 0 {
		t.Fatalf("found unreachable configurations %v", got)
	}
}

func TestFindAcceptingNoMatch(t *testing.T) {
	p := anbn()
	init := singleInit(p, 0, []Sym{2})
	res, _ := PoststarOpts(p, init, SatOptions{})
	if _, ok := res.FindAccepting([]State{1}, exactSpec(3, []Sym{1, 2})); ok {
		t.Fatal("found unreachable config")
	}
}

func TestPoststarRejectsBadInput(t *testing.T) {
	p := New(2, 2)
	a := NewAuto(p, 0)
	// Transition into control state 1: invalid for post*.
	a.AddEdge(0, 0, 1)
	if _, err := PoststarOpts(p, a, SatOptions{}); err == nil {
		t.Fatal("expected validation error")
	}
}

// gridPDS builds a post* workload of a few hundred pops: n control states,
// n stack symbols plus a bottom marker n, and swap rules that step either
// the state or the top symbol, so every ⟨s, g n⟩ is reachable from ⟨0, 0 n⟩.
func gridPDS(n int) *PDS {
	p := New(n, n+1)
	for s := 0; s < n; s++ {
		for g := 0; g < n; g++ {
			p.AddRule(Rule{FromState: State(s), FromSym: Sym(g), ToState: State((s + 1) % n), Kind: SwapRule, Sym1: Sym(g)})
			p.AddRule(Rule{FromState: State(s), FromSym: Sym(g), ToState: State(s), Kind: SwapRule, Sym1: Sym((g + 1) % n)})
		}
	}
	return p
}

// TestPoststarOptsBudget pins the budget checkpoint: half the full run's pops
// aborts with ErrBudget on pop budget+1 and counts one exhausted run.
func TestPoststarOptsBudget(t *testing.T) {
	p := gridPDS(16)
	pops0 := postPops.Value()
	if _, err := PoststarOpts(p, singleInit(p, 0, []Sym{0, 16}), SatOptions{}); err != nil {
		t.Fatal(err)
	}
	full := postPops.Value() - pops0
	budget := full / 2
	pops0, exhausted0 := postPops.Value(), budgetExhausted.Value()
	res, err := PoststarOpts(p, singleInit(p, 0, []Sym{0, 16}), SatOptions{Budget: budget})
	if !errors.Is(err, ErrBudget) || res != nil {
		t.Fatalf("budget %d of %d pops: res=%v err=%v, want ErrBudget", budget, full, res, err)
	}
	if d := budgetExhausted.Value() - exhausted0; d != 1 {
		t.Errorf("pds_budget_exhausted_total moved by %d, want 1", d)
	}
	if d := postPops.Value() - pops0; d != budget+1 {
		t.Errorf("aborted run counted %d pops, want budget+1 = %d", d, budget+1)
	}
}

// TestPoststarOptsStop pins the cooperative stop: an already-closed Stop
// aborts with ErrStopped at the first checkpoint (firstCheck pops) and
// counts one stopped run.
func TestPoststarOptsStop(t *testing.T) {
	p := gridPDS(16)
	stop := make(chan struct{})
	close(stop)
	pops0, stopped0 := postPops.Value(), satStopped.Value()
	res, err := PoststarOpts(p, singleInit(p, 0, []Sym{0, 16}), SatOptions{Stop: stop})
	if !errors.Is(err, ErrStopped) || res != nil {
		t.Fatalf("closed stop: res=%v err=%v, want ErrStopped", res, err)
	}
	if d := satStopped.Value() - stopped0; d != 1 {
		t.Errorf("pds_saturation_stopped_total moved by %d, want 1", d)
	}
	if d := postPops.Value() - pops0; d != firstCheck {
		t.Errorf("stopped run counted %d pops, want firstCheck = %d", d, firstCheck)
	}
}

// randomPDS builds a small random pushdown system.
func randomPDS(rng *rand.Rand) *PDS {
	numStates := 2 + rng.Intn(2)
	numSyms := 2 + rng.Intn(2) + 1 // last symbol is the bottom marker
	p := New(numStates, numSyms)
	bot := Sym(numSyms - 1)
	nRules := 4 + rng.Intn(6)
	for i := 0; i < nRules; i++ {
		r := Rule{
			FromState: State(rng.Intn(numStates)),
			FromSym:   Sym(rng.Intn(numSyms)),
			ToState:   State(rng.Intn(numStates)),
		}
		switch rng.Intn(3) {
		case 0:
			r.Kind = PopRule
			if r.FromSym == bot {
				r.Kind = SwapRule // never pop the bottom marker
				r.Sym1 = bot
			}
		case 1:
			r.Kind = SwapRule
			if r.FromSym == bot {
				r.Sym1 = bot
			} else {
				r.Sym1 = Sym(rng.Intn(numSyms - 1))
			}
		default:
			r.Kind = PushRule
			r.Sym1 = Sym(rng.Intn(numSyms - 1))
			r.Sym2 = r.FromSym
		}
		p.AddRule(r)
	}
	return p
}

// bruteReach enumerates configurations reachable from c within maxSteps
// steps and maxStack stack height.
func bruteReach(p *PDS, c Config, maxSteps, maxStack int) map[string]bool {
	seen := map[string]bool{}
	type qi struct {
		c Config
		d int
	}
	queue := []qi{{c, 0}}
	seen[c.String()] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.d >= maxSteps {
			continue
		}
		for ri := range p.Rules {
			next, ok := cur.c.Step(p.Rules[ri])
			if !ok || len(next.Stack) > maxStack {
				continue
			}
			k := next.String()
			if !seen[k] {
				seen[k] = true
				queue = append(queue, qi{next, cur.d + 1})
			}
		}
	}
	return seen
}

// TestPoststarSoundAndComplete cross-checks post* against brute-force
// enumeration on random systems: every brute-force-reachable configuration
// is accepted, and every accepted configuration found by search has a
// replayable derivation from the initial configuration.
func TestPoststarSoundAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		p := randomPDS(rng)
		bot := Sym(p.NumSyms - 1)
		start := Config{State: 0, Stack: []Sym{0, bot}}
		init := singleInit(p, start.State, start.Stack)
		res, err := PoststarOpts(p, init, SatOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Completeness of post* w.r.t. bounded brute force.
		reach := bruteReach(p, start, 6, 4)
		count := 0
		for k := range reach {
			_ = k
			count++
		}
		queue := []Config{start}
		seen := map[string]bool{start.String(): true}
		depth := map[string]int{start.String(): 0}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if !res.Auto.AcceptsConfig(cur) {
				t.Fatalf("iter %d: reachable config %v not accepted by post*", iter, cur)
			}
			if depth[cur.String()] >= 6 {
				continue
			}
			for ri := range p.Rules {
				next, ok := cur.Step(p.Rules[ri])
				if !ok || len(next.Stack) > 4 {
					continue
				}
				if !seen[next.String()] {
					seen[next.String()] = true
					depth[next.String()] = depth[cur.String()] + 1
					queue = append(queue, next)
				}
			}
		}
		// Soundness via witness replay: any accepted config found by search
		// must have a valid derivation from the initial config.
		for s := 0; s < p.NumStates; s++ {
			acc, ok := res.FindAccepting([]State{State(s)}, anySpec(p.NumSyms))
			if !ok {
				continue
			}
			ic, rules, err := res.Reconstruct(acc)
			if err != nil {
				t.Fatalf("iter %d: reconstruct: %v", iter, err)
			}
			if ic.String() != start.String() {
				t.Fatalf("iter %d: derivation starts at %v, want %v", iter, ic, start)
			}
			cfgs, err := res.Replay(ic, rules)
			if err != nil {
				t.Fatalf("iter %d: replay: %v", iter, err)
			}
			last := cfgs[len(cfgs)-1]
			if last.String() != acc.Config.String() {
				t.Fatalf("iter %d: replay ends at %v, want %v", iter, last, acc.Config)
			}
		}
	}
}

// TestPrestarDuality: ⟨c1⟩ ∈ post*({c0}) ⇔ ⟨c0⟩ ∈ pre*({c1}).
func TestPrestarDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 80; iter++ {
		p := randomPDS(rng)
		bot := Sym(p.NumSyms - 1)
		c0 := Config{State: 0, Stack: []Sym{0, bot}}
		c1 := Config{
			State: State(rng.Intn(p.NumStates)),
			Stack: []Sym{Sym(rng.Intn(p.NumSyms - 1)), bot},
		}
		post, err := PoststarOpts(p, singleInit(p, c0.State, c0.Stack), SatOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pre := prestar(p, singleInit(p, c1.State, c1.Stack))
		fwd := post.Auto.AcceptsConfig(c1)
		bwd := pre.AcceptsConfig(c0)
		if fwd != bwd {
			t.Fatalf("iter %d: post* says %v, pre* says %v for %v => %v",
				iter, fwd, bwd, c0, c1)
		}
	}
}

// TestWeightedMinimum builds a system with a cheap and an expensive route
// and checks that the weighted search returns the cheap one.
func TestWeightedMinimum(t *testing.T) {
	// States: 0 (start), 1 (via cheap), 2 (via costly), 3 (goal).
	// Symbols: 0 = x, 1 = ⊥.
	p := New(4, 2)
	cheap, costly := p.Weights.Add([]uint64{1}), p.Weights.Add([]uint64{5})
	p.AddRule(Rule{FromState: 0, FromSym: 0, ToState: 1, Kind: SwapRule, Sym1: 0, W: cheap, Tag: 1})
	p.AddRule(Rule{FromState: 1, FromSym: 0, ToState: 3, Kind: SwapRule, Sym1: 0, W: cheap, Tag: 2})
	p.AddRule(Rule{FromState: 0, FromSym: 0, ToState: 2, Kind: SwapRule, Sym1: 0, W: costly, Tag: 3})
	p.AddRule(Rule{FromState: 2, FromSym: 0, ToState: 3, Kind: SwapRule, Sym1: 0, W: costly, Tag: 4})
	init := singleInit(p, 0, []Sym{0, 1})
	res, err := PoststarOpts(p, init, SatOptions{Dim: 1})
	if err != nil {
		t.Fatal(err)
	}
	acc, ok := res.FindAccepting([]State{3}, anySpec(2))
	if !ok {
		t.Fatal("goal not reached")
	}
	if len(acc.Weight) != 1 || acc.Weight[0] != 2 {
		t.Fatalf("min weight = %v, want [2]", acc.Weight)
	}
	_, rules, err := res.Reconstruct(acc)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, ri := range rules {
		sum += p.Weights.Of(&p.Rules[ri])[0]
	}
	if sum != 2 {
		t.Fatalf("witness derivation weight = %d, want 2 (the cheap route)", sum)
	}
}

// TestWeightedPushPop checks weights across push and pop rules: pushing
// costs 3, popping costs 1; reaching ⟨1, ⊥⟩ from ⟨0, ⊥⟩ via push+pop
// costs 4.
func TestWeightedPushPop(t *testing.T) {
	p := New(2, 2)
	// ⟨0,⊥⟩ -> ⟨0, x ⊥⟩ cost 3
	p.AddRule(Rule{FromState: 0, FromSym: 1, ToState: 0, Kind: PushRule, Sym1: 0, Sym2: 1, W: p.Weights.Add([]uint64{3})})
	// ⟨0,x⟩ -> ⟨1, ε⟩ cost 1
	p.AddRule(Rule{FromState: 0, FromSym: 0, ToState: 1, Kind: PopRule, W: p.Weights.Add([]uint64{1})})
	init := singleInit(p, 0, []Sym{1})
	res, err := PoststarOpts(p, init, SatOptions{Dim: 1})
	if err != nil {
		t.Fatal(err)
	}
	acc, ok := res.FindAccepting([]State{1}, exactSpec(2, []Sym{1}))
	if !ok {
		t.Fatal("⟨1,⊥⟩ not reached")
	}
	if acc.Weight[0] != 4 {
		t.Fatalf("weight = %v, want [4]", acc.Weight)
	}
	ic, rules, err := res.Reconstruct(acc)
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := res.Replay(ic, rules)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfgs[len(cfgs)-1]; got.State != 1 || len(got.Stack) != 1 {
		t.Fatalf("replay end = %v", got)
	}
}

// TestProbesCountSaturationOnly pins pds_index_probes_total to the
// saturation's own chain walks: saturating an initial automaton and its
// Clone adds the same count, although only the original's construction
// walked chains.
func TestProbesCountSaturationOnly(t *testing.T) {
	p := anbn()
	const bot = 2
	init := NewAuto(p, 0)
	for i := 0; i < 3; i++ {
		s := init.AddState()
		init.AddEdge(0, bot, s)
		init.SetAccept(s, true)
	}
	if init.probes == 0 {
		t.Fatal("building the initial automaton walked no chain")
	}
	clone := init.Clone()
	saturate := func(a *Auto) int64 {
		p0 := postProbes.Value()
		if _, err := PoststarOpts(p, a, SatOptions{}); err != nil {
			t.Fatal(err)
		}
		return postProbes.Value() - p0
	}
	if fromClone, fromInit := saturate(clone), saturate(init); fromClone != fromInit || fromInit == 0 {
		t.Fatalf("probes: clone %d, original %d; want equal and positive", fromClone, fromInit)
	}
}

func TestStatsAndString(t *testing.T) {
	p := anbn()
	st := p.Stats()
	if st.Rules != 4 || st.Push != 2 || st.Swap != 1 || st.Pop != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	for _, r := range p.Rules {
		if r.String() == "" {
			t.Fatal("empty rule String")
		}
	}
}

func TestConfigStep(t *testing.T) {
	p := anbn()
	c := Config{State: 0, Stack: []Sym{2}}
	next, ok := c.Step(p.Rules[0])
	if !ok || next.State != 0 || len(next.Stack) != 2 || next.Stack[0] != 0 {
		t.Fatalf("Step = %v, %v", next, ok)
	}
	// Mismatched head.
	if _, ok := c.Step(p.Rules[3]); ok {
		t.Fatal("Step applied with mismatched head")
	}
	// Empty stack.
	if _, ok := (Config{State: 1}).Step(p.Rules[3]); ok {
		t.Fatal("Step applied on empty stack")
	}
}

// TestSemiringLaws checks that the weight arithmetic of weighted post*
// forms the bounded idempotent semiring saturation needs: on proper
// vectors of one dimension, ⊕ (lexLess as a minimum) is idempotent,
// commutative and associative, ⊗ (lexAdd) is associative and has the
// all-zeros vector as its identity, and ⊗ distributes over ⊕.
func TestSemiringLaws(t *testing.T) {
	plus := func(a, b []uint64) []uint64 {
		if lexLess(b, a) {
			return b
		}
		return a
	}
	one := []uint64{0, 0, 0}
	// Small components, so vectors often tie on a prefix and the later
	// components decide.
	mk := func(x, y, z uint8) []uint64 { return []uint64{uint64(x % 4), uint64(y % 4), uint64(z % 4)} }
	if err := quick.Check(func(x1, y1, z1, x2, y2, z2, x3, y3, z3 uint8) bool {
		a, b, c := mk(x1, y1, z1), mk(x2, y2, z2), mk(x3, y3, z3)
		if !equalVec(plus(a, a), a) {
			return false // ⊕ idempotent
		}
		if !equalVec(plus(a, b), plus(b, a)) {
			return false // ⊕ commutative
		}
		if !equalVec(plus(a, plus(b, c)), plus(plus(a, b), c)) {
			return false // ⊕ associative
		}
		if !equalVec(lexAdd(a, lexAdd(b, c)), lexAdd(lexAdd(a, b), c)) {
			return false // ⊗ associative
		}
		// Distributivity (⊗ over ⊕) in both directions.
		if !equalVec(lexAdd(a, plus(b, c)), plus(lexAdd(a, b), lexAdd(a, c))) {
			return false
		}
		if !equalVec(lexAdd(plus(a, b), c), plus(lexAdd(a, c), lexAdd(b, c))) {
			return false
		}
		// The all-zeros vector is the identity of ⊗.
		return equalVec(lexAdd(a, one), a) && equalVec(lexAdd(one, a), a)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestRulePages checks the paged rule store's addressing: pages double
// from minPageLen, a Head call's rules never straddle a page, and a call
// larger than a page gets a page of its own whose every slot decodes
// through the views the directory holds at its page numbers.
func TestRulePages(t *testing.T) {
	var lz lazyRules
	fill := func(n int) int32 {
		off := lz.alloc(n)
		rs := lz.rules(ruleSpan{off, int32(n)})
		for j := range rs {
			rs[j].Tag = int32(j)
		}
		return off
	}
	a := fill(minPageLen - 10)
	b := fill(20) // does not fit: a second page, twice as long
	if a != 0 || b != 1<<pageShift || len(lz.pages[1]) != 2*minPageLen {
		t.Fatalf("offsets %#x, %#x and page lengths %d, %d", a, b, len(lz.pages[0]), len(lz.pages[1]))
	}
	big := maxPageLen + maxPageLen/2
	c := fill(big)
	d := fill(1)
	if c != 2<<pageShift || d != 4<<pageShift || len(lz.pages) != 5 {
		t.Fatalf("oversized page at %#x, next at %#x, %d page numbers", c, d, len(lz.pages))
	}
	for j := 0; j < big; j++ {
		if got := ruleAt(lz.pages, c+int32(j)).Tag; got != int32(j) {
			t.Fatalf("slot %d of the oversized page decodes to rule %d", j, got)
		}
	}
	if lz.n != minPageLen-10+20+big+1 {
		t.Fatalf("counted %d rules", lz.n)
	}
}
