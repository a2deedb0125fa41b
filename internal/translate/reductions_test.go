package translate

import (
	"math/rand"
	"slices"
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/network"
	"aalwines/internal/nfa"
	"aalwines/internal/pds"
	"aalwines/internal/query"
	"aalwines/internal/weight"
)

// oracleTopSet is the lattice value of the reference reduction: an
// explicit map-based symbol set, or ⊤ once it would exceed the threshold.
type oracleTopSet struct {
	all bool
	m   map[pds.Sym]struct{}
}

func (t *oracleTopSet) has(s pds.Sym) bool {
	if t.all {
		return true
	}
	_, ok := t.m[s]
	return ok
}

func (t *oracleTopSet) add(s pds.Sym, threshold int) bool {
	if t.all {
		return false
	}
	if t.m == nil {
		t.m = make(map[pds.Sym]struct{})
	}
	if _, ok := t.m[s]; ok {
		return false
	}
	t.m[s] = struct{}{}
	if len(t.m) > threshold {
		t.all = true
		t.m = nil
	}
	return true
}

func (t *oracleTopSet) addSet(set *nfa.Set, threshold int) bool {
	if t.all {
		return false
	}
	if set.Len() > threshold {
		t.all = true
		t.m = nil
		return true
	}
	changed := false
	set.Each(func(x nfa.Sym) bool {
		if t.add(pds.Sym(x), threshold) {
			changed = true
		}
		return !t.all
	})
	return changed || t.all
}

func (t *oracleTopSet) unionInto(dst *oracleTopSet, threshold int) bool {
	if t.all {
		if dst.all {
			return false
		}
		dst.all = true
		dst.m = nil
		return true
	}
	changed := false
	for s := range t.m {
		if dst.add(s, threshold) {
			changed = true
		}
	}
	return changed
}

// oracleResult is what the reference reduction keeps, plus how far its
// sets widened: whether below reached ⊤, and how many states reached ⊤
// during the fixpoint rather than from their seed.
type oracleResult struct {
	kept     []pds.Rule
	belowAll bool
	widened  int
}

// oracleReduce is the reference for reduceRules: each entry state joins
// every first set, below every pre-NFA set and ⊥, and then a round-robin
// pass over all rules repeats until no set changes. It compacts rules in
// place, as reduceRules does.
func oracleReduce(rules []pds.Rule, numStates int, sd topSeeds, threshold int) oracleResult {
	tops := make([]oracleTopSet, numStates)
	for _, st := range sd.entries {
		for _, fs := range sd.first {
			tops[st].addSet(fs, threshold)
		}
	}
	seeded := make([]bool, numStates)
	for s := range tops {
		seeded[s] = tops[s].all
	}
	var below oracleTopSet
	for _, set := range sd.below {
		below.addSet(set, threshold)
	}
	below.add(sd.bot, threshold)

	for changed := true; changed; {
		changed = false
		for i := range rules {
			r := &rules[i]
			if !tops[r.FromState].has(r.FromSym) {
				continue
			}
			switch r.Kind {
			case pds.SwapRule:
				if tops[r.ToState].add(r.Sym1, threshold) {
					changed = true
				}
			case pds.PushRule:
				if tops[r.ToState].add(r.Sym1, threshold) {
					changed = true
				}
				if below.add(r.Sym2, threshold) {
					changed = true
				}
			case pds.PopRule:
				if below.unionInto(&tops[r.ToState], threshold) {
					changed = true
				}
			}
		}
	}

	res := oracleResult{kept: rules[:0], belowAll: below.all}
	for s := range tops {
		if tops[s].all && !seeded[s] {
			res.widened++
		}
	}
	for _, r := range rules {
		if tops[r.FromState].has(r.FromSym) {
			res.kept = append(res.kept, r)
		}
	}
	return res
}

// checkReduce runs reduceRules and the oracle on copies of rules and
// fails t unless they keep exactly the same rules.
func checkReduce(t *testing.T, name string, rules []pds.Rule, numStates int, sd topSeeds, threshold int) oracleResult {
	t.Helper()
	got := reduceRules(slices.Clone(rules), numStates, sd, threshold)
	want := oracleReduce(slices.Clone(rules), numStates, sd, threshold)
	if !slices.Equal(got, want.kept) {
		t.Fatalf("%s threshold %d: worklist keeps %d rules, the oracle %d\nworklist %v\noracle   %v",
			name, threshold, len(got), len(want.kept), got, want.kept)
	}
	return want
}

// reduceNets returns every builtin network at a test-sized scale with
// generated queries.
func reduceNets() []struct {
	name  string
	net   *network.Network
	texts []string
} {
	type nq = struct {
		name  string
		net   *network.Network
		texts []string
	}
	out := []nq{{"running-example", gen.RunningExample().Network, []string{
		"<ip> [.#v0] .* [v3#.] <ip> 0",
		"<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2",
		"<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
		"<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
	}}}
	for _, s := range []struct {
		name string
		syn  *gen.Synth
	}{
		{"zoo", gen.Zoo(gen.ZooOpts{Routers: 16, Seed: 3, Protection: true})},
		{"nordunet", gen.Nordunet(gen.NordOpts{Services: 1, EdgeRouters: 6, Seed: 2})},
		{"fattree", gen.FatTree(gen.FatTreeOpts{K: 4, Seed: 1})},
		{"rings", gen.RingOfRings(gen.RingOfRingsOpts{Rings: 3, RingSize: 4, Seed: 1})},
		{"backbone", gen.Backbone(gen.BackboneOpts{Core: 4, Pops: 6, Seed: 1})},
	} {
		n := nq{name: s.name, net: s.syn.Net}
		for _, q := range s.syn.Queries(7, 11) {
			n.texts = append(n.texts, q.Text)
		}
		out = append(out, n)
	}
	return out
}

// TestReduceMatchesOracle holds the worklist reduction to the round-robin
// oracle on the unreduced eager product of every builtin network and
// generated query, over and under, weighted and not. Small thresholds
// make the per-state sets and below reach ⊤, which the default threshold
// rarely does on these networks; the test checks that both happened.
func TestReduceMatchesOracle(t *testing.T) {
	spec := weight.Spec{{{Coeff: 1, Q: weight.Hops}}, {{Coeff: 1, Q: weight.Failures}}}
	thresholds := []int{0, 1, 2, 3, 5, 8, 16, topThreshold}
	var belowAll, widened int
	for _, nq := range reduceNets() {
		for _, text := range nq.texts {
			q, err := query.Parse(text, nq.net)
			if err != nil {
				t.Fatalf("%s: %q: %v", nq.name, text, err)
			}
			for _, mode := range []Mode{Over, Under} {
				for _, sp := range []weight.Spec{nil, spec} {
					opts := Options{Mode: mode, Spec: sp, NoReductions: true}
					sys := Build(nq.net, q, opts)
					sd := (&builder{System: sys}).topSeeds()
					name := nq.name + " " + text
					for _, thr := range thresholds {
						res := checkReduce(t, name, sys.PDS.Rules, sys.PDS.NumStates, sd, thr)
						if res.belowAll {
							belowAll++
						}
						widened += res.widened
					}
					opts.NoReductions = false
					reduced := Build(nq.net, q, opts)
					want := oracleReduce(slices.Clone(sys.PDS.Rules), sys.PDS.NumStates, sd, topThreshold)
					if !slices.Equal(reduced.PDS.Rules, want.kept) {
						t.Fatalf("%s: Build keeps %d rules, the oracle %d", name, len(reduced.PDS.Rules), len(want.kept))
					}
				}
			}
		}
	}
	if belowAll == 0 || widened == 0 {
		t.Fatalf("below reached ⊤ in %d reductions and %d states widened during a fixpoint; want both > 0", belowAll, widened)
	}
}

// randomReduceCase decodes a small pushdown system, seeds and threshold
// from data; bytes past the end read as zero.
func randomReduceCase(data []byte) (rules []pds.Rule, numStates int, sd topSeeds, threshold int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	numStates = 1 + next()%10
	labels := 1 + next()%8 // the pre-NFA's universe; ⊥ is the next symbol
	threshold = next() % 7
	if threshold == 6 {
		threshold = topThreshold
	}
	sd.bot = pds.Sym(labels)
	set := func() *nfa.Set {
		s := nfa.NewSet(labels)
		for m, x := next(), 0; x < labels; x++ {
			if m&(1<<x) != 0 {
				s.Add(nfa.Sym(x))
			}
		}
		return s
	}
	for n := next() % 4; n > 0; n-- {
		sd.entries = append(sd.entries, pds.State(next()%numStates))
	}
	for n := next() % 3; n > 0; n-- {
		sd.first = append(sd.first, set())
	}
	for n := next() % 4; n > 0; n-- {
		sd.below = append(sd.below, set())
	}
	sym := func() pds.Sym { return pds.Sym(next() % (labels + 1)) }
	for len(data) > 0 {
		rules = append(rules, pds.Rule{
			Kind:      pds.RuleKind(next() % 3),
			FromState: pds.State(next() % numStates),
			FromSym:   sym(),
			ToState:   pds.State(next() % numStates),
			Sym1:      sym(),
			Sym2:      sym(),
			Tag:       int32(len(rules)),
		})
	}
	for i := range rules {
		if rules[i].Kind == pds.PopRule {
			rules[i].Sym1, rules[i].Sym2 = 0, 0
		} else if rules[i].Kind == pds.SwapRule {
			rules[i].Sym2 = 0
		}
	}
	return rules, numStates, sd, threshold
}

// TestReduceRandom holds the worklist reduction to the oracle on random
// pushdown systems.
func TestReduceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		rules, n, sd, thr := randomReduceCase(data)
		checkReduce(t, "random", rules, n, sd, thr)
	}
}

// FuzzReduce holds the worklist reduction to the oracle on pushdown
// systems decoded from the fuzzer's bytes.
func FuzzReduce(f *testing.F) {
	f.Add([]byte{3, 4, 2, 1, 0, 1, 3, 1, 5, 2, 0, 0, 1, 1, 0, 2, 1, 2, 2, 3, 0, 1, 1, 1, 4, 2})
	f.Add([]byte{9, 7, 1, 3, 1, 2, 3, 1, 255, 2, 170, 85, 2, 0, 1, 1, 2, 3, 0, 0, 2, 4, 5, 6, 1, 5, 7, 2, 1, 0})
	f.Add([]byte{5, 2, 6, 1, 0, 1, 1, 1, 3, 2, 0, 1, 1, 2, 0, 0, 1, 2, 1, 1, 2})
	// A symbol a pop target already holds joins below: the target's set
	// stays the same size.
	f.Add([]byte("7CC7A1227800100000000000000002091080000002100992100"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rules, n, sd, thr := randomReduceCase(data)
		checkReduce(t, "fuzz", rules, n, sd, thr)
	})
}
