package translate

import (
	"aalwines/internal/nfa"
	"aalwines/internal/pds"
	"aalwines/internal/topology"
)

// topThreshold bounds the size of explicitly tracked top-of-stack sets;
// beyond it the analysis widens to ⊤ (any symbol). Widening keeps the
// reduction sound — it only loses pruning precision on states that can see
// a very large label variety anyway.
const topThreshold = 128

// topSet is the lattice value of the top-of-stack analysis: either an
// explicit small symbol set or ⊤.
type topSet struct {
	all bool
	m   map[pds.Sym]struct{}
}

func (t *topSet) has(s pds.Sym) bool {
	if t.all {
		return true
	}
	_, ok := t.m[s]
	return ok
}

func (t *topSet) add(s pds.Sym) bool {
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
	if len(t.m) > topThreshold {
		t.all = true
		t.m = nil
	}
	return true
}

func (t *topSet) addSet(set *nfa.Set) bool {
	if t.all {
		return false
	}
	if set.Len() > topThreshold {
		t.all = true
		t.m = nil
		return true
	}
	changed := false
	set.Each(func(x nfa.Sym) bool {
		if t.add(pds.Sym(x)) {
			changed = true
		}
		return !t.all
	})
	return changed || t.all
}

func (t *topSet) unionInto(dst *topSet) bool {
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
		if dst.add(s) {
			changed = true
		}
	}
	return changed
}

// reduce runs the paper's reduction: a forward dataflow analysis that
// over-approximates the possible top-of-stack symbols for every control
// state, then removes rules whose head (state, symbol) can never occur.
func (b *builder) reduce() {
	p := b.PDS
	tops := make([]topSet, p.NumStates)

	// Seed: entry control states can see any first symbol of Lang(a).
	pre := b.Query.PreNFA
	var firstSets []*nfa.Set
	for _, arc := range pre.Arcs(pre.Start()) {
		firstSets = append(firstSets, arc.Set)
	}
	bStart := b.Query.PathNFA.Arcs(b.Query.PathNFA.Start())
	for e := 0; e < b.Net.Topo.NumLinks(); e++ {
		for _, arc := range bStart {
			if !arc.Set.Has(nfa.Sym(e)) {
				continue
			}
			st := b.stateOf(topology.LinkID(e), arc.To, 0)
			for _, fs := range firstSets {
				tops[st].addSet(fs)
			}
		}
	}

	// globalBelow over-approximates symbols at stack depth ≥ 2: anything in
	// Lang(a) plus ⊥ plus everything pushed below a new top.
	var below topSet
	for i := 0; i < pre.NumStates(); i++ {
		for _, arc := range pre.Arcs(i) {
			below.addSet(arc.Set)
		}
	}
	below.add(b.Bot)

	// Fixpoint iteration.
	for changed := true; changed; {
		changed = false
		for i := range p.Rules {
			r := &p.Rules[i]
			if !tops[r.FromState].has(r.FromSym) {
				continue
			}
			switch r.Kind {
			case pds.SwapRule:
				if tops[r.ToState].add(r.Sym1) {
					changed = true
				}
			case pds.PushRule:
				if tops[r.ToState].add(r.Sym1) {
					changed = true
				}
				if below.add(r.Sym2) {
					changed = true
				}
			case pds.PopRule:
				if below.unionInto(&tops[r.ToState]) {
					changed = true
				}
			}
		}
	}

	// Prune rules with unreachable heads, preserving order (tags stay
	// valid: they index b.Steps, not rules).
	kept := p.Rules[:0]
	for _, r := range p.Rules {
		if tops[r.FromState].has(r.FromSym) {
			kept = append(kept, r)
		}
	}
	p.Rules = kept
	// Invalidate indices built over the old rule slice.
	rebuilt := pds.New(p.NumStates, p.NumSyms)
	rebuilt.Rules = kept
	*p = *rebuilt
}
