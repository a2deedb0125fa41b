package translate

import (
	"slices"

	"aalwines/internal/nfa"
	"aalwines/internal/pds"
	"aalwines/internal/topology"
)

// topThreshold bounds the size of explicitly tracked top-of-stack sets;
// beyond it the analysis widens to ⊤ (any symbol). Widening keeps the
// reduction sound — it only loses pruning precision on states that can see
// a very large label variety anyway.
const topThreshold = 128

// topSeeds is where the top-of-stack analysis starts.
type topSeeds struct {
	entries []pds.State // the control states a packet enters in
	first   []*nfa.Set  // what an entry state may see on top: the pre-NFA's first arcs
	below   []*nfa.Set  // what may lie below the top from the start: every pre-NFA arc
	bot     pds.Sym     // ⊥, which lies below as well
}

// topSeeds collects the analysis' starting point from the query's header
// automaton and the path automaton's first step.
func (b *builder) topSeeds() topSeeds {
	pre := b.Query.PreNFA
	sd := topSeeds{bot: b.Bot}
	for _, arc := range pre.Arcs(pre.Start()) {
		sd.first = append(sd.first, arc.Set)
	}
	for i := 0; i < pre.NumStates(); i++ {
		for _, arc := range pre.Arcs(i) {
			sd.below = append(sd.below, arc.Set)
		}
	}
	bStart := b.Query.PathNFA.Arcs(b.Query.PathNFA.Start())
	for e := 0; e < b.Net.Topo.NumLinks(); e++ {
		for _, arc := range bStart {
			if arc.Set.Has(nfa.Sym(e)) {
				sd.entries = append(sd.entries, b.stateOf(topology.LinkID(e), arc.To, 0))
			}
		}
	}
	return sd
}

// reduce runs the paper's reduction: a forward dataflow analysis that
// over-approximates the possible top-of-stack symbols for every control
// state, then removes rules whose head (state, symbol) can never occur.
func (b *builder) reduce() {
	p := b.PDS
	kept := reduceRules(p.Rules, p.NumStates, b.topSeeds(), topThreshold)
	// Sessions keep reduced systems between assemblies: do not let a
	// short rule list hold the unreduced list's array.
	if cap(kept) > 2*len(kept) {
		kept = slices.Clone(kept)
	}
	// Invalidate indices built over the old rule slice.
	rebuilt := pds.New(p.NumStates, p.NumSyms)
	rebuilt.Rules, rebuilt.Weights = kept, p.Weights
	*p = *rebuilt
}

// reduceRules computes the least fixpoint of the top-of-stack analysis
// over rules and returns, compacted in place and in their original order,
// the rules whose head it reaches. A set that would exceed threshold
// symbols widens to ⊤. So does the set "below" of symbols that may lie at
// stack depth ≥ 2: the pre-NFA's symbols, ⊥ and every push rule's lower
// symbol, which a pop rule exposes at its target.
//
// It is a worklist fixpoint: a state is re-examined only after its set
// grew, and then only its rules that have not fired yet. A rule fires
// once. A pop rule registers its target once; from then on the target's
// set includes below, and grows with each symbol below gains. Every
// update is a join in a finite lattice and every transfer is monotone, so
// any fair order reaches the same least fixpoint, and so keeps the same
// rules, as a round-robin pass over all rules repeated until nothing
// changes.
func reduceRules(rules []pds.Rule, numStates int, sd topSeeds, threshold int) []pds.Rule {
	a := newTopAnalysis(rules, numStates, threshold)
	a.below, a.belowAll = joinSets(sd.below, threshold, sd.bot)
	a.seed(sd.entries, sd.first)
	for len(a.work) > 0 {
		s := a.work[len(a.work)-1]
		a.work = a.work[:len(a.work)-1]
		a.flags[s] &^= queued
		a.fire(s)
	}
	kept := rules[:0]
	for i := range rules {
		if a.fired[i/64]&(1<<(i%64)) != 0 {
			kept = append(kept, rules[i])
		}
	}
	return kept
}

// joinSets returns the ascending union of sets and extra, or all when it
// has more than threshold members.
func joinSets(sets []*nfa.Set, threshold int, extra ...pds.Sym) (syms []pds.Sym, all bool) {
	for _, set := range sets {
		if set.Len() > threshold {
			return nil, true
		}
		set.Each(func(x nfa.Sym) bool {
			syms = append(syms, pds.Sym(x))
			return true
		})
	}
	syms = append(syms, extra...)
	slices.Sort(syms)
	syms = slices.Compact(syms)
	if len(syms) > threshold {
		return nil, true
	}
	return syms, false
}

// Per-state flags of the analysis.
const (
	queued uint8 = 1 << iota // on the worklist
	target                   // a fired pop rule leads here: the set includes below
	shared                   // the own symbols' block is shared: copy it before a change
)

// topAnalysis is the scratch of one reduceRules call.
type topAnalysis struct {
	rules     []pds.Rule
	threshold int

	// Rule indexes by head state (CSR): state s's rules are
	// idx[off[s]:off[s+1]], those in idx[off[s]:lo[s]] fired.
	off, lo, idx []int32
	fired        []uint64 // bit i: rule i fired

	// State s's set is ⊤ when tops[s].n < 0. Otherwise it holds its own
	// symbols, the tops[s].n ascending ones of syms from tops[s].off, and
	// for a pop target below as well; extra[s] counts a target's own
	// symbols that are not in below. Own symbols live in a block of
	// blockCap(n) slots; a set that outgrows its block moves to one twice
	// the size at the end of syms.
	tops  []topSpan
	extra []int32
	syms  []pds.Sym
	flags []uint8
	work  []pds.State

	below    []pds.Sym // ascending; nil when belowAll
	belowAll bool
	targets  []pds.State // the pop rules' targets, each once
}

// topSpan locates one state's own symbols in topAnalysis.syms.
type topSpan struct{ off, n int32 }

// newTopAnalysis indexes rules by head state; every set starts empty.
func newTopAnalysis(rules []pds.Rule, numStates, threshold int) *topAnalysis {
	ints := make([]int32, 3*numStates+1+len(rules))
	a := &topAnalysis{
		rules:     rules,
		threshold: threshold,
		off:       ints[:numStates+1],
		lo:        ints[numStates+1 : 2*numStates+1],
		extra:     ints[2*numStates+1 : 3*numStates+1],
		idx:       ints[3*numStates+1:],
		fired:     make([]uint64, (len(rules)+63)/64),
		tops:      make([]topSpan, numStates),
		syms:      make([]pds.Sym, 0, numStates),
		flags:     make([]uint8, numStates),
	}
	for i := range rules {
		a.off[rules[i].FromState+1]++
	}
	for s := 0; s < numStates; s++ {
		a.off[s+1] += a.off[s]
	}
	copy(a.lo, a.off[:numStates])
	for i := range rules {
		f := rules[i].FromState
		a.idx[a.lo[f]] = int32(i)
		a.lo[f]++
	}
	copy(a.lo, a.off[:numStates])
	return a
}

// seed joins the union of first into every entry state's set; the entry
// states share one block of it.
func (a *topAnalysis) seed(entries []pds.State, first []*nfa.Set) {
	syms, all := joinSets(first, a.threshold)
	if all {
		for _, s := range entries {
			a.widen(s)
		}
		return
	}
	if len(syms) == 0 {
		return
	}
	blk := topSpan{off: a.alloc(blockCap(int32(len(syms)))), n: int32(len(syms))}
	copy(a.syms[blk.off:], syms)
	for _, s := range entries {
		if a.tops[s].n == 0 { // else seeded already, listed twice
			a.tops[s] = blk
			a.flags[s] |= shared
			a.grew(s)
		}
	}
}

// fire fires every rule of s whose head s's set now admits.
func (a *topAnalysis) fire(s pds.State) {
	for k := a.lo[s]; k < a.off[s+1]; k++ {
		i := a.idx[k]
		r := &a.rules[i]
		if !a.has(s, r.FromSym) {
			continue
		}
		a.idx[k], a.idx[a.lo[s]] = a.idx[a.lo[s]], i
		a.lo[s]++
		a.fired[i/64] |= 1 << (i % 64)
		switch r.Kind {
		case pds.SwapRule:
			a.add(r.ToState, r.Sym1)
		case pds.PushRule:
			a.add(r.ToState, r.Sym1)
			a.addBelow(r.Sym2)
		case pds.PopRule:
			a.addTarget(r.ToState)
		}
	}
}

// own returns s's own symbols; s's set must not be ⊤.
func (a *topAnalysis) own(s pds.State) []pds.Sym {
	t := a.tops[s]
	return a.syms[t.off : t.off+t.n]
}

// has reports whether s's set admits g.
func (a *topAnalysis) has(s pds.State, g pds.Sym) bool {
	if a.tops[s].n < 0 {
		return true
	}
	if _, ok := slices.BinarySearch(a.own(s), g); ok {
		return true
	}
	if a.flags[s]&target == 0 {
		return false
	}
	_, ok := slices.BinarySearch(a.below, g)
	return ok
}

// blockCap is the capacity of the block that holds n own symbols: the
// least power of two not below n.
func blockCap(n int32) int32 {
	if n == 0 {
		return 0
	}
	c := int32(1)
	for c < n {
		c <<= 1
	}
	return c
}

// alloc returns the offset of a fresh block of c slots at the end of syms.
func (a *topAnalysis) alloc(c int32) int32 {
	off := len(a.syms)
	a.syms = slices.Grow(a.syms, int(c))[:off+int(c)]
	return int32(off)
}

// grew queues s after its set grew.
func (a *topAnalysis) grew(s pds.State) {
	if a.flags[s]&queued == 0 {
		a.flags[s] |= queued
		a.work = append(a.work, s)
	}
}

// widen makes s's set ⊤.
func (a *topAnalysis) widen(s pds.State) {
	if a.tops[s].n >= 0 {
		a.tops[s] = topSpan{n: -1}
		a.grew(s)
	}
}

// add joins g into s's set.
func (a *topAnalysis) add(s pds.State, g pds.Sym) {
	t := a.tops[s]
	if t.n < 0 {
		return
	}
	i, ok := slices.BinarySearch(a.own(s), g)
	if ok {
		return
	}
	size := int(t.n)
	isTarget := a.flags[s]&target != 0
	if isTarget {
		if _, ok := slices.BinarySearch(a.below, g); ok {
			return
		}
		size = len(a.below) + int(a.extra[s])
	}
	if size >= a.threshold {
		a.widen(s)
		return
	}
	if t.n == blockCap(t.n) || a.flags[s]&shared != 0 {
		off := a.alloc(blockCap(t.n + 1))
		copy(a.syms[off:], a.syms[t.off:t.off+t.n])
		t.off = off
		a.flags[s] &^= shared
	}
	set := a.syms[t.off : t.off+t.n+1]
	copy(set[i+1:], set[i:])
	set[i] = g
	t.n++
	a.tops[s] = t
	if isTarget {
		a.extra[s]++
	}
	a.grew(s)
}

// addBelow joins g into below, and so into every pop target's set.
func (a *topAnalysis) addBelow(g pds.Sym) {
	if a.belowAll {
		return
	}
	i, ok := slices.BinarySearch(a.below, g)
	if ok {
		return
	}
	if len(a.below) >= a.threshold {
		a.below, a.belowAll = nil, true
		for _, s := range a.targets {
			a.widen(s)
		}
		return
	}
	a.below = slices.Insert(a.below, i, g)
	for _, s := range a.targets {
		if a.tops[s].n < 0 {
			continue
		}
		if _, ok := slices.BinarySearch(a.own(s), g); ok {
			a.extra[s]-- // no longer only s's own: the set stays the same
		} else if len(a.below)+int(a.extra[s]) > a.threshold {
			a.widen(s)
		} else {
			a.grew(s)
		}
	}
}

// addTarget registers s as a pop rule's target: its set includes below
// from now on.
func (a *topAnalysis) addTarget(s pds.State) {
	if a.flags[s]&target != 0 {
		return
	}
	a.flags[s] |= target
	a.targets = append(a.targets, s)
	if a.belowAll {
		a.widen(s)
		return
	}
	if a.tops[s].n < 0 {
		return
	}
	own := a.own(s)
	for _, g := range own {
		if _, ok := slices.BinarySearch(a.below, g); !ok {
			a.extra[s]++
		}
	}
	switch size := len(a.below) + int(a.extra[s]); {
	case size > a.threshold:
		a.widen(s)
	case size > len(own):
		a.grew(s)
	}
}
