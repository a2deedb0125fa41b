package pds

import (
	"sort"

	"aalwines/internal/nfa"
)

// Generator supplies the rules of an on-the-fly PDS (PDS.Gen). post* asks
// it for the rules of a head ⟨s,γ⟩ the first time a transition reaches
// that head, so only the part of the system the saturation explores is
// ever built. One Generator serves every saturation of the PDS, possibly
// concurrently, so it must not mutate shared state.
type Generator interface {
	// Head appends to dst the rules headed at ⟨s,γ⟩, for a control state
	// s below NumStates, in the order an eager build lists them, followed
	// by every rule of the fresh chain states those rules lead to. Chain
	// states come from newState; the rules of each chain state follow its
	// creation in ascending head-symbol order. Head appends the weight
	// vectors of weighted rules to wts, and the rules name them by their
	// index there (Rule.W).
	Head(dst []Rule, wts *Weights, s State, g Sym, newState func() State) []Rule
	// Heads appends to dst, in ascending order, every symbol γ in set for
	// which ⟨s,γ⟩ can head a rule.
	Heads(dst []Sym, s State, set *nfa.Set) []Sym
	// Done is called once when a saturation ends, on every exit path,
	// with the number of rules it generated.
	Done(generated int)
}

// minRuleSlack is the free capacity the rule store keeps ahead of a Head
// call; heads rarely generate more.
const minRuleSlack = 256

// ruleSpan locates a run of rules inside a saturation's rule store.
type ruleSpan struct{ off, n int32 }

// lazyRules is one on-the-fly saturation's private rule store index: which
// heads have been generated, and where their rules and those of the chain
// states they created live. The rules themselves are postRun.rules.
type lazyRules struct {
	gen   Generator
	heads u64map     // headKey(s, γ) → index into spans, base heads only
	spans []ruleSpan // generated base heads, in generation order
	chain []ruleSpan // by automaton state: a chain state's rules, or zero
	syms  []Sym      // Heads scratch
	buf   []Rule     // reorder scratch
	// group's bucket offsets and fill cursors, reused across heads.
	counts, next []int32
}

// control reports whether rules can be headed at s: a base control state
// of the PDS, or a chain state this run generated rules for.
func (r *postRun) control(s State) bool {
	if int(s) < r.p.NumStates {
		return true
	}
	lz := r.lazy
	return lz != nil && int(s) < len(lz.chain) && lz.chain[s].n > 0
}

// headRules returns the rules of base head ⟨s,γ⟩, generating them on first
// use.
func (r *postRun) headRules(s State, g Sym) ruleSpan {
	lz := r.lazy
	if i, ok := lz.heads.get(headKey(s, g)); ok {
		return lz.spans[i]
	}
	if cap(r.rules)-len(r.rules) < minRuleSlack {
		// Grow the store by doubling: append's gentler growth at this size
		// copied the store about four times over.
		grown := make([]Rule, len(r.rules), 2*cap(r.rules)+minRuleSlack)
		copy(grown, r.rules)
		r.rules = grown
	}
	off := len(r.rules)
	c0 := r.a.NumStates()
	r.rules = lz.gen.Head(r.rules, &r.weights, s, g, r.a.AddState)
	sp := r.group(off, s, State(c0), State(r.a.NumStates()))
	*lz.heads.ref(headKey(s, g)) = int32(len(lz.spans))
	lz.spans = append(lz.spans, sp)
	return sp
}

// group stably reorders the rules one Head call appended at off so that
// the head's own rules (headed at s) come first and each chain state's
// rules follow contiguously, chain states [c0, c1) in creation order. It
// records the chain states' spans and returns the head's.
func (r *postRun) group(off int, s State, c0, c1 State) ruleSpan {
	lz := r.lazy
	rs := r.rules[off:]
	if int(c1) > cap(lz.chain) {
		// Double, as the state table does; the slots past len were never
		// written, so they read as zero spans.
		lz.chain = append(make([]ruleSpan, 0, max(2*cap(lz.chain), int(c1))), lz.chain...)
	}
	if int(c1) > len(lz.chain) {
		lz.chain = lz.chain[:c1]
	}
	bucket := func(rl *Rule) int {
		if rl.FromState == s {
			return 0
		}
		return 1 + int(rl.FromState-c0)
	}
	// counts[b+1] is bucket b's size, prefix-summed into start offsets.
	lz.counts = append(lz.counts[:0], make([]int32, int(c1-c0)+2)...)
	counts := lz.counts
	sorted := true
	prev := 0
	for i := range rs {
		b := bucket(&rs[i])
		counts[b+1]++
		if b < prev {
			sorted = false
		}
		prev = b
	}
	for b := 1; b < len(counts); b++ {
		counts[b] += counts[b-1]
	}
	if !sorted {
		lz.buf = append(lz.buf[:0], rs...)
		lz.next = append(lz.next[:0], counts[:len(counts)-1]...)
		next := lz.next
		for i := range lz.buf {
			b := bucket(&lz.buf[i])
			rs[next[b]] = lz.buf[i]
			next[b]++
		}
	}
	for c := c0; c < c1; c++ {
		b := 1 + int(c-c0)
		lz.chain[c] = ruleSpan{int32(off) + counts[b], counts[b+1] - counts[b]}
	}
	return ruleSpan{int32(off), counts[1]}
}

// applyLazy fires the rules matching transition t (whose source is a
// control state) on an on-the-fly PDS. A transition over a symbol set at a
// base state visits the heads ⟨s,γ⟩ for γ in the set in ascending order —
// the order an eager PDS lists them in — generating each on first use.
// Set-edge probes count the rules the set admits; an eager run counts every
// rule at the state.
func (r *postRun) applyLazy(t Trans, w []uint64, rec *Witness) {
	lz := r.lazy
	set := r.a.SymSet(t.Sym)
	if int(t.From) >= r.p.NumStates {
		sp := lz.chain[t.From]
		rs := r.rules[sp.off : sp.off+sp.n]
		if set == nil {
			// A chain state has at most one rule per head symbol, ascending.
			j := sort.Search(len(rs), func(j int) bool { return rs[j].FromSym >= t.Sym })
			if j < len(rs) && rs[j].FromSym == t.Sym {
				r.tally.probes++
				r.apply(sp.off+int32(j), t, w, rec)
			}
			return
		}
		for j := range rs {
			if set.Has(nfa.Sym(rs[j].FromSym)) {
				r.tally.probes++
				r.apply(sp.off+int32(j), t, w, rec)
			}
		}
		return
	}
	if set == nil {
		r.applySpan(r.headRules(t.From, t.Sym), t, w, rec)
		return
	}
	lz.syms = lz.gen.Heads(lz.syms[:0], t.From, set)
	for _, g := range lz.syms {
		r.applySpan(r.headRules(t.From, g), t, w, rec)
	}
}

func (r *postRun) applySpan(sp ruleSpan, t Trans, w []uint64, rec *Witness) {
	r.tally.probes += int64(sp.n)
	for i := sp.off; i < sp.off+sp.n; i++ {
		r.apply(i, t, w, rec)
	}
}
