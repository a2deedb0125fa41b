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

// The on-the-fly rule store grows by pages and never copies a rule. Rule
// index i names slot i&(maxPageLen-1) of page i>>pageShift, so decoding
// it is a shift and a mask. Pages start at minPageLen rules and double up
// to maxPageLen (2 MiB), so a small run allocates a few KiB and a
// paper-scale one about fifteen pages. The rules of one Head call, the
// head's own and its chain states', go into one page, so every span is a
// slice of one page. A Head call larger than maxPageLen gets a page of
// its own that spans several page numbers: the directory holds a view of
// the page at each number, which keeps the decoding right for every slot.
const (
	pageShift  = 16
	maxPageLen = 1 << pageShift
	minPageLen = 256
	maxPages   = 1 << (31 - pageShift) // rule indexes are int32
)

// ruleSpan locates a run of rules inside a saturation's rule store: n
// rules from index off, all in one page.
type ruleSpan struct{ off, n int32 }

// lazyRules is one on-the-fly saturation's private rule store: the rule
// pages, which heads have been generated, and where their rules and those
// of the chain states they created live.
type lazyRules struct {
	gen      Generator
	newState func() State      // the automaton's AddState, bound once
	heads    u64map            // headKey(s, γ) → index into spans, base heads only
	spans    chunked[ruleSpan] // generated base heads, in generation order; chunked like the state table
	chain    chunked[ruleSpan] // by automaton state: a chain state's rules, or zero
	pages    [][]Rule          // page directory, each entry a full-length page or view
	fill     int               // rules used in the last page
	n        int               // rules generated
	buf      []Rule            // Head's output, before place sorts it into a page
	syms     []Sym             // Heads scratch
	count    []int32           // place's bucket offsets, reused across heads
	next     []int32           // place's fill cursors, reused across heads
}

// ruleAt returns rule i of a paged store.
func ruleAt(pages [][]Rule, i int32) *Rule {
	return &pages[i>>pageShift][i&(maxPageLen-1)]
}

// rules returns the rules sp locates.
func (lz *lazyRules) rules(sp ruleSpan) []Rule {
	if sp.n == 0 {
		return nil
	}
	return lz.pages[sp.off>>pageShift][sp.off&(maxPageLen-1):][:sp.n]
}

// alloc reserves n consecutive slots in one page, starting a page when the
// last one lacks room, and returns the index of the first.
func (lz *lazyRules) alloc(n int) int32 {
	lz.n += n
	if k := len(lz.pages) - 1; k >= 0 && len(lz.pages[k])-lz.fill >= n {
		lz.fill += n
		return int32(k<<pageShift + lz.fill - n)
	}
	size := minPageLen
	if k := len(lz.pages); k > 0 {
		size = min(2*len(lz.pages[k-1]), maxPageLen)
	}
	page := make([]Rule, max(size, n))
	first := len(lz.pages)
	for j := 0; j < len(page); j += maxPageLen {
		lz.pages = append(lz.pages, page[j:])
	}
	if len(lz.pages) > maxPages {
		panic("pds: on-the-fly rule store exceeds 2^31 rules")
	}
	// A page of several numbers is full past n, which ends in its last view.
	lz.fill = n - (len(lz.pages)-1-first)<<pageShift
	return int32(first << pageShift)
}

// control reports whether rules can be headed at s: a base control state
// of the PDS, or a chain state this run generated rules for.
func (r *postRun) control(s State) bool {
	if int(s) < r.p.NumStates {
		return true
	}
	lz := r.lazy
	return lz != nil && int(s) < lz.chain.length() && lz.chain.at(int(s)).n > 0
}

// headRules returns the rules of base head ⟨s,γ⟩, generating them on first
// use.
func (r *postRun) headRules(s State, g Sym) ruleSpan {
	lz := r.lazy
	if i, ok := lz.heads.get(headKey(s, g)); ok {
		return *lz.spans.at(int(i))
	}
	c0 := r.a.NumStates()
	lz.buf = lz.gen.Head(lz.buf[:0], &r.weights, s, g, lz.newState)
	sp := lz.place(s, State(c0), State(r.a.NumStates()))
	i := lz.heads.n // every generated head adds one key
	*lz.heads.ref(headKey(s, g)) = int32(i)
	lz.spans.grow(i + 1)
	*lz.spans.at(i) = sp
	return sp
}

// place moves the rules one Head call left in buf into a page, stably
// reordered so that the head's own rules (headed at s) come first and each
// chain state's rules follow contiguously, chain states [c0, c1) in
// creation order. It records the chain states' spans and returns the
// head's.
func (lz *lazyRules) place(s State, c0, c1 State) ruleSpan {
	rs := lz.buf
	if len(rs) == 0 {
		return ruleSpan{}
	}
	lz.chain.grow(int(c1))
	bucket := func(rl *Rule) int {
		if rl.FromState == s {
			return 0
		}
		return 1 + int(rl.FromState-c0)
	}
	// count[b+1] is bucket b's size, prefix-summed into start offsets.
	lz.count = append(lz.count[:0], make([]int32, int(c1-c0)+2)...)
	count := lz.count
	for i := range rs {
		count[bucket(&rs[i])+1]++
	}
	for b := 1; b < len(count); b++ {
		count[b] += count[b-1]
	}
	off := lz.alloc(len(rs))
	dst := lz.rules(ruleSpan{off, int32(len(rs))})
	lz.next = append(lz.next[:0], count[:len(count)-1]...)
	for i := range rs {
		b := bucket(&rs[i])
		dst[lz.next[b]] = rs[i]
		lz.next[b]++
	}
	for c := c0; c < c1; c++ {
		b := 1 + int(c-c0)
		*lz.chain.at(int(c)) = ruleSpan{off + count[b], count[b+1] - count[b]}
	}
	return ruleSpan{off, count[1]}
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
		sp := *lz.chain.at(int(t.From))
		rs := lz.rules(sp)
		if set == nil {
			// A chain state has at most one rule per head symbol, ascending.
			j := sort.Search(len(rs), func(j int) bool { return rs[j].FromSym >= t.Sym })
			if j < len(rs) && rs[j].FromSym == t.Sym {
				r.tally.probes++
				r.apply(&rs[j], sp.off+int32(j), t, w, rec)
			}
			return
		}
		for j := range rs {
			if set.Has(nfa.Sym(rs[j].FromSym)) {
				r.tally.probes++
				r.apply(&rs[j], sp.off+int32(j), t, w, rec)
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
	rs := r.lazy.rules(sp)
	for j := range rs {
		r.apply(&rs[j], sp.off+int32(j), t, w, rec)
	}
}
