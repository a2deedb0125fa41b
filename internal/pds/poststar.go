package pds

import (
	"container/heap"
	"errors"
	"fmt"

	"aalwines/internal/nfa"
)

// Result is a saturated P-automaton together with the PDS that produced it.
// Dim is the weight vector dimension (0 for unweighted runs).
type Result struct {
	PDS  *PDS
	Auto *Auto
	Dim  int
	// Mids maps push-rule mid states back to their (state, symbol) key;
	// diagnostic only.
	Mids map[State][2]uint32
	// EarlyAccepted reports that the run stopped before the fixed point
	// because SatOptions.EarlyAccept found an accepting configuration
	// reachable. The automaton then under-approximates post*(L(init)) but
	// every accepted configuration — and every witness — is still sound.
	EarlyAccepted bool
}

// SatOptions bundles the optional controls of a post* run (PoststarOpts).
type SatOptions struct {
	// Dim is the weight vector dimension (0 = unweighted).
	Dim int
	// Budget bounds the number of worklist pops (0 = unlimited); an
	// exhausted budget aborts with ErrBudget.
	Budget int64
	// Stop, when non-nil and closed, aborts the run with ErrStopped at the
	// next cadence check.
	Stop <-chan struct{}
	// EarlyAccept lets an unweighted run return as soon as some accepting
	// configuration of the (FinalStates, FinalSpec) query is reachable in
	// the partially saturated automaton, setting Result.EarlyAccepted.
	// Weighted runs ignore it: minimal witness weights need the full fixed
	// point, and so does any negative ("Unsatisfied") answer.
	EarlyAccept bool
	// FinalStates and FinalSpec define the acceptance check: states the
	// query may end in and the ε-free NFA over the stack alphabet the
	// final stack must match (the engine passes the translated query's
	// FinalStates/FinalSpec).
	FinalStates []State
	FinalSpec   *nfa.NFA
}

// ErrBudget is returned by PoststarOpts when SatOptions.Budget is
// exhausted; it plays the role of the experiment timeout.
var ErrBudget = errors.New("pds: post* work budget exhausted")

// ErrStopped is returned by PoststarOpts when SatOptions.Stop closes
// before saturation completes; the engine maps it to the caller's context
// error.
var ErrStopped = errors.New("pds: post* stopped")

// edgeRef locates a worklist entry as (source state, out-edge index): the
// pop reads the edge slot directly instead of re-resolving a Trans through
// the transition index, and the fQueued flag on the slot replaces the old
// inQueue map.
type edgeRef struct {
	from State
	ei   int32
}

// checkEvery is the steady-state spacing of the cooperative checks in the
// pop loop: stop-channel polls and, when enabled, the early-accept
// reachability probe. The cadence starts at firstCheck and doubles up to
// checkEvery, so small runs (which may saturate in well under a thousand
// pops) still get probed a few times while large runs keep the checks
// invisible in profiles.
const (
	checkEvery = 1024
	firstCheck = 64
)

// postRun is the mutable state of one post* saturation.
type postRun struct {
	p *PDS
	// rules is p.Rules for an eager PDS; on the fly it is the run's own
	// rule store, and lazy indexes it.
	rules []Rule
	lazy  *lazyRules
	a     *Auto
	o     SatOptions
	dim   int
	tally satTally
	sc    *satScratch

	queue []edgeRef
	head  int

	wts  weightArena
	wits witArena

	// mid states q_{p′,γ′}, one per (ToState, Sym1) of push rules.
	mids map[[2]uint32]State

	// epsInto[q] lists the sources of ε-transitions into q; indexed by
	// state, with lazy growth for the mid states added during the run.
	epsInto [][]State

	earlyOK    bool
	specStarts []int

	work      int64
	nextCheck int64
}

// PoststarOpts computes post*(L(init)): the saturated automaton accepts
// exactly the configurations reachable from configurations accepted by
// init. The input automaton must have no transitions into control states;
// it is mutated in place and becomes the result automaton. o carries the
// optional controls; the zero value runs an unweighted, unbounded
// saturation to the fixed point.
//
// When o.Dim > 0 the computation is the weighted post* of Reps et al.:
// rule weights (vectors of length Dim, nil meaning the neutral all-zeros)
// are accumulated, every transition keeps its lexicographically minimal
// weight, and witness records always describe a derivation achieving the
// stored weight.
//
// On an on-the-fly PDS (p.Gen set) the run starts an empty rule store and
// asks p.Gen for a head's rules the first time a transition reaches it;
// chain states are allocated in init after its own states. When the run
// ends, with or without an error, p.Rules is replaced by the run's store,
// so a PDS saturated again reads the latest run's rules. A saturation
// therefore needs its own copy of an on-the-fly PDS.
func PoststarOpts(p *PDS, init *Auto, o SatOptions) (*Result, error) {
	if err := init.Validate(); err != nil {
		return nil, err
	}
	r := &postRun{p: p, rules: p.Rules, a: init, o: o, dim: o.Dim, sc: getScratch(), nextCheck: firstCheck}
	if p.Gen != nil {
		r.rules = nil
		r.lazy = &lazyRules{gen: p.Gen}
	}
	r.queue, r.head = r.sc.queue[:0], 0
	defer func() {
		r.sc.queue = r.queue
		putScratch(r.sc)
		r.tally.probes += r.a.takeProbes()
		r.tally.flushPost()
		if r.lazy != nil {
			p.Rules = r.rules
			p.Gen.Done(len(r.rules))
		}
	}()
	r.a.NormalizeWeights(r.dim)
	r.mids = map[[2]uint32]State{}

	// Seed the worklist with every initial transition.
	for s := 0; s < r.a.NumStates(); s++ {
		for i := range r.a.states[s].edges {
			r.enqueue(State(s), int32(i))
		}
	}
	r.epsInto = r.sc.epsIntoFor(r.a.NumStates())

	r.earlyOK = o.EarlyAccept && r.dim == 0 && o.FinalSpec != nil && len(o.FinalStates) > 0
	if r.earlyOK {
		r.specStarts = o.FinalSpec.EpsClosure(o.FinalSpec.Start())
		if acceptReachable(r.a, o.FinalStates, r.specStarts, o.FinalSpec, r.sc) {
			r.tally.earlyAccepts = 1
			return r.finish(true), nil
		}
	}
	for r.head < len(r.queue) {
		if res, err, done := r.beat(); done {
			return res, err
		}
		r.process(r.pop())
	}
	r.tally.pops = r.work
	return r.finish(false), nil
}

// beat is the per-pop cooperative checkpoint: budget accounting, the
// stop-channel poll and the early-accept probe at the doubling cadence.
// done=true means the run ends here with (res, err).
func (r *postRun) beat() (*Result, error, bool) {
	if r.work++; r.o.Budget > 0 && r.work > r.o.Budget {
		r.tally.pops = r.work
		budgetExhausted.Inc()
		return nil, ErrBudget, true
	}
	if r.work == r.nextCheck {
		if r.nextCheck < checkEvery {
			r.nextCheck *= 2
		} else {
			r.nextCheck += checkEvery
		}
		if r.o.Stop != nil {
			select {
			case <-r.o.Stop:
				r.tally.pops = r.work
				satStopped.Inc()
				return nil, ErrStopped, true
			default:
			}
		}
		if r.earlyOK && acceptReachable(r.a, r.o.FinalStates, r.specStarts, r.o.FinalSpec, r.sc) {
			r.tally.pops = r.work
			r.tally.earlyAccepts = 1
			return r.finish(true), nil, true
		}
	}
	return nil, nil, false
}

// pop removes the worklist head, compacting the backing array once the
// drained prefix dominates it (the old slice-off-the-front worklist
// retained and repeatedly recopied the whole array).
func (r *postRun) pop() edgeRef {
	ref := r.queue[r.head]
	r.head++
	if r.head == len(r.queue) {
		r.queue, r.head = r.queue[:0], 0
	} else if r.head >= 4096 && r.head*2 >= len(r.queue) {
		n := copy(r.queue, r.queue[r.head:])
		r.queue, r.head = r.queue[:n], 0
	}
	return ref
}

func (r *postRun) enqueue(from State, ei int32) {
	se := &r.a.states[from]
	if se.meta[ei].flags&fQueued == 0 {
		se.meta[ei].flags |= fQueued
		r.queue = append(r.queue, edgeRef{from, ei})
		r.tally.notePush(len(r.queue) - r.head)
	}
}

// push inserts (or improves) a transition and, on change, materialises
// its witness record and puts the edge on the worklist. Deferring the
// record to after the insert decision is the main allocation win: most
// derivations re-derive an existing transition.
func (r *postRun) push(t Trans, w []uint64, kind WitKind, rule int32, predSym Sym, p1, p2 *Witness) {
	i, changed := r.a.upsert(t, w)
	if !changed {
		return
	}
	r.tally.inserted++
	r.a.states[t.From].edges[i].Wit = r.wits.new(Witness{
		Kind: kind, Rule: rule, T: t, PredSym: predSym, Pred1: p1, Pred2: p2, Weight: w,
	})
	r.enqueue(t.From, i)
}

func (r *postRun) one() []uint64 {
	if r.dim == 0 {
		return nil
	}
	return r.wts.zero(r.dim)
}

func (r *postRun) midOf(s State, g Sym) State {
	k := [2]uint32{uint32(s), uint32(g)}
	if m, ok := r.mids[k]; ok {
		return m
	}
	m := r.a.AddState()
	r.mids[k] = m
	return m
}

func (r *postRun) epsAppend(to, src State) {
	for int(to) >= len(r.epsInto) {
		r.epsInto = append(r.epsInto, nil)
	}
	r.epsInto[to] = append(r.epsInto[to], src)
}

func (r *postRun) epsOf(s State) []State {
	if int(s) < len(r.epsInto) {
		return r.epsInto[s]
	}
	return nil
}

// apply fires one PDS rule on transition t given its current weight and
// witness record.
func (r *postRun) apply(ri int32, t Trans, w []uint64, rec *Witness) {
	rl := &r.rules[ri]
	nw := r.wts.add(w, ruleWeight(rl, r.dim))
	switch rl.Kind {
	case PopRule:
		r.push(Trans{rl.ToState, Eps, t.To}, nw, WitRule, ri, rl.FromSym, rec, nil)
	case SwapRule:
		r.push(Trans{rl.ToState, rl.Sym1, t.To}, nw, WitRule, ri, rl.FromSym, rec, nil)
	case PushRule:
		mid := r.midOf(rl.ToState, rl.Sym1)
		r.push(Trans{rl.ToState, rl.Sym1, mid}, r.one(), WitRule, ri, rl.FromSym, rec, nil)
		r.push(Trans{mid, rl.Sym2, t.To}, nw, WitPushB, ri, rl.FromSym, rec, nil)
	}
}

// applyRules fires every PDS rule matching transition t (whose source is a
// control state).
func (r *postRun) applyRules(t Trans, w []uint64, rec *Witness) {
	if r.lazy != nil {
		r.applyLazy(t, w, rec)
		return
	}
	if set := r.a.SymSet(t.Sym); set != nil {
		rs := r.p.RulesFromState(t.From)
		r.tally.probes += int64(len(rs))
		for _, ri := range rs {
			if set.Has(nfa.Sym(r.p.Rules[ri].FromSym)) {
				r.apply(ri, t, w, rec)
			}
		}
	} else {
		rs := r.p.RulesFrom(t.From, t.Sym)
		r.tally.probes += int64(len(rs))
		for _, ri := range rs {
			r.apply(ri, t, w, rec)
		}
	}
}

// process is the pop body: it combines the popped transition with the
// ε-transitions around it and fires the PDS rules it matches.
func (r *postRun) process(ref edgeRef) {
	a := r.a
	se := &a.states[ref.from]
	se.meta[ref.ei].flags &^= fQueued
	e := &se.edges[ref.ei]
	t := Trans{ref.from, e.Sym, e.To}
	w, rec := e.Weight, e.Wit

	if t.Sym == Eps {
		// Register and combine with everything currently leaving t.To.
		if se.meta[ref.ei].flags&fEpsReg == 0 {
			se.meta[ref.ei].flags |= fEpsReg
			r.epsAppend(t.To, t.From)
		}
		out := a.states[t.To].edges
		for i := range out {
			e2 := &out[i]
			if e2.Sym == Eps {
				continue // ε-targets are never ε-sources
			}
			nw := r.wts.add(w, e2.Weight)
			r.push(Trans{t.From, e2.Sym, e2.To}, nw, WitCombine, -1, 0, rec, e2.Wit)
		}
		return
	}

	// Combine ε-transitions into t.From with t (the symmetric case;
	// only mid states ever gain new outgoing transitions).
	for _, src := range r.epsOf(t.From) {
		et, ok2 := a.Get(Trans{src, Eps, t.From})
		if !ok2 {
			continue
		}
		nw := r.wts.add(et.Weight, w)
		r.push(Trans{src, t.Sym, t.To}, nw, WitCombine, -1, 0, et.Wit, rec)
	}

	if !r.control(t.From) {
		return // no rules apply to non-control sources
	}
	r.applyRules(t, w, rec)
}

func (r *postRun) finish(early bool) *Result {
	p := r.p
	if r.lazy != nil {
		// The result keeps this run's rules even if p is saturated again.
		p = &PDS{NumStates: p.NumStates, NumSyms: p.NumSyms, Rules: r.rules}
	}
	res := &Result{PDS: p, Auto: r.a, Dim: r.dim, Mids: map[State][2]uint32{}, EarlyAccepted: early}
	for k, v := range r.mids {
		res.Mids[v] = k
	}
	return res
}

func ruleWeight(r *Rule, dim int) []uint64 {
	if dim == 0 {
		return nil
	}
	return r.Weight
}

// Accepted is a configuration found by FindAccepting, with the automaton
// path that accepts it and the total path weight. Config.Stack holds the
// concrete symbols chosen along the path (virtual set edges are resolved to
// one member).
type Accepted struct {
	Config Config
	Path   []Trans
	Syms   []Sym // concrete symbol per path transition
	Weight []uint64
}

// FindAccepting searches the saturated automaton for a configuration
// ⟨p, w⟩ such that p ∈ starts, the automaton accepts w from p, and w is
// accepted by spec (an epsilon-free NFA over the concrete stack alphabet).
// Among all such configurations it returns one minimising the total
// transition weight (lexicographically, then by stack length); ok is false
// when none exists.
func (r *Result) FindAccepting(starts []State, spec *nfa.NFA) (Accepted, bool) {
	type back struct {
		from accNode
		t    Trans
		sym  Sym
	}
	dist := map[accNode][]uint64{}
	prev := map[accNode]back{}
	hopCount := map[accNode]int{}
	pq := &accHeap{}
	for _, p := range starts {
		for _, ns := range spec.EpsClosure(spec.Start()) {
			nd := accNode{p, ns}
			if _, ok := dist[nd]; !ok {
				zero := make([]uint64, r.Dim)
				dist[nd] = zero
				hopCount[nd] = 0
				heap.Push(pq, accItem{s: nd.s, n: nd.n, w: zero})
			}
		}
	}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(accItem)
		nd := accNode{it.s, it.n}
		if d, ok := dist[nd]; ok && (lexLess(d, it.w) || (equalVec(d, it.w) && hopCount[nd] < it.hops)) {
			continue // stale queue entry superseded by a better one
		}
		if r.Auto.Accepting(nd.s) && spec.Accepting(nd.n) {
			var path []Trans
			var syms []Sym
			cur := nd
			for {
				b, ok := prev[cur]
				if !ok {
					break
				}
				path = append(path, b.t)
				syms = append(syms, b.sym)
				cur = b.from
			}
			return accepted(cur.s, path, syms, it.w), true
		}
		r.productSteps(nd, spec, func(e Edge, nn accNode, csym Sym) {
			nw := lexAdd(it.w, e.Weight)
			nh := it.hops + 1
			old, seen := dist[nn]
			if !seen || lexLess(nw, old) || (equalVec(nw, old) && nh < hopCount[nn]) {
				dist[nn] = nw
				hopCount[nn] = nh
				prev[nn] = back{nd, Trans{nd.s, e.Sym, e.To}, csym}
				heap.Push(pq, accItem{s: nn.s, n: nn.n, w: nw, hops: nh})
			}
		})
	}
	return Accepted{}, false
}

// FindAcceptingN returns up to n accepting configurations for starts and
// spec, cheapest first in FindAccepting's order (weight, then stack
// length). They are read off the n cheapest accepting paths through the
// product of automaton and spec, which visit each product node at most n
// times; a configuration accepted along several paths can repeat.
func (r *Result) FindAcceptingN(starts []State, spec *nfa.NFA, n int) []Accepted {
	type step struct {
		prev int // index of the previous step, -1 at a start node
		t    Trans
		sym  Sym
	}
	var steps []step
	visits := map[accNode]int{}
	pq := &accHeap{}
	for _, p := range starts {
		for _, ns := range spec.EpsClosure(spec.Start()) {
			heap.Push(pq, accItem{s: p, n: ns, w: make([]uint64, r.Dim), step: -1})
		}
	}
	var out []Accepted
	for pq.Len() > 0 && len(out) < n {
		it := heap.Pop(pq).(accItem)
		nd := accNode{it.s, it.n}
		if visits[nd] == n {
			continue
		}
		visits[nd]++
		if r.Auto.Accepting(nd.s) && spec.Accepting(nd.n) {
			var path []Trans
			var syms []Sym
			start := nd.s
			for i := it.step; i >= 0; i = steps[i].prev {
				path = append(path, steps[i].t)
				syms = append(syms, steps[i].sym)
				start = steps[i].t.From
			}
			out = append(out, accepted(start, path, syms, it.w))
			continue
		}
		r.productSteps(nd, spec, func(e Edge, nn accNode, csym Sym) {
			steps = append(steps, step{it.step, Trans{nd.s, e.Sym, e.To}, csym})
			heap.Push(pq, accItem{s: nn.s, n: nn.n, w: lexAdd(it.w, e.Weight), hops: it.hops + 1, step: len(steps) - 1})
		})
	}
	return out
}

// accNode is a node of the product of the saturated automaton and a stack
// specification: an automaton state and a spec state.
type accNode struct {
	s State
	n int
}

// productSteps calls f for every step out of nd in the product of the
// automaton and spec: an automaton edge, the node it leads to and the
// concrete symbol both read. ε-edges are skipped, and a virtual set edge
// reads the first symbol the spec arc admits.
func (r *Result) productSteps(nd accNode, spec *nfa.NFA, f func(e Edge, nn accNode, csym Sym)) {
	for _, e := range r.Auto.Out(nd.s) {
		if e.Sym == Eps {
			continue
		}
		for _, arc := range spec.Arcs(nd.n) {
			csym := e.Sym
			if set := r.Auto.SymSet(e.Sym); set != nil {
				first, ok := arc.Set.Inter(set).First()
				if !ok {
					continue
				}
				csym = Sym(first)
			} else if !arc.Set.Has(nfa.Sym(e.Sym)) {
				continue
			}
			f(e, accNode{e.To, arc.To}, csym)
		}
	}
}

// accepted assembles a configuration from the path that accepts it, given
// in reverse (end to start) as a backward walk collects it; start is the
// path's first state.
func accepted(start State, path []Trans, syms []Sym, w []uint64) Accepted {
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
		syms[i], syms[j] = syms[j], syms[i]
	}
	stack := make([]Sym, len(syms))
	copy(stack, syms)
	return Accepted{
		Config: Config{State: start, Stack: stack},
		Path:   path,
		Syms:   syms,
		Weight: w,
	}
}

func equalVec(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type accItem struct {
	s    State
	n    int
	w    []uint64
	hops int
	step int // FindAcceptingN's index of the step that reached s
}

type accHeap []accItem

func (h accHeap) Len() int { return len(h) }
func (h accHeap) Less(i, j int) bool {
	if !equalVec(h[i].w, h[j].w) {
		return lexLess(h[i].w, h[j].w)
	}
	return h[i].hops < h[j].hops
}
func (h accHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *accHeap) Push(x interface{}) { *h = append(*h, x.(accItem)) }
func (h *accHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Reconstruct unapplies witness records along an accepting path of the
// post* automaton, returning the initial configuration the derivation
// started from and the rule indices in application order. The path and
// concrete symbol choices come from FindAccepting.
func (r *Result) Reconstruct(acc Accepted) (Config, []int32, error) {
	if len(acc.Path) == 0 {
		return Config{}, nil, errors.New("pds: empty accepting path")
	}
	type entry struct {
		rec *Witness
		sym Sym // concrete symbol resolved for this transition
	}
	recs := make([]entry, len(acc.Path))
	for i, t := range acc.Path {
		e, ok := r.Auto.Get(t)
		if !ok {
			return Config{}, nil, fmt.Errorf("pds: path transition %v not in automaton", t)
		}
		recs[i] = entry{e.Wit, acc.Syms[i]}
	}
	var reversed []int32
	guard := 0
	for recs[0].rec.Kind != WitInitial {
		if guard++; guard > 50_000_000 {
			return Config{}, nil, errors.New("pds: witness reconstruction did not terminate")
		}
		head := recs[0].rec
		switch head.Kind {
		case WitRule:
			rule := r.PDS.Rules[head.Rule]
			switch rule.Kind {
			case SwapRule:
				reversed = append(reversed, head.Rule)
				recs[0] = entry{head.Pred1, head.PredSym}
			case PushRule:
				if len(recs) < 2 {
					return Config{}, nil, errors.New("pds: push-A record without a following transition")
				}
				b := recs[1].rec
				if b.Kind != WitPushB {
					return Config{}, nil, fmt.Errorf("pds: expected push-B record after mid state, got kind %d", b.Kind)
				}
				reversed = append(reversed, b.Rule)
				nrecs := make([]entry, 0, len(recs)-1)
				nrecs = append(nrecs, entry{b.Pred1, b.PredSym})
				nrecs = append(nrecs, recs[2:]...)
				recs = nrecs
			default:
				return Config{}, nil, errors.New("pds: pop-derived transition in a non-epsilon path")
			}
		case WitCombine:
			epsRec := head.Pred1
			if epsRec.Kind != WitRule || r.PDS.Rules[epsRec.Rule].Kind != PopRule {
				return Config{}, nil, errors.New("pds: combine record without pop-rule epsilon predecessor")
			}
			reversed = append(reversed, epsRec.Rule)
			nrecs := make([]entry, 0, len(recs)+1)
			nrecs = append(nrecs, entry{epsRec.Pred1, epsRec.PredSym}, entry{head.Pred2, recs[0].sym})
			nrecs = append(nrecs, recs[1:]...)
			recs = nrecs
		case WitPushB:
			return Config{}, nil, errors.New("pds: push-B record at path head")
		default:
			return Config{}, nil, fmt.Errorf("pds: unknown witness kind %d", head.Kind)
		}
	}
	// All remaining records must be initial; they spell the start config.
	stack := make([]Sym, len(recs))
	for i, en := range recs {
		if en.rec.Kind != WitInitial {
			return Config{}, nil, fmt.Errorf("pds: record %d not initial after head reached initial", i)
		}
		stack[i] = en.sym
	}
	rules := make([]int32, len(reversed))
	for i, x := range reversed {
		rules[len(reversed)-1-i] = x
	}
	return Config{State: recs[0].rec.T.From, Stack: stack}, rules, nil
}

// Replay applies a rule sequence to a configuration, returning every
// intermediate configuration (len(rules)+1 entries). It fails if a rule's
// head does not match, which indicates a reconstruction bug.
func (r *Result) Replay(init Config, rules []int32) ([]Config, error) {
	configs := make([]Config, 0, len(rules)+1)
	cur := init
	configs = append(configs, cur)
	for _, ri := range rules {
		next, ok := cur.Step(r.PDS.Rules[ri])
		if !ok {
			return nil, fmt.Errorf("pds: rule %v does not apply to %v", r.PDS.Rules[ri], cur)
		}
		cur = next
		configs = append(configs, cur)
	}
	return configs, nil
}
