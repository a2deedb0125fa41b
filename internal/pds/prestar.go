package pds

// Prestar computes pre*(L(target)): the returned automaton accepts exactly
// the configurations from which some configuration accepted by target is
// reachable. The target automaton is mutated in place (it must not be
// reused afterwards). The implementation is the worklist formulation of
// Schwoon's Algorithm 1; it is unweighted and does not track witnesses —
// the engine uses PoststarOpts for witness generation, and tests and
// benchmarks use Prestar for cross-validation (post*(I) ∩ F ≠ ∅ ⇔
// I ∩ pre*(F) ≠ ∅).
//
// The worklist is drained with a head index over a shared pooled buffer:
// the old `queue = queue[1:]` form shrank the slice's capacity with every
// pop, so appends re-allocated and re-copied the backing array repeatedly
// over a run. Membership tracking lives in the per-edge fQueued flag; the
// old inQueue map is gone (pre* inserts are pure novelty checks, so an
// edge never re-enters the worklist anyway).
func Prestar(p *PDS, target *Auto) *Result {
	if p.Gen != nil {
		panic("pds: Prestar needs an eager PDS")
	}
	a := target
	var tally satTally
	sc := getScratch()
	queue, head := sc.queue[:0], 0
	defer func() {
		sc.queue = queue
		putScratch(sc)
		tally.probes += a.takeProbes()
		tally.flushPre()
	}()

	add := func(t Trans) {
		i, changed := a.upsert(t, nil)
		if !changed {
			return
		}
		tally.inserted++
		se := &a.states[t.From]
		se.edges[i].Wit = a.wits.new(Witness{Kind: WitInitial, Rule: -1, T: t})
		se.meta[i].flags |= fQueued
		queue = append(queue, edgeRef{t.From, i})
		tally.notePush(len(queue) - head)
	}

	// Seed: existing transitions plus one step for every pop rule
	// ⟨p,γ⟩ ↪ ⟨p′,ε⟩, which lets ⟨p, γw⟩ reach ⟨p′, w⟩ for any w.
	for s := 0; s < a.NumStates(); s++ {
		se := &a.states[s]
		for i := range se.edges {
			se.meta[i].flags |= fQueued
			queue = append(queue, edgeRef{State(s), int32(i)})
			tally.notePush(len(queue) - head)
		}
	}
	for i := range p.Rules {
		if p.Rules[i].Kind == PopRule {
			add(Trans{p.Rules[i].FromState, p.Rules[i].FromSym, p.Rules[i].ToState})
		}
	}

	// Index swap and push rules by the state of their right-hand side.
	swapByRHS := make([][]int32, p.NumStates)
	pushByRHS := make([][]int32, p.NumStates)
	for i := range p.Rules {
		r := &p.Rules[i]
		switch r.Kind {
		case SwapRule:
			swapByRHS[r.ToState] = append(swapByRHS[r.ToState], int32(i))
		case PushRule:
			pushByRHS[r.ToState] = append(pushByRHS[r.ToState], int32(i))
		}
	}

	// Residual rules for push rules: once ⟨p1,γ1⟩ ↪ ⟨q,γ′γ2⟩ can consume γ′
	// into state q′, the residual ⟨p1,γ1⟩ ↪ ⟨q′,γ2⟩ applies. pre* adds no
	// automaton states, so the table is indexed by state directly.
	type dprime struct {
		from State
		sym  Sym
		sym2 Sym
	}
	dprimeBy := make([][]dprime, a.NumStates())

	var matchBuf []State
	for head < len(queue) {
		tally.pops++
		ref := queue[head]
		head++
		if head == len(queue) {
			queue, head = queue[:0], 0
		} else if head >= 4096 && head*2 >= len(queue) {
			n := copy(queue, queue[head:])
			queue, head = queue[:n], 0
		}
		se := &a.states[ref.from]
		se.meta[ref.ei].flags &^= fQueued
		t := Trans{ref.from, se.edges[ref.ei].Sym, se.edges[ref.ei].To}

		// Swap rules whose RHS head ⟨t.From, γ′⟩ matches this transition.
		if int(t.From) < p.NumStates {
			for _, ri := range swapByRHS[t.From] {
				r := &p.Rules[ri]
				if a.Matches(t.Sym, r.Sym1) {
					add(Trans{r.FromState, r.FromSym, t.To})
				}
			}
			for _, ri := range pushByRHS[t.From] {
				r := &p.Rules[ri]
				if !a.Matches(t.Sym, r.Sym1) {
					continue
				}
				dprimeBy[t.To] = append(dprimeBy[t.To], dprime{r.FromState, r.FromSym, r.Sym2})
				matchBuf = a.appendMatches(matchBuf[:0], t.To, r.Sym2)
				for _, to := range matchBuf {
					add(Trans{r.FromState, r.FromSym, to})
				}
			}
		}
		// Residual rules registered for t.From fire on this transition.
		for _, d := range dprimeBy[t.From] {
			if a.Matches(t.Sym, d.sym2) {
				add(Trans{d.from, d.sym, t.To})
			}
		}
	}
	return &Result{PDS: p, Auto: a, Dim: 0}
}
