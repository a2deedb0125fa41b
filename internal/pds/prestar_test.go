package pds

// prestar computes pre*(L(target)): the returned automaton accepts exactly
// the configurations from which some configuration accepted by target is
// reachable. It is the worklist formulation of Schwoon's Algorithm 1,
// unweighted and without witnesses, and mutates target in place. The
// tests use it as post*'s duality oracle: post*(I) ∩ F ≠ ∅ ⇔
// I ∩ pre*(F) ≠ ∅. It needs an eager PDS.
func prestar(p *PDS, target *Auto) *Auto {
	a := target
	var queue []Trans
	add := func(t Trans) {
		if i, changed := a.upsert(t, nil); changed {
			a.st(t.From).edges[i].Wit = a.wits.new(Witness{Kind: WitInitial, Rule: -1, T: t})
			queue = append(queue, t)
		}
	}

	// Seed: existing transitions plus one step for every pop rule
	// ⟨p,γ⟩ ↪ ⟨p′,ε⟩, which lets ⟨p, γw⟩ reach ⟨p′, w⟩ for any w.
	for s := State(0); int(s) < a.NumStates(); s++ {
		for _, e := range a.Out(s) {
			queue = append(queue, Trans{s, e.Sym, e.To})
		}
	}
	for _, r := range p.Rules {
		if r.Kind == PopRule {
			add(Trans{r.FromState, r.FromSym, r.ToState})
		}
	}

	// Index swap and push rules by the state of their right-hand side.
	swapByRHS := make([][]*Rule, p.NumStates)
	pushByRHS := make([][]*Rule, p.NumStates)
	for i := range p.Rules {
		r := &p.Rules[i]
		switch r.Kind {
		case SwapRule:
			swapByRHS[r.ToState] = append(swapByRHS[r.ToState], r)
		case PushRule:
			pushByRHS[r.ToState] = append(pushByRHS[r.ToState], r)
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
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		// Swap and push rules whose RHS head ⟨t.From, γ′⟩ matches t.
		if int(t.From) < p.NumStates {
			for _, r := range swapByRHS[t.From] {
				if a.Matches(t.Sym, r.Sym1) {
					add(Trans{r.FromState, r.FromSym, t.To})
				}
			}
			for _, r := range pushByRHS[t.From] {
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
	return a
}
