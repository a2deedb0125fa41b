// Package moped provides the baseline saturation backend standing in for
// the Moped pushdown model checker used in the paper's evaluation (§4.1,
// Table 1). The real Moped is a closed-source C tool; this package plays
// its role at the same interface boundary: an unweighted post* reachability
// engine that is algorithmically correct but deliberately *textbook* —
// string-keyed maps instead of packed indices, per-pop linear scans over
// the rule list instead of head-indexed lookup, and no weight support. The
// performance gap between this backend and the optimised engine in
// internal/pds reproduces the Moped-vs-Dual comparison.
package moped

import (
	"fmt"

	"aalwines/internal/nfa"
	"aalwines/internal/pds"
)

// Poststar is a drop-in replacement for pds.PoststarOpts with only Dim and
// Budget set, restricted to the unweighted case (dim must be 0; the weighted engine has no Moped
// analogue, which is the point of the paper's comparison) and to an eager
// PDS: like the real tool, it reads the whole rule list up front.
func Poststar(p *pds.PDS, init *pds.Auto, dim int, budget int64) (*pds.Result, error) {
	if dim != 0 {
		return nil, fmt.Errorf("moped: weighted pushdown systems are not supported (dim=%d)", dim)
	}
	if p.Gen != nil {
		return nil, fmt.Errorf("moped: on-the-fly pushdown systems are not supported")
	}
	if err := init.Validate(); err != nil {
		return nil, err
	}
	a := init

	// String-keyed transition bookkeeping, as a straightforward port of the
	// published pseudocode would do it.
	key := func(t pds.Trans) string { return fmt.Sprintf("%d|%d|%d", t.From, t.Sym, t.To) }
	inQueue := map[string]bool{}
	var queue []pds.Trans
	push := func(t pds.Trans, wit *pds.Witness) {
		if a.Insert(t, wit) {
			k := key(t)
			if !inQueue[k] {
				inQueue[k] = true
				queue = append(queue, t)
			}
		}
	}
	for s := 0; s < a.NumStates(); s++ {
		for _, e := range a.Out(pds.State(s)) {
			t := pds.Trans{From: pds.State(s), Sym: e.Sym, To: e.To}
			k := key(t)
			if !inQueue[k] {
				inQueue[k] = true
				queue = append(queue, t)
			}
		}
	}

	midNames := map[string]pds.State{}
	midOf := func(s pds.State, g pds.Sym) pds.State {
		k := fmt.Sprintf("%d@%d", s, g)
		if m, ok := midNames[k]; ok {
			return m
		}
		m := a.AddState()
		midNames[k] = m
		return m
	}

	epsInto := map[pds.State][]pds.State{}
	epsSeen := map[string]bool{}

	var work int64
	for len(queue) > 0 {
		if work++; budget > 0 && work > budget {
			return nil, pds.ErrBudget
		}
		t := queue[0]
		queue = queue[1:]
		inQueue[key(t)] = false
		e, ok := a.Get(t)
		if !ok {
			continue
		}
		rec := e.Wit

		if t.Sym == pds.Eps {
			if !epsSeen[key(t)] {
				epsSeen[key(t)] = true
				epsInto[t.To] = append(epsInto[t.To], t.From)
			}
			for _, e2 := range a.Out(t.To) {
				if e2.Sym == pds.Eps {
					continue
				}
				nt := pds.Trans{From: t.From, Sym: e2.Sym, To: e2.To}
				push(nt, &pds.Witness{Kind: pds.WitCombine, Rule: -1, T: nt, Pred1: rec, Pred2: e2.Wit})
			}
			continue
		}
		for _, src := range epsInto[t.From] {
			et, ok2 := a.Get(pds.Trans{From: src, Sym: pds.Eps, To: t.From})
			if !ok2 {
				continue
			}
			nt := pds.Trans{From: src, Sym: t.Sym, To: t.To}
			push(nt, &pds.Witness{Kind: pds.WitCombine, Rule: -1, T: nt, Pred1: et.Wit, Pred2: e.Wit})
		}
		if int(t.From) >= p.NumStates {
			continue
		}
		// Deliberate baseline behaviour: scan the whole rule list for
		// matching heads rather than using an index.
		set := a.SymSet(t.Sym)
		for ri := range p.Rules {
			r := &p.Rules[ri]
			if r.FromState != t.From {
				continue
			}
			if set != nil {
				if !set.Has(nfa.Sym(r.FromSym)) {
					continue
				}
			} else if r.FromSym != t.Sym {
				continue
			}
			switch r.Kind {
			case pds.PopRule:
				nt := pds.Trans{From: r.ToState, Sym: pds.Eps, To: t.To}
				push(nt, &pds.Witness{Kind: pds.WitRule, Rule: int32(ri), T: nt, PredSym: r.FromSym, Pred1: rec})
			case pds.SwapRule:
				nt := pds.Trans{From: r.ToState, Sym: r.Sym1, To: t.To}
				push(nt, &pds.Witness{Kind: pds.WitRule, Rule: int32(ri), T: nt, PredSym: r.FromSym, Pred1: rec})
			case pds.PushRule:
				mid := midOf(r.ToState, r.Sym1)
				ta := pds.Trans{From: r.ToState, Sym: r.Sym1, To: mid}
				push(ta, &pds.Witness{Kind: pds.WitRule, Rule: int32(ri), T: ta, PredSym: r.FromSym, Pred1: rec})
				tb := pds.Trans{From: mid, Sym: r.Sym2, To: t.To}
				push(tb, &pds.Witness{Kind: pds.WitPushB, Rule: int32(ri), T: tb, PredSym: r.FromSym, Pred1: rec})
			}
		}
	}
	return &pds.Result{PDS: p, Auto: a, Dim: 0}, nil
}
