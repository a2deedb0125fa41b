package translate

import (
	"aalwines/internal/routing"
	"aalwines/internal/topology"
	"aalwines/internal/weight"
)

// builder drives the rule generator over the whole routing table: the
// eager product, which Build returns when Slice is off, sessions assemble
// incrementally, and the Moped baseline and reduction ablation run on.
type builder struct {
	*System
	em chainEmitter

	// Incremental-build hooks (nil for a plain Build): store caches
	// relocatable per-key rule blocks, stats tallies reuse.
	store *BlockStore
	stats BuildStats
}

func (b *builder) construct() {
	b.em = chainEmitter{lt: b.Net.Labels, newState: b.PDS.AddState}
	// The product emits at least one PDS rule per routing entry (usually
	// a few); reserving the known lower bound up front skips the early
	// append-doubling generations, which at >250k rules are the single
	// largest allocation source of a build.
	b.PDS.ReserveRules(b.Net.Routing.NumRules())
	b.buildRules()
	b.RulesBeforeReduction = len(b.PDS.Rules)
	if !b.Opts.NoReductions {
		b.reduce()
	}
	mRulesEmitted.Add(int64(b.RulesBeforeReduction))
	mRulesKept.Add(int64(len(b.PDS.Rules)))
	// Systems are shared read-only across concurrent saturations; freezing
	// builds the rule indexes eagerly so no reader mutates the PDS.
	b.PDS.Freeze()
}

func (b *builder) buildRules() {
	// Range walks the table's cached flat view: no per-build key-slice
	// allocation and sort, no per-key map lookup — at paper scale the
	// Keys-then-Lookup pattern alone costs hundreds of milliseconds per
	// query. Iteration order is identical to Keys, so emission order (and
	// with it every saturation counter) is unchanged.
	b.Net.Routing.Range(func(key routing.Key, gs routing.Groups) bool {
		if b.store == nil {
			b.buildKeyGroups(key, gs)
		} else if blk := b.store.get(key, gs); blk != nil {
			b.splice(blk)
			b.stats.BlocksReused++
		} else {
			b.store.put(key, b.record(key, gs))
			b.stats.BlocksRebuilt++
		}
		return true
	})
}

// buildKeyGroups emits all rules of one routing-table key: group by group,
// entry by entry, each across every path-NFA state.
func (b *builder) buildKeyGroups(key routing.Key, gs routing.Groups) {
	k := b.Query.MaxFailures
	b.em.out = b.PDS.Rules
	init := topStack(b.Net.Labels, key.Top) // chains never modify their input stack
	for j := range gs {
		nFail := len(gs.PrefixLinks(j))
		if nFail > k {
			break // prefixes only grow with j
		}
		for _, entry := range gs[j].Entries {
			b.buildEntry(key.In, init, entry, j, nFail)
		}
	}
	b.PDS.Rules = b.em.out
}

// buildEntry emits rule chains for one routing entry across all path-NFA
// transitions and failure budgets, starting from the key's stack init.
func (b *builder) buildEntry(in topology.LinkID, init symStack, entry routing.Entry, group, nFail int) {
	w := b.PDS.Weights.Add(b.stepWeight(entry, nFail))
	tag := int32(len(b.Steps))
	used := false
	for qb := 0; qb < b.numB; qb++ {
		for _, q2 := range b.targets(qb, entry.Out) {
			for f := 0; f < b.kBudget; f++ {
				f2, ok := b.nextBudget(f, nFail)
				if !ok {
					continue
				}
				from := b.stateOf(in, qb, f)
				to := b.stateOf(entry.Out, int(q2), f2)
				if b.em.emit(from, init, entry.Ops, to, tag, w) {
					used = true
				}
			}
		}
	}
	if used {
		b.Steps = append(b.Steps, StepInfo{Out: entry.Out, Group: group})
	}
}

// stepWeight is the weight vector of forwarding by entry after nFail
// failures, or nil when the system is unweighted.
func (s *System) stepWeight(entry routing.Entry, nFail int) []uint64 {
	if s.Opts.Spec == nil {
		return nil
	}
	atoms := weight.StepAtoms(s.Net.Topo, entry.Out, s.Opts.Dist, nFail, entry.Ops.StackGrowth())
	return s.Opts.Spec.Eval(atoms)
}

// nextBudget returns the failure level after a step that needs nFail
// failures from level f, and false when it exceeds the budget. The
// over-approximation keeps a single level.
func (s *System) nextBudget(f, nFail int) (int, bool) {
	if s.Opts.Mode != Under {
		return f, true
	}
	f2 := f + nFail
	return f2, f2 < s.kBudget
}
