package translate

import (
	"aalwines/internal/routing"
	"aalwines/internal/topology"
)

// builder drives emitKey over the whole routing table: the eager product,
// which Build returns when Slice is off, sessions assemble incrementally,
// and the Moped baseline and reduction ablation run on.
type builder struct {
	*System

	// Incremental-build hooks (nil for a plain Build): store caches
	// relocatable per-key rule blocks, stats tallies reuse.
	store *BlockStore
	stats BuildStats
}

func (b *builder) construct() {
	// The product emits at least one PDS rule per routing entry (usually
	// a few); reserving the known lower bound up front skips the early
	// append-doubling generations, which at >250k rules are the single
	// largest allocation source of a build. An incremental build reserves
	// what the store's previous build emitted, if that is more.
	n := b.Net.Routing.NumRules()
	if b.store != nil {
		n = max(n, b.store.rules)
	}
	b.PDS.ReserveRules(n)
	b.buildRules()
	b.RulesBeforeReduction = len(b.PDS.Rules)
	if b.store != nil {
		b.store.rules = b.RulesBeforeReduction
	}
	if !b.Opts.NoReductions {
		b.reduce()
	}
	mRulesEmitted.Add(int64(b.RulesBeforeReduction))
	mRulesKept.Add(int64(len(b.PDS.Rules)))
	// Systems are shared read-only across concurrent saturations; freezing
	// builds the rule indexes eagerly so no reader mutates the PDS.
	b.PDS.Freeze()
}

// buildRules walks the routing table's sorted view link by link, in key
// order, and emits or splices every key's rules.
func (b *builder) buildRules() {
	for in := 0; in < b.Net.Topo.NumLinks(); in++ {
		keys, groups, first := b.Net.Routing.In(topology.LinkID(in))
		for i, key := range keys {
			if b.store == nil {
				b.emitAll(key, groups[i], first[i])
			} else if blk := b.store.get(key, groups[i]); blk != nil {
				b.splice(blk, first[i])
				b.stats.BlocksReused++
			} else {
				b.store.put(key, b.record(key, groups[i], first[i]))
				b.stats.BlocksRebuilt++
			}
		}
	}
}

// emitAll appends one key's rules from every control state of its link.
func (b *builder) emitAll(key routing.Key, gs routing.Groups, first int32) {
	b.PDS.Rules = b.emitKey(b.PDS.Rules, &b.PDS.Weights, b.PDS.AddState,
		key, gs, first, 0, b.numB, 0, b.kBudget)
}
