package pds

import "aalwines/internal/obs"

// Saturation counters. The worklist metrics carry the label
// alg="poststar", the one saturation direction the engine runs (once per
// approximation); DESIGN.md ("Observability") documents what each counter
// means. The hot loops tally into stack-local variables and flush exactly
// once per saturation run — on success and on every error path — so the
// per-pop overhead is zero atomics.
var (
	postRuns     = obs.GetCounter(`pds_saturation_runs_total{alg="poststar"}`)
	postPops     = obs.GetCounter(`pds_worklist_pops_total{alg="poststar"}`)
	postPushes   = obs.GetCounter(`pds_worklist_pushes_total{alg="poststar"}`)
	postInserted = obs.GetCounter(`pds_trans_inserted_total{alg="poststar"}`)
	postPeak     = obs.GetGauge(`pds_worklist_peak_depth{alg="poststar"}`)

	budgetSpent     = obs.GetCounter("pds_budget_spent_total")
	budgetExhausted = obs.GetCounter("pds_budget_exhausted_total")
	satStopped      = obs.GetCounter("pds_saturation_stopped_total")

	// earlyAccepts counts post* runs that stopped before the fixed point
	// because the early-accept check found an accepting configuration.
	postEarlyAccepts = obs.GetCounter("pds_early_accept_total")
	// indexProbes counts candidate edges (or rules) consulted through the
	// per-state symbol indexes — the denominator for how much work the
	// indexed adjacency saves over full out-list scans.
	postProbes = obs.GetCounter(`pds_index_probes_total{alg="poststar"}`)
	// Scratch-pool effectiveness: a hit reuses a previous run's worklist
	// buffers, a miss allocates fresh ones.
	poolHits   = obs.GetCounter("pds_pool_hits_total")
	poolMisses = obs.GetCounter("pds_pool_misses_total")
)

// satTally accumulates one saturation run's counters locally; flush adds
// them to the process-wide registry in one shot.
type satTally struct {
	pops, pushes, inserted, peak int64
	probes, earlyAccepts         int64
}

func (t *satTally) notePush(depth int) {
	t.pushes++
	if d := int64(depth); d > t.peak {
		t.peak = d
	}
}

func (t *satTally) flush() {
	postRuns.Inc()
	postPops.Add(t.pops)
	postPushes.Add(t.pushes)
	postInserted.Add(t.inserted)
	postPeak.SetMax(t.peak)
	postProbes.Add(t.probes)
	postEarlyAccepts.Add(t.earlyAccepts)
	budgetSpent.Add(t.pops)
}
