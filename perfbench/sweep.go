package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"aalwines/internal/batch"
	"aalwines/internal/engine"
	"aalwines/internal/gen"
	"aalwines/internal/network"
	"aalwines/internal/query"
	"aalwines/internal/scenario"
	"aalwines/internal/sweep"
)

const (
	sweepRouters = 18
	sweepBudget  = 50_000_000
	// sweepGens is how many times set-up generates the network; setup_s is
	// the median.
	sweepGens = 51
	// sweepSpot is how many cells per run are re-verified from scratch on
	// a freshly materialized network after the measured phase.
	sweepSpot = 24
)

// sweepInvariants picks one reachability and one tunnel-reachability
// query with failure bound 1.
func sweepInvariants(syn *gen.Synth, seed int64) []string {
	return pickQueries(syn, seed, 1, gen.QReach, gen.QTunnelReach)
}

func sweepConfig(invariants []string) sweep.Config {
	return sweep.Config{
		Depth:      2,
		Invariants: invariants,
		Workers:    1,
		Engine:     engine.Options{Budget: sweepBudget},
	}
}

// runSweep is the sweep-d2 workload: every single and double link failure
// of a protected 18-router zoo network against two invariants, one worker.
// Each cell is one op.
func runSweep(cfg config) (*run, error) {
	var syn *gen.Synth
	var gens []float64
	for i := 0; i < sweepGens; i++ {
		t0 := time.Now()
		syn = gen.Zoo(gen.ZooOpts{Routers: sweepRouters, Protection: true, Seed: 1})
		gens = append(gens, time.Since(t0).Seconds())
	}
	net := syn.Net
	invs := sweepInvariants(syn, cfg.seed)
	if len(invs) != 2 {
		return nil, fmt.Errorf("sweep-d2: seed %d yields %d invariants, want 2", cfg.seed, len(invs))
	}
	r := &run{}
	r.note("network: zoo-%d protected, %d links, %d rules; invariants %q", sweepRouters, net.Topo.NumLinks(), net.Routing.NumRules(), invs)
	chk := &sweepChecker{net: net, invariants: invs, seed: cfg.seed}
	if cfg.trace {
		return traceSweep(cfg, r, net, chk)
	}

	var lat, steps []float64
	var busy time.Duration
	var alloc uint64
	var runErr error
	window(cfg.seconds, func() {
		if runErr != nil {
			return
		}
		var last time.Time
		scfg := sweepConfig(invs)
		nq := len(invs)
		seen := 0
		// OnCell runs on the sweep's worker right after each scenario's
		// batch: the gap between two scenarios' deliveries is one what-if
		// step — SetStack, block splicing and the cells' verification — the
		// sweep's analogue of a daemon write with its watch refresh.
		scfg.OnCell = func(c sweep.CellResult) {
			lat = append(lat, ms(c.Elapsed))
			seen++
			if seen%nq != 0 {
				return
			}
			now := time.Now()
			if seen > nq {
				steps = append(steps, ms(now.Sub(last)))
			}
			last = now
		}
		a0 := totalAlloc()
		t0 := time.Now()
		res, err := sweep.Run(context.Background(), net, scfg)
		busy += time.Since(t0)
		alloc += totalAlloc() - a0
		if err != nil {
			runErr = fmt.Errorf("sweep-d2: %w", err)
			return
		}
		r.attempted += len(res.Cells)
		chk.check(r, res)
	})
	if runErr != nil {
		return nil, runErr
	}
	latTail, latLabel := tailOrMax(lat, p99)
	wTail, wLabel := tailOrMax(steps, p99)
	r.note("cells: %d, tail: %s; scenario steps: %d, write tail: %s", len(lat), latLabel, len(steps), wLabel)
	r.set("setup_s", median(gens), "s")
	r.set("throughput_per_s", float64(len(lat))/busy.Seconds(), "1/s")
	r.set("latency_p50_ms", median(lat), "ms")
	r.set("latency_tail_ms", latTail, "ms")
	r.set("write_p50_ms", median(steps), "ms")
	r.set("write_tail_ms", wTail, "ms")
	// A sweep hands a scenario's cells to OnCell together when its batch
	// ends, so the lag from the state change to its verdicts is the step.
	r.set("watch_lag_p50_ms", median(steps), "ms")
	r.set("alloc_mb_per_op", float64(alloc)/float64(len(lat))/(1<<20), "MB")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	return r, nil
}

// sweepChecker validates sweep-d2 grids.
type sweepChecker struct {
	net        *network.Network
	invariants []string
	seed       int64
	// first holds the renderings of the run's first grid, the reference
	// for repeats. Only the renderings are kept, so a second sweep runs
	// with the same live heap as the first.
	first [][]byte
}

// check counts a cell failed when it errored or never ran, when its
// invariant's verdict counts, breaking count or minimal breaking sets
// differ from the expected ones (seed 1), or when it differs from the
// same cell of the run's first sweep. The first grid is also spot-checked
// against from-scratch verification.
func (c *sweepChecker) check(r *run, res *sweep.Result) {
	nq := len(c.invariants)
	badInv := make([]bool, nq)
	if c.seed == 1 {
		for i, inv := range res.Report.Invariants {
			if err := checkInvariant(inv, sweepSeed1[i]); err != nil {
				r.note("invariant %d: %v", i, err)
				badInv[i] = true
			}
		}
	}
	for i, cell := range res.Cells {
		switch {
		case cell.Err != nil || cell.Incomplete:
			r.fail("cell %d: %v", i, cell.Err)
		case badInv[cell.Invariant]:
			r.fail("cell %d: invariant %d aggregates differ from the expected", i, cell.Invariant)
		case c.first != nil && !bytes.Equal(c.first[i], render(c.net, c.invariants[cell.Invariant], cell.Res)):
			r.fail("cell %d: differs from this run's first sweep", i)
		}
	}
	if c.first == nil {
		c.first = make([][]byte, len(res.Cells))
		for i, cell := range res.Cells {
			c.first[i] = render(c.net, c.invariants[cell.Invariant], cell.Res)
		}
		c.spotCheck(r, res, rand.New(rand.NewSource(c.seed)))
	}
}

// checkInvariant compares one invariant's aggregates with the expected.
func checkInvariant(got sweep.InvariantReport, want sweepExpect) error {
	if !reflect.DeepEqual(got.Verdicts, want.verdicts) {
		return fmt.Errorf("verdict counts %v, want %v", got.Verdicts, want.verdicts)
	}
	if got.Breaking != want.breaking {
		return fmt.Errorf("breaking %d, want %d", got.Breaking, want.breaking)
	}
	if fmt.Sprint(got.MinimalBreaking) != want.minimal {
		return fmt.Errorf("minimal breaking sets %v, want %s", got.MinimalBreaking, want.minimal)
	}
	return nil
}

// spotCheck re-verifies sampled cells from scratch — a fresh session's
// MaterializeFresh network, a cache-less engine.VerifyCtx — and fails the
// cells whose rendering differs.
func (c *sweepChecker) spotCheck(r *run, res *sweep.Result, rng *rand.Rand) {
	for i := 0; i < sweepSpot; i++ {
		cell := res.Cells[rng.Intn(len(res.Cells))]
		sess := scenario.NewSession(c.net)
		if _, err := sess.ApplyAll(res.Scenarios[cell.Scenario].Deltas(c.net.Topo)); err != nil {
			r.fail("spot check: %v", err)
			continue
		}
		fresh := sess.MaterializeFresh()
		sess.Close()
		text := c.invariants[cell.Invariant]
		q, err := query.Parse(text, fresh)
		if err != nil {
			r.fail("spot check: %v", err)
			continue
		}
		want, err := engine.VerifyCtx(context.Background(), fresh, q, engine.Options{Budget: sweepBudget})
		if err != nil || !bytes.Equal(stable(fresh, text, want), stable(fresh, text, cell.Res)) {
			r.fail("spot check: scenario %d invariant %d differs from a from-scratch verify", cell.Scenario, cell.Invariant)
		}
	}
}

// traceSweep runs sweep.Run once untraced, then re-drives the same grid
// through one scenario session — SetStack, then VerifyBatch, per scenario —
// with spans around both calls and the engine's own phase timings as their
// children. The re-driven grid must render exactly like sweep.Run's.
func traceSweep(cfg config, r *run, net *network.Network, chk *sweepChecker) (*run, error) {
	scfg := sweepConfig(chk.invariants)
	t0 := time.Now()
	res, err := sweep.Run(context.Background(), net, scfg)
	plain := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("sweep-d2: %w", err)
	}
	chk.check(r, res)
	r.attempted += len(res.Cells)

	tr := newTracer()
	nq := len(chk.invariants)
	var cells, under, blocksRebuilt, blocksReused int
	var pops int64
	sess := scenario.NewSession(net)
	defer sess.Close()
	bopts := batch.Options{Workers: 1, Engine: scfg.Engine}
	t1 := time.Now()
	for si, sc := range res.Scenarios {
		tr.nextOp()
		root := tr.begin("scenario", 0)
		var serr error
		tr.do("scenario.set_stack", root, func() { _, serr = sess.SetStack(sc.Deltas(net.Topo)) })
		if serr != nil {
			return nil, fmt.Errorf("sweep-d2: scenario %d: %w", si, serr)
		}
		b0 := sess.BlockStats()
		p0 := postPops.Value()
		vb := tr.begin("batch.verify_batch", root)
		rs := sess.VerifyBatch(context.Background(), chk.invariants, bopts)
		tr.end(vb)
		pops += postPops.Value() - p0
		bs := sess.BlockStats().Sub(b0)
		blocksRebuilt += bs.BlocksRebuilt
		blocksReused += bs.BlocksReused
		for qi, br := range rs {
			st := br.Stats
			tr.child("translate.assemble", vb, st.BuildTime)
			tr.child("pds.post_over", vb, st.OverTime)
			tr.child("pds.witness", vb, st.ReconstructTime)
			tr.child("pds.post_under", vb, st.UnderTime)
			if st.UnderUsed {
				under++
			}
			cells++
			want := res.Cells[si*nq+qi]
			if br.Err != nil || !bytes.Equal(render(net, br.Query, br.Res), render(net, br.Query, want.Res)) {
				r.fail("scenario %d invariant %d: re-driven cell differs from sweep.Run", si, qi)
			}
		}
		tr.end(root)
	}
	traced := time.Since(t1)
	self := selfTimes(tr.spans)
	tot := totals(tr.spans)
	nsc := float64(len(res.Scenarios))
	n := float64(cells)
	r.set("scenario.set_stack_ms", ms(tot["scenario.set_stack"])/nsc, "ms")
	r.set("translate.assemble_ms", ms(tot["translate.assemble"])/n, "ms")
	r.set("translate.blocks_rebuilt", float64(blocksRebuilt)/nsc, "count")
	r.set("translate.block_reuse_ratio", ratio(blocksReused, blocksReused+blocksRebuilt), "ratio")
	r.set("batch.verify_batch_ms", ms(self["batch.verify_batch"])/nsc, "ms")
	r.set("pds.post_over_ms", ms(tot["pds.post_over"])/n, "ms")
	r.set("pds.pops_over", float64(pops)/n, "count")
	r.set("pds.witness_ms", ms(tot["pds.witness"])/n, "ms")
	r.set("engine.under_ratio", float64(under)/n, "ratio")
	r.set("bench.unattributed_ms", ms(self["scenario"])/nsc, "ms")
	r.set("bench.trace_overhead_ratio", plain.Seconds()/traced.Seconds(), "ratio")
	r.note("re-driven %d scenarios × %d invariants in %.2fs (sweep.Run: %.2fs)", len(res.Scenarios), nq, traced.Seconds(), plain.Seconds())
	r.trace = tr
	return r, nil
}
