package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"aalwines/internal/cli"
	"aalwines/internal/engine"
	"aalwines/internal/gen"
	"aalwines/internal/network"
	"aalwines/internal/obs"
	"aalwines/internal/pds"
	"aalwines/internal/query"
	"aalwines/internal/translate"
	"aalwines/internal/xmlio"
)

const (
	paperBudget = 50_000_000
	// paperLoads is how many times set-up loads the XML snapshot; setup_s
	// is their median.
	paperLoads = 3
	// paperK is the failure bound of every seeded query.
	paperK = 1
	// paperRepeats is how many cold runs of each Table 1 query one pass
	// makes.
	paperRepeats = 3
)

var postPops = obs.GetCounter(`pds_worklist_pops_total{alg="poststar"}`)

// paperQueries returns the six Table 1 queries and a seeded reachability
// and tunnel-reachability query with failure bound paperK, deduplicated.
// Only these two families are seeded: in the others the endpoints alone
// move a cold query's cost up to fourfold, so the seed, not the code,
// would move the figures (README.md has the numbers).
func paperQueries(syn *gen.Synth, seed int64) (table1, seeded []string) {
	seen := map[string]bool{}
	for _, q := range syn.Table1Queries() {
		if !seen[q.Text] {
			seen[q.Text] = true
			table1 = append(table1, q.Text)
		}
	}
	for _, q := range pickQueries(syn, seed, paperK, gen.QReach, gen.QTunnelReach) {
		if !seen[q] {
			seen[q] = true
			seeded = append(seeded, q)
		}
	}
	return table1, seeded
}

// paperOps is one pass: the Table 1 queries paperRepeats times over, then
// the seeded ones.
func paperOps(table1, seeded []string) []string {
	var ops []string
	for i := 0; i < paperRepeats; i++ {
		ops = append(ops, table1...)
	}
	return append(ops, seeded...)
}

// runPaper is the paper-250k workload: CLI-style cold verification of the
// Table 1 regime, one query per op, each on a clean heap.
func runPaper(cfg config) (*run, error) {
	// The dataplane is the fixed operator snapshot; the seed picks the
	// query mix.
	t0 := time.Now()
	syn := gen.Nordunet(gen.NordOpts{Services: 70, EdgeRouters: 31, Seed: 1})
	table1, seeded := paperQueries(syn, cfg.seed)
	queries := paperOps(table1, seeded)
	var topo, route bytes.Buffer
	if err := xmlio.WriteTopology(&topo, syn.Net); err != nil {
		return nil, err
	}
	if err := xmlio.WriteRouting(&route, syn.Net); err != nil {
		return nil, err
	}
	rules := syn.Net.Routing.NumRules()
	syn = nil
	prep := time.Since(t0)

	r := &run{}
	r.note("network: nordunet services=70 edge=31, %d rules, XML %d+%d bytes, generated and written in %.1fs", rules, topo.Len(), route.Len(), prep.Seconds())
	r.note("queries: %d Table 1 ×%d + %d seeded (reach and tunnel-reach at k=%d) per pass", len(table1), paperRepeats, len(seeded), paperK)

	// Set-up: load the snapshot paperLoads times, timing only ReadNetwork.
	// Each load is followed by the one-shot CLI's first verdict, which
	// gives the cold-start figure (load → first verdict).
	var net *network.Network
	var loads, coldStarts []float64
	for i := 0; i < paperLoads; i++ {
		net = nil
		runtime.GC()
		t0 := time.Now()
		n, err := xmlio.ReadNetwork(bytes.NewReader(topo.Bytes()), bytes.NewReader(route.Bytes()))
		load := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("paper-250k: loading XML: %w", err)
		}
		net = n
		t1 := time.Now()
		if _, err := engine.VerifyTextCtx(context.Background(), net, queries[0], engine.Options{Budget: paperBudget}); err != nil {
			return nil, fmt.Errorf("paper-250k: first verdict: %w", err)
		}
		loads = append(loads, load.Seconds())
		coldStarts = append(coldStarts, ms(load+time.Since(t1)))
	}
	r.note("loads: %.2f s; cold starts: %.0f ms", loads, coldStarts)
	if got := net.Routing.NumRules(); got != rules {
		return nil, fmt.Errorf("paper-250k: XML round trip has %d rules, want %d", got, rules)
	}

	chk := newPaperChecker(net, cfg.seed)
	if cfg.trace {
		return tracePaper(cfg, r, net, queries, chk, loads)
	}

	// A query's latency is the median of its paperRepeats cold runs, and
	// the percentiles are over the Table 1 queries, the same six for every
	// seed. One cold run of one query is a single sample of a noisy
	// machine, and the median of a handful of distinct queries is decided
	// by one or two of them; README.md has the measurements. The seeded
	// queries count in throughput, allocation and correctness.
	perQuery := map[string][]float64{}
	var alloc uint64
	var busy time.Duration
	i := 0
	passes(queries, cfg.seconds, func(text string) {
		runtime.GC() // every query starts from a clean heap, as a one-shot CLI run does
		a0 := totalAlloc()
		t0 := time.Now()
		res, err := engine.VerifyTextCtx(context.Background(), net, text, engine.Options{Budget: paperBudget})
		d := time.Since(t0)
		alloc += totalAlloc() - a0
		busy += d
		perQuery[text] = append(perQuery[text], ms(d))
		if i < len(queries) {
			r.note("op %d: %s %.0f ms %q", i, res.Verdict, ms(d), text)
		}
		i++
		r.attempted++
		if err := chk.check(text, res, err); err != nil {
			r.fail("%v", err)
		}
	})
	var lat []float64
	for _, q := range table1 {
		lat = append(lat, median(perQuery[q]))
	}
	// Six queries: no percentile has tailFloor samples beyond it, so the
	// tail is the slowest query.
	tailV, label := tailOrMax(lat, p90)
	wTail, _ := tailOrMax(scaled(loads, 1000), p90)
	r.note("latency: %d Table 1 queries, tail: %s", len(lat), label)
	r.set("setup_s", median(loads), "s")
	r.set("throughput_per_s", float64(r.attempted)/busy.Seconds(), "1/s")
	r.set("latency_p50_ms", median(lat), "ms")
	r.set("latency_tail_ms", tailV, "ms")
	r.set("write_p50_ms", median(loads)*1000, "ms")
	r.set("write_tail_ms", wTail, "ms")
	r.set("watch_lag_p50_ms", median(coldStarts), "ms")
	r.set("alloc_mb_per_op", float64(alloc)/float64(r.attempted)/(1<<20), "MB")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	return r, nil
}

// passes calls op on the query list in whole passes (see window). Whole
// passes keep every run's query mix identical: a run cut mid-pass would
// weight the list's head over its tail by chance.
func passes(queries []string, seconds float64, op func(text string)) {
	window(seconds, func() {
		for _, q := range queries {
			op(q)
		}
	})
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// paperChecker validates every paper-250k op.
type paperChecker struct {
	net      *network.Network
	expected map[string]string // query text → verdict
	seen     map[string][]byte // first rendering of each query in this run
}

func newPaperChecker(net *network.Network, seed int64) *paperChecker {
	exp := map[string]string{}
	for q, v := range paperTable1Verdicts {
		exp[q] = v
	}
	if seed == 1 {
		for q, v := range paperSeed1Verdicts {
			exp[q] = v
		}
	}
	return &paperChecker{net: net, expected: exp, seen: map[string][]byte{}}
}

// check fails an op whose run errored (budget exhaustion included), whose
// verdict differs from the expected one, whose Satisfied witness does not
// re-validate, or whose rendering differs from an earlier run of the same
// query.
func (c *paperChecker) check(text string, res engine.Result, err error) error {
	if err != nil {
		return fmt.Errorf("%q: %v", text, err)
	}
	if want, ok := c.expected[text]; ok && res.Verdict.String() != want {
		return fmt.Errorf("%q: verdict %s, want %s", text, res.Verdict, want)
	}
	if res.Verdict == engine.Satisfied {
		q, perr := query.Parse(text, c.net)
		if perr != nil {
			return fmt.Errorf("%q: %v", text, perr)
		}
		if f := c.net.Feasible(res.Trace, q.MaxFailures); !f.Feasible {
			return fmt.Errorf("%q: witness does not re-validate", text)
		}
	}
	b := render(c.net, text, res)
	if prev, ok := c.seen[text]; ok && !bytes.Equal(prev, b) {
		return fmt.Errorf("%q: rendering differs from this run's first", text)
	}
	c.seen[text] = b
	return nil
}

// render is the comparison form of a result: cli.ToJSON with the
// wall-clock timings zeroed, sizes kept.
func render(net *network.Network, text string, res engine.Result) []byte {
	j := cli.ToJSON(net, text, res)
	j.TimingMS = cli.Timings{}
	b, _ := json.Marshal(j)
	return b
}

// stable renders only what the semantics determine (verdict, failed
// links, witness): from-scratch and session builds differ in rule counts.
func stable(net *network.Network, text string, res engine.Result) []byte {
	b, _ := json.Marshal(cli.ToJSON(net, text, res).Stable())
	return b
}

// tracePaper re-drives every query through the §4.2 pipeline's public
// calls with a span around each, right after an untraced engine.VerifyCtx
// of the same query that it must render byte-identically.
func tracePaper(cfg config, r *run, net *network.Network, queries []string, chk *paperChecker, loads []float64) (*run, error) {
	tr := newTracer()
	var plain, traced time.Duration
	var st paperStats
	passes(queries, cfg.seconds, func(text string) {
		runtime.GC()
		t0 := time.Now()
		want, werr := engine.VerifyTextCtx(context.Background(), net, text, engine.Options{Budget: paperBudget})
		plain += time.Since(t0)
		r.attempted++
		if err := chk.check(text, want, werr); err != nil {
			r.fail("%v", err)
			return
		}
		runtime.GC()
		tr.nextOp()
		t1 := time.Now()
		got, err := redrive(tr, net, text, paperBudget, &st)
		traced += time.Since(t1)
		if err != nil {
			r.fail("%q: re-driven pipeline: %v", text, err)
			return
		}
		if !bytes.Equal(render(net, text, got), render(net, text, want)) {
			r.fail("%q: re-driven pipeline renders differently from engine.VerifyCtx", text)
		}
	})
	self := selfTimes(tr.spans)
	tot := totals(tr.spans)
	n := float64(st.queries)
	per := func(name string) float64 { return ms(tot[name]) / n }
	r.set("xmlio.read_s", median(loads), "s")
	r.set("query.parse_ms", per("query.parse"), "ms")
	r.set("translate.build_over_ms", per("translate.build_over"), "ms")
	r.set("translate.rules_over", float64(st.rulesOver)/n, "count")
	r.set("translate.slice_keep_ratio", ratio(st.keysKept, st.keysKept+st.keysDropped), "ratio")
	r.set("pds.post_over_ms", per("pds.post_over"), "ms")
	r.set("pds.pops_over", float64(st.popsOver)/n, "count")
	r.set("pds.early_accept_ratio", float64(st.early)/n, "ratio")
	r.set("pds.witness_ms", per("pds.witness"), "ms")
	r.set("translate.decode_ms", per("translate.decode"), "ms")
	r.set("network.feasible_ms", per("network.feasible"), "ms")
	r.set("translate.build_under_ms", per("translate.build_under"), "ms")
	r.set("pds.post_under_ms", per("pds.post_under"), "ms")
	r.set("engine.under_ratio", float64(st.under)/n, "ratio")
	r.set("bench.unattributed_ms", ms(self["query"])/n, "ms")
	r.set("bench.trace_overhead_ratio", plain.Seconds()/traced.Seconds(), "ratio")
	r.note("traced queries: %d, traced query time %.1f ms/query, unattributed %.2f%%",
		st.queries, per("query"), 100*self["query"].Seconds()/tot["query"].Seconds())
	r.trace = tr
	return r, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// paperStats accumulates the work counters of re-driven queries.
type paperStats struct {
	queries, early, under int
	rulesOver             int
	keysKept, keysDropped int
	popsOver              int64
}

// redrive is engine.VerifyCtx for an unweighted, cache-less, serial run,
// spelled out through public calls so each layer gets its own span: parse,
// over-approximating build, early-accept post*, witness search and
// reconstruction, decoding and feasibility, then — if the early witness
// fails — the full re-saturation, and — if the over-approximation cannot
// decide — the under-approximation.
func redrive(tr *tracer, net *network.Network, text string, budget int64, st *paperStats) (engine.Result, error) {
	root := tr.begin("query", 0)
	defer tr.end(root)
	var res engine.Result
	var q *query.Query
	var err error
	tr.do("query.parse", root, func() { q, err = query.Parse(text, net) })
	if err != nil {
		return res, err
	}
	st.queries++
	build := func(name string, mode translate.Mode) (sys *translate.System, init *pds.Auto) {
		tr.do(name, root, func() {
			sys = translate.Build(net, q, translate.Options{Mode: mode, Slice: true})
			init = sys.InitAuto()
		})
		return sys, init
	}
	saturate := func(name string, sys *translate.System, init *pds.Auto, o pds.SatOptions) (r *pds.Result, err error) {
		o.Budget = budget
		tr.do(name, root, func() { r, err = pds.PoststarOpts(sys.PDS, init, o) })
		return r, err
	}
	// witness mirrors the engine's tryWitness: decided means Satisfied,
	// found that some accepting configuration exists.
	witness := func(sys *translate.System, r *pds.Result) (decided, found bool) {
		var acc pds.Accepted
		var init pds.Config
		var rules []int32
		var rerr error
		tr.do("pds.witness", root, func() {
			if acc, found = r.FindAccepting(sys.FinalStates, sys.FinalSpec); found {
				init, rules, rerr = r.Reconstruct(acc)
			}
		})
		if !found || rerr != nil {
			return false, found
		}
		var trace network.Trace
		var derr error
		tr.do("translate.decode", root, func() { trace, derr = sys.DecodeTrace(init, rules) })
		if derr != nil {
			return false, true
		}
		var feas network.Feasibility
		tr.do("network.feasible", root, func() { feas = net.Feasible(trace, q.MaxFailures) })
		if feas.Feasible {
			res.Verdict, res.Trace, res.Failed = engine.Satisfied, trace, feas.Failed
			return true, true
		}
		return false, true
	}

	over, overInit := build("translate.build_over", translate.Over)
	res.Stats.OverRules = len(over.PDS.Rules)
	res.Stats.OverRulesPre = over.RulesBeforeReduction
	st.rulesOver += len(over.PDS.Rules)
	st.keysKept += over.SliceStats.KeysKept
	st.keysDropped += over.SliceStats.KeysDropped

	p0 := postPops.Value()
	overRes, err := saturate("pds.post_over", over, overInit, pds.SatOptions{
		EarlyAccept: true, FinalStates: over.FinalStates, FinalSpec: over.FinalSpec,
	})
	if err != nil {
		return res, fmt.Errorf("engine: over-approximation: %w", err)
	}
	if overRes.EarlyAccepted {
		st.early++
	}
	decided, found := witness(over, overRes)
	if !decided && overRes.EarlyAccepted {
		_, overInit = build("translate.build_over", translate.Over)
		if overRes, err = saturate("pds.post_over", over, overInit, pds.SatOptions{}); err != nil {
			return res, fmt.Errorf("engine: over-approximation: %w", err)
		}
		decided, found = witness(over, overRes)
	}
	st.popsOver += postPops.Value() - p0
	if decided {
		return res, nil
	}
	if !found {
		res.Verdict = engine.Unsatisfied
		return res, nil
	}

	st.under++
	res.Stats.UnderUsed = true
	res.Verdict = engine.Inconclusive
	under, underInit := build("translate.build_under", translate.Under)
	res.Stats.UnderRules = len(under.PDS.Rules)
	underRes, err := saturate("pds.post_under", under, underInit, pds.SatOptions{})
	if err != nil {
		return res, fmt.Errorf("engine: under-approximation: %w", err)
	}
	witness(under, underRes)
	return res, nil
}
