package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"aalwines/internal/batch"
	"aalwines/internal/gen"
	"aalwines/internal/network"
	"aalwines/internal/obs"
	"aalwines/internal/scenario"
	"aalwines/internal/sweep"
	"aalwines/internal/topology"
)

// BenchVerifySchema identifies the BENCH_verify_<rung>.json document
// layout. v2 added the memory block (alloc/op and peak RSS); v3 added the
// translation block and the sweep matrix, and dropped workers, budget and
// the saturation peak depth; v4 dropped the slice router counts, since the
// on-the-fly product replaced query-scoped slicing.
const BenchVerifySchema = "aalwines/bench-verify/v4"

// BenchVerifyConfig configures one ladder rung: a fixed query set run
// serially with no saturation budget. Latency, cache, translation and
// saturation metrics come from the observability registry.
type BenchVerifyConfig struct {
	// Network names the workload. The batch workloads are
	// "running-example" (default), "nordunet", "zoo", and the paper-scale
	// "nordunet-svc-250k" (>250k rules), "zoo-240" (the paper's largest
	// zoo size) and "fattree-k8" (112-switch Clos fabric). The session
	// workloads are "scenario-zoo" (a what-if session on the zoo workload)
	// and "sweep-zoo-16" (a depth-2 resilience sweep of a 16-router zoo).
	Network string
	// Repeat sweeps a batch workload's query set this many times (default
	// 3) on one runner, which parses each query once; every run builds its
	// own pushdown system. The session workloads fix their own passes.
	Repeat int
	// Seed drives the generated networks and query sets.
	Seed int64
}

// BenchVerifyReport is the content of a BENCH_verify_<rung>.json file.
// Repeat counts the passes over the query set, so Runs = Queries × Repeat.
type BenchVerifyReport struct {
	Schema      string           `json:"schema"`
	Network     string           `json:"network"`
	Queries     int              `json:"queries"`
	Repeat      int              `json:"repeat"`
	Runs        int              `json:"runs"`
	Seed        int64            `json:"seed"`
	Verdicts    map[string]int   `json:"verdicts"`
	Errors      int              `json:"errors"`
	LatencyMS   BenchLatency     `json:"latencyMs"`
	Cache       BenchCache       `json:"cache"`
	Translation BenchTranslation `json:"translation"`
	Saturation  BenchSaturation  `json:"saturation"`
	// Sweep is the sweep-zoo-16 rung's verdict matrix with its minimal
	// breaking sets, one entry per invariant.
	Sweep     []sweep.InvariantReport `json:"sweep,omitempty"`
	Memory    *BenchMemory            `json:"memory,omitempty"`
	ElapsedMS float64                 `json:"elapsedMs"`
}

// BenchMemory reports the allocation cost of the benchmark as
// runtime.MemStats deltas over the whole sweep divided by the number of
// runs. Unlike the saturation counters, allocation figures are not
// bit-reproducible — GC timing and sync.Pool reuse shift them by a few
// percent between runs — so the ladder gates them with a generous relative
// tolerance instead of an exact match. PeakRSSBytes is the process
// high-water mark (VmHWM on Linux, 0 elsewhere); it is a process-lifetime
// figure recorded for context and never gated.
type BenchMemory struct {
	AllocBytesPerRun int64 `json:"allocBytesPerRun"`
	AllocsPerRun     int64 `json:"allocsPerRun"`
	PeakRSSBytes     int64 `json:"peakRssBytes,omitempty"`
}

// BenchLatency summarises the per-query latency distribution in
// milliseconds, computed exactly from the sorted samples (nearest-rank
// percentiles), not from histogram buckets.
type BenchLatency struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// BenchCache reports translation-cache effectiveness over the benchmark:
// the scenario sessions' overlay caches, the only translation caches. The
// batch rungs build per run and read 0.
type BenchCache struct {
	Gets    int64   `json:"gets"`
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hitRate"`
}

// BenchTranslation reports the translation work done during the benchmark:
// pushdown rules emitted and kept — by eager builds before and after the
// reduction pass, plus every rule on-the-fly saturations generated, which
// count as both — and the rule blocks scenario sessions spliced from their
// block stores or rebuilt.
type BenchTranslation struct {
	RulesEmitted  int64 `json:"rulesEmitted"`
	RulesKept     int64 `json:"rulesKept"`
	BlocksReused  int64 `json:"blocksReused"`
	BlocksRebuilt int64 `json:"blocksRebuilt"`
}

// BenchSaturation reports the saturation work done during the benchmark.
type BenchSaturation struct {
	Runs            int64 `json:"runs"`
	WorklistPops    int64 `json:"worklistPops"`
	WorklistPushes  int64 `json:"worklistPushes"`
	TransInserted   int64 `json:"transInserted"`
	BudgetSpent     int64 `json:"budgetSpent"`
	BudgetExhausted int64 `json:"budgetExhausted"`
	// EarlyAccepts counts saturation runs cut short by the early-accept
	// probe; IndexProbes counts candidate edges consulted through the
	// per-state symbol index. Together they quantify how much of the
	// benchmark's work the hot-path machinery saved.
	EarlyAccepts int64 `json:"earlyAccepts"`
	IndexProbes  int64 `json:"indexProbes"`
}

// runningExampleQueries is the φ set of the paper's running example
// (Figure 1), mirroring examples/quickstart.
var runningExampleQueries = []string{
	"<ip> [.#v0] .* [v3#.] <ip> 0",
	"<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2",
	"<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
	"<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
	"<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
	"<ip> [.#v0] .* [v2#v4] .* [v3#.] <ip> 1",
}

// benchWorkload resolves the configured network and query set.
func benchWorkload(cfg BenchVerifyConfig) (*network.Network, []string, error) {
	name := cfg.Network
	if name == "" {
		name = "running-example"
	}
	var net *network.Network
	var queries []string
	switch name {
	case "running-example", "example":
		name = "running-example"
		net = gen.RunningExample().Network
		queries = runningExampleQueries
	case "nordunet":
		s := gen.Nordunet(gen.NordOpts{Services: 2, EdgeRouters: 10, Seed: cfg.Seed})
		net = s.Net
		for _, q := range s.Table1Queries() {
			queries = append(queries, q.Text)
		}
	case "zoo", "scenario-zoo":
		s := gen.Zoo(gen.ZooOpts{Routers: 30, Seed: cfg.Seed, Protection: true})
		net = s.Net
		for _, q := range s.Queries(12, cfg.Seed) {
			queries = append(queries, q.Text)
		}
	case "nordunet-svc-250k":
		// The paper's heaviest configuration: every NORDUnet edge router
		// carries 70 service chains per pair, which pushes the dataplane
		// past 250k rules (asserted by TestLadderPaperScaleRules).
		s := gen.Nordunet(gen.NordOpts{Services: 70, EdgeRouters: 31, Seed: cfg.Seed})
		net = s.Net
		for _, q := range s.Table1Queries() {
			queries = append(queries, q.Text)
		}
	case "zoo-240":
		s := gen.Zoo(gen.ZooOpts{Routers: 240, Seed: cfg.Seed, Protection: true})
		net = s.Net
		for _, q := range s.Queries(12, cfg.Seed) {
			queries = append(queries, q.Text)
		}
	case "fattree-k8":
		s := gen.FatTree(gen.FatTreeOpts{K: 8, Seed: cfg.Seed})
		net = s.Net
		for _, q := range s.Queries(12, cfg.Seed) {
			queries = append(queries, q.Text)
		}
	case "sweep-zoo-16":
		s := gen.Zoo(gen.ZooOpts{Routers: 16, Seed: cfg.Seed, Protection: true})
		net = s.Net
		for _, q := range s.Queries(2, cfg.Seed) {
			queries = append(queries, q.Text)
		}
	default:
		return nil, nil, fmt.Errorf("benchverify: unknown network %q", name)
	}
	return net, queries, nil
}

// serial runs a batch on one worker, for the best timing fidelity.
var serial = batch.Options{Workers: 1}

// BenchVerify runs one ladder rung and returns its report.
func BenchVerify(cfg BenchVerifyConfig) (*BenchVerifyReport, error) {
	net, queries, err := benchWorkload(cfg)
	if err != nil {
		return nil, err
	}
	repeat := cfg.Repeat
	if repeat <= 0 {
		repeat = 3
	}

	pre := obs.Default.Snapshot()
	var msPre, msPost runtime.MemStats
	runtime.ReadMemStats(&msPre)
	start := time.Now()
	var all []batch.Result
	var matrix []sweep.InvariantReport
	switch cfg.Network {
	case "scenario-zoo":
		all, err = scenarioPasses(net, queries, cfg.Seed)
	case "sweep-zoo-16":
		all, matrix, err = sweepPasses(net, queries)
	default:
		runner := batch.NewRunner(net)
		for r := 0; r < repeat; r++ {
			all = append(all, runner.Verify(context.Background(), queries, serial)...)
		}
	}
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&msPost)
	post := obs.Default.Snapshot()

	rep := &BenchVerifyReport{
		Schema:    BenchVerifySchema,
		Network:   net.Name,
		Queries:   len(queries),
		Repeat:    len(all) / len(queries),
		Runs:      len(all),
		Seed:      cfg.Seed,
		Verdicts:  map[string]int{},
		Sweep:     matrix,
		ElapsedMS: elapsed.Seconds() * 1000,
	}
	samples := make([]float64, 0, len(all))
	var sum float64
	for _, r := range all {
		ms := r.Elapsed.Seconds() * 1000
		samples = append(samples, ms)
		sum += ms
		if r.Err != nil {
			rep.Errors++
			continue
		}
		rep.Verdicts[r.Res.Verdict.String()]++
	}
	sort.Float64s(samples)
	rep.LatencyMS = BenchLatency{
		P50:  nearestRank(samples, 0.50),
		P90:  nearestRank(samples, 0.90),
		P99:  nearestRank(samples, 0.99),
		Max:  nearestRank(samples, 1),
		Mean: sum / float64(len(samples)),
	}
	delta := func(prefix string) int64 { return counterDelta(pre, post, prefix) }
	rep.Cache = BenchCache{
		Hits:   delta("scenario_overlay_cache_hits_total"),
		Misses: delta("scenario_overlay_cache_misses_total"),
	}
	rep.Cache.Gets = rep.Cache.Hits + rep.Cache.Misses
	if rep.Cache.Gets > 0 {
		rep.Cache.HitRate = float64(rep.Cache.Hits) / float64(rep.Cache.Gets)
	}
	rep.Translation = BenchTranslation{
		RulesEmitted:  delta("translate_rules_emitted_total"),
		RulesKept:     delta("translate_rules_kept_total"),
		BlocksReused:  delta("scenario_rule_blocks_reused_total"),
		BlocksRebuilt: delta("scenario_rule_blocks_rebuilt_total"),
	}
	rep.Saturation = BenchSaturation{
		Runs:            delta("pds_saturation_runs_total"),
		WorklistPops:    delta("pds_worklist_pops_total"),
		WorklistPushes:  delta("pds_worklist_pushes_total"),
		TransInserted:   delta("pds_trans_inserted_total"),
		BudgetSpent:     delta("pds_budget_spent_total"),
		BudgetExhausted: delta("pds_budget_exhausted_total"),
		EarlyAccepts:    delta("pds_early_accept_total"),
		IndexProbes:     delta("pds_index_probes_total"),
	}
	rep.Memory = &BenchMemory{
		AllocBytesPerRun: int64(msPost.TotalAlloc-msPre.TotalAlloc) / int64(len(all)),
		AllocsPerRun:     int64(msPost.Mallocs-msPre.Mallocs) / int64(len(all)),
		PeakRSSBytes:     readPeakRSS(),
	}
	return rep, nil
}

// scenarioPasses runs the scenario-zoo workload in three passes: cold
// through a scenario session, again through the session after failing the
// link at index seed, and from scratch on a fresh runner over the same
// mutated network. The second pass rebuilds only the rule blocks of the
// routers the failure touches; the third reuses nothing.
func scenarioPasses(net *network.Network, queries []string, seed int64) ([]batch.Result, error) {
	ctx := context.Background()
	sess := scenario.NewSession(net)
	defer sess.Close()
	all := sess.VerifyBatch(ctx, queries, serial)
	cmd := "fail " + net.Topo.LinkName(topology.LinkID(int(seed)%net.Topo.NumLinks()))
	if _, err := sess.ApplyText(cmd); err != nil {
		return nil, fmt.Errorf("benchverify: %q: %w", cmd, err)
	}
	all = append(all, sess.VerifyBatch(ctx, queries, serial)...)
	return append(all, batch.NewRunner(sess.MaterializeFresh()).Verify(ctx, queries, serial)...), nil
}

// sweepPasses runs the sweep-zoo-16 workload: a depth-2 resilience sweep
// whose passes are the baseline on the unfailed network plus one per
// failure scenario. It runs on one worker, because the rule-block counters
// depend on how the sweep splits scenarios across workers.
func sweepPasses(net *network.Network, queries []string) ([]batch.Result, []sweep.InvariantReport, error) {
	res, err := sweep.Run(context.Background(), net, sweep.Config{Depth: 2, Invariants: queries, Workers: 1})
	if err != nil {
		return nil, nil, fmt.Errorf("benchverify: %w", err)
	}
	all := res.Baseline
	for _, c := range res.Cells {
		all = append(all, batch.Result{Res: c.Res, Err: c.Err, Elapsed: c.Elapsed})
	}
	return all, res.Report.Invariants, nil
}

// readPeakRSS returns the process peak resident set (VmHWM) in bytes, or 0
// on platforms without /proc.
func readPeakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// nearestRank returns the q-quantile of sorted samples by the
// nearest-rank definition (exact sample values, no interpolation).
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// counterDelta sums post−pre over the counters whose name starts with
// prefix, so a labelled family (alg, network) adds up and a report
// isolates its own work even when other verification ran in the process.
func counterDelta(pre, post obs.Snapshot, prefix string) int64 {
	var d int64
	for name, v := range post.Counters {
		if strings.HasPrefix(name, prefix) {
			d += v - pre.Counters[name]
		}
	}
	return d
}

// LadderRung is one workload of the scaled benchmark ladder.
type LadderRung struct {
	Name string
	Cfg  BenchVerifyConfig
}

// BenchLadder returns the canonical workload ladder. The batch rungs run
// smallest to largest: the paper's running example, a synthesised
// topology-zoo-scale network, a NORDUnet-scale MPLS backbone, and the
// paper-scale rungs — a k=8 Clos fabric, the paper's largest zoo size (240
// routers) and the >250k-rule NORDUnet service configuration. Two session
// rungs follow: a what-if scenario session and a depth-2 resilience sweep.
// Each rung writes its own BENCH_verify_<name>.json so regressions localise
// to a workload. The paper-scale rungs sweep once, to stay within a sane
// CI budget; the small batch rungs repeat their sweep to steady the
// latency figures.
func BenchLadder() []LadderRung {
	return []LadderRung{
		{Name: "running-example", Cfg: BenchVerifyConfig{Network: "running-example", Repeat: 3, Seed: 1}},
		{Name: "zoo", Cfg: BenchVerifyConfig{Network: "zoo", Repeat: 3, Seed: 1}},
		{Name: "nordunet", Cfg: BenchVerifyConfig{Network: "nordunet", Repeat: 3, Seed: 1}},
		{Name: "fattree-k8", Cfg: BenchVerifyConfig{Network: "fattree-k8", Repeat: 2, Seed: 1}},
		{Name: "zoo-240", Cfg: BenchVerifyConfig{Network: "zoo-240", Repeat: 1, Seed: 1}},
		{Name: "nordunet-svc-250k", Cfg: BenchVerifyConfig{Network: "nordunet-svc-250k", Repeat: 1, Seed: 1}},
		{Name: "scenario-zoo", Cfg: BenchVerifyConfig{Network: "scenario-zoo", Seed: 1}},
		{Name: "sweep-zoo-16", Cfg: BenchVerifyConfig{Network: "sweep-zoo-16", Seed: 1}},
	}
}

// RunBenchLadder runs every rung of the ladder named in the
// comma-separated only ("" = all), writes one validated
// BENCH_verify_<name>.json per rung into dir, and returns the written
// paths alongside the reports, in rung order.
func RunBenchLadder(dir, only string) ([]string, []*BenchVerifyReport, error) {
	rungs, err := ladderRungs(only)
	if err != nil {
		return nil, nil, err
	}
	var paths []string
	var reps []*BenchVerifyReport
	for _, rung := range rungs {
		rep, err := BenchVerify(rung.Cfg)
		if err != nil {
			return paths, reps, fmt.Errorf("benchverify: ladder rung %s: %w", rung.Name, err)
		}
		path := filepath.Join(dir, "BENCH_verify_"+rung.Name+".json")
		// WriteBenchVerify validates the exact bytes before the rename, so
		// a written rung is a valid rung.
		if err := WriteBenchVerify(path, rep); err != nil {
			return paths, reps, fmt.Errorf("%s: %w", path, err)
		}
		paths = append(paths, path)
		reps = append(reps, rep)
	}
	return paths, reps, nil
}

// WriteBenchVerify writes the report to path atomically after validating
// it against its own schema (WriteReport).
func WriteBenchVerify(path string, rep *BenchVerifyReport) error {
	return WriteReport(path, rep, ValidateBenchVerify)
}

// ValidateBenchVerify checks that data is a well-formed
// BENCH_verify_<rung>.json: the expected schema string, strict field set, a
// memory block, and internal consistency (run counts, verdict totals,
// percentile ordering, cache arithmetic, sweep matrix totals).
func ValidateBenchVerify(data []byte) error {
	// Read the schema first, so a report of an older schema is named as
	// such rather than by its first unknown field.
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("benchverify: parse: %w", err)
	}
	if head.Schema != BenchVerifySchema {
		return fmt.Errorf("benchverify: schema %q, want %q", head.Schema, BenchVerifySchema)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep BenchVerifyReport
	if err := dec.Decode(&rep); err != nil {
		return fmt.Errorf("benchverify: parse: %w", err)
	}
	if rep.Memory == nil {
		return fmt.Errorf("benchverify: schema %s requires a memory block", rep.Schema)
	}
	if rep.Network == "" {
		return fmt.Errorf("benchverify: empty network")
	}
	if rep.Queries <= 0 || rep.Repeat <= 0 || rep.Runs != rep.Queries*rep.Repeat {
		return fmt.Errorf("benchverify: runs=%d, want queries(%d) × repeat(%d)",
			rep.Runs, rep.Queries, rep.Repeat)
	}
	total := rep.Errors
	for v, n := range rep.Verdicts {
		if n < 0 {
			return fmt.Errorf("benchverify: negative verdict count %s=%d", v, n)
		}
		total += n
	}
	if total != rep.Runs {
		return fmt.Errorf("benchverify: verdicts+errors=%d, want runs=%d", total, rep.Runs)
	}
	l := rep.LatencyMS
	if l.P50 < 0 || l.P50 > l.P90 || l.P90 > l.P99 || l.P99 > l.Max {
		return fmt.Errorf("benchverify: latency percentiles out of order: %+v", l)
	}
	if l.Mean < 0 || l.Mean > l.Max {
		return fmt.Errorf("benchverify: latency mean %g outside [0, max=%g]", l.Mean, l.Max)
	}
	c := rep.Cache
	if c.Gets != c.Hits+c.Misses {
		return fmt.Errorf("benchverify: cache gets=%d ≠ hits(%d)+misses(%d)", c.Gets, c.Hits, c.Misses)
	}
	if c.HitRate < 0 || c.HitRate > 1 {
		return fmt.Errorf("benchverify: cache hit rate %g outside [0,1]", c.HitRate)
	}
	tr := rep.Translation
	if tr.RulesKept < 0 || tr.RulesKept > tr.RulesEmitted || tr.BlocksReused < 0 || tr.BlocksRebuilt < 0 {
		return fmt.Errorf("benchverify: translation counters inconsistent: %+v", tr)
	}
	s := rep.Saturation
	if s.Runs < 0 || s.WorklistPops < 0 || s.WorklistPushes < 0 || s.TransInserted < 0 ||
		s.EarlyAccepts < 0 || s.IndexProbes < 0 {
		return fmt.Errorf("benchverify: negative saturation counters: %+v", s)
	}
	if s.EarlyAccepts > s.Runs {
		return fmt.Errorf("benchverify: earlyAccepts=%d exceeds saturation runs=%d", s.EarlyAccepts, s.Runs)
	}
	// A sweep's first pass is its baseline; every later pass is one
	// failure scenario, which each invariant must account for exactly once.
	for i, inv := range rep.Sweep {
		n := inv.Errors + inv.Incomplete
		for _, v := range inv.Verdicts {
			n += v
		}
		if n != rep.Repeat-1 {
			return fmt.Errorf("benchverify: sweep invariant %d: verdicts+errors+incomplete=%d, want %d scenarios",
				i, n, rep.Repeat-1)
		}
		if len(inv.MinimalBreaking) > inv.Breaking {
			return fmt.Errorf("benchverify: sweep invariant %d: %d minimal sets exceed %d breaking scenarios",
				i, len(inv.MinimalBreaking), inv.Breaking)
		}
	}
	if m := rep.Memory; m.AllocBytesPerRun < 0 || m.AllocsPerRun < 0 || m.PeakRSSBytes < 0 {
		return fmt.Errorf("benchverify: negative memory figures: %+v", *m)
	}
	if rep.ElapsedMS < 0 {
		return fmt.Errorf("benchverify: negative elapsed %g", rep.ElapsedMS)
	}
	return nil
}
