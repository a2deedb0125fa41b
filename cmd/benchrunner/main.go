// Command benchrunner regenerates the paper's evaluation artefacts:
//
//	benchrunner -table1                 # Table 1 rows (3 engines × 6 queries)
//	benchrunner -figure4                # Figure 4 cactus series + summary
//	benchrunner -ablation               # reduction / dual-vs-over ablations
//	benchrunner -bench-ladder           # scaled ladder: one report per workload
//	benchrunner -bench-scenario         # what-if session reuse: BENCH_scenario.json
//	benchrunner -bench-sweep            # resilience sweep: BENCH_sweep.json
//	benchrunner -validate FILE          # schema-check an existing report
//
// Scale knobs (-services, -networks, -queries, -budget) trade fidelity for
// runtime; EXPERIMENTS.md records the configurations used for the shipped
// results. Each ladder rung sweeps a fixed query set through the batch
// runner and writes per-query latency percentiles, the translation-cache
// hit rate, the saturation counters and the memory block to
// BENCH_verify_<rung>.json (atomically: temp file + rename).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"aalwines/internal/engine"
	"aalwines/internal/experiments"
	"aalwines/internal/gen"
	"aalwines/internal/weight"
)

func main() {
	table1 := flag.Bool("table1", false, "run the Table 1 experiment")
	figure4 := flag.Bool("figure4", false, "run the Figure 4 sweep")
	ablation := flag.Bool("ablation", false, "run the ablation benches")
	benchLadder := flag.Bool("bench-ladder", false, "run the scaled benchmark ladder (one BENCH_verify_<workload>.json per rung)")
	checkLadder := flag.Bool("check-ladder", false, "re-run the ladder and gate it against the committed baselines in -ladder-dir (no files written)")
	ladderTol := flag.Float64("ladder-tol", 0.15, "relative mean-latency tolerance for -check-ladder (0 disables the timing gate)")
	ladderMemTol := flag.Float64("ladder-mem-tol", 0.35, "relative alloc-per-run tolerance for -check-ladder (0 disables the memory gate)")
	ladderRung := flag.String("ladder-rung", "", "restrict -check-ladder to a comma-separated set of rungs (default: all)")
	benchScenario := flag.Bool("bench-scenario", false, "run the what-if session benchmark (rule-block reuse vs from-scratch)")
	benchSweep := flag.Bool("bench-sweep", false, "run the resilience-sweep benchmark (full single+double failure space)")
	ladderDir := flag.String("ladder-dir", ".", "output directory for -bench-ladder")
	scenarioOut := flag.String("scenario-out", "BENCH_scenario.json", "output path for -bench-scenario")
	sweepOut := flag.String("sweep-out", "BENCH_sweep.json", "output path for -bench-sweep")
	sweepRouters := flag.Int("sweep-routers", 30, "zoo network size for -bench-sweep")
	sweepDepth := flag.Int("sweep-depth", 2, "failure-space depth for -bench-sweep (1 or 2)")
	sweepInvariants := flag.Int("sweep-invariants", 2, "invariant count for -bench-sweep")
	validate := flag.String("validate", "", "validate an existing BENCH_*.json report and exit")

	services := flag.Int("services", 4, "NORDUnet service chains per pair (Table 1)")
	edge := flag.Int("edge", 16, "NORDUnet edge routers (Table 1)")
	networks := flag.Int("networks", 8, "zoo networks (Figure 4)")
	perNet := flag.Int("queries", 15, "queries per network (Figure 4)")
	maxRouters := flag.Int("max-routers", 0, "cap zoo network size (0 = paper's 240)")
	seed := flag.Int64("seed", 1, "experiment seed")
	budget := flag.Int64("budget", 50_000_000, "saturation work budget (timeout analogue, 0 = unlimited)")
	parallel := flag.Int("parallel", 1, "worker goroutines for -figure4, -bench-ladder, -check-ladder, -bench-scenario and -bench-sweep (1 = sequential, best timing fidelity)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner:", err)
			}
		}()
	}

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		// Dispatch on the embedded schema string.
		schema := experiments.BenchVerifySchema
		switch {
		case bytes.Contains(data, []byte(experiments.BenchScenarioSchema)):
			schema = experiments.BenchScenarioSchema
			err = experiments.ValidateBenchScenario(data)
		case bytes.Contains(data, []byte(experiments.BenchSweepSchema)):
			schema = experiments.BenchSweepSchema
			err = experiments.ValidateBenchSweep(data)
		default:
			err = experiments.ValidateBenchVerify(data)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid (%s)\n", *validate, schema)
		return
	}
	if !*table1 && !*figure4 && !*ablation && !*benchLadder && !*checkLadder && !*benchScenario && !*benchSweep {
		fmt.Fprintln(os.Stderr, "benchrunner: pass at least one of -table1, -figure4, -ablation, -bench-ladder, -check-ladder, -bench-scenario, -bench-sweep")
		os.Exit(2)
	}
	if *checkLadder {
		lines, err := experiments.CheckBenchLadder(experiments.LadderGateConfig{
			Dir: *ladderDir, Workers: *parallel,
			Tol: *ladderTol, MemTol: *ladderMemTol, Only: *ladderRung,
		})
		fmt.Printf("== Bench ladder regression gate (tol %.0f%%, mem-tol %.0f%%) ==\n",
			*ladderTol*100, *ladderMemTol*100)
		for _, l := range lines {
			fmt.Println("  ", l)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
	}
	if *benchLadder {
		paths, reps, err := experiments.RunBenchLadder(*ladderDir, *parallel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		fmt.Printf("== Bench ladder: %d workloads ==\n", len(reps))
		errors := 0
		for i, rep := range reps {
			errors += rep.Errors
			fmt.Printf("   %-16s %d×%d queries  p50=%.2fms p90=%.2fms max=%.2fms  early-accepts=%d  errors=%d  → %s\n",
				rep.Network, rep.Repeat, rep.Queries,
				rep.LatencyMS.P50, rep.LatencyMS.P90, rep.LatencyMS.Max,
				rep.Saturation.EarlyAccepts, rep.Errors, paths[i])
		}
		if errors > 0 {
			fmt.Fprintf(os.Stderr, "benchrunner: ladder finished with %d verification errors\n", errors)
			os.Exit(1)
		}
	}
	if *benchScenario {
		rep, err := experiments.BenchScenario(experiments.BenchScenarioConfig{
			Workers: *parallel, Budget: *budget, Seed: *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		if err := experiments.WriteBenchScenario(*scenarioOut, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		data, err := os.ReadFile(*scenarioOut)
		if err == nil {
			err = experiments.ValidateBenchScenario(data)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		fmt.Printf("== Scenario bench: %d queries on %s (%d routers), delta %q ==\n",
			rep.Queries, rep.Network, rep.Routers, rep.Delta)
		fmt.Printf("   cold         %8.2fms  %4d blocks built\n",
			rep.Cold.ElapsedMS, rep.Cold.BlocksRebuilt)
		fmt.Printf("   incremental  %8.2fms  %4d reused / %d rebuilt (%.0f%% reuse)\n",
			rep.Incremental.ElapsedMS, rep.Incremental.BlocksReused,
			rep.Incremental.BlocksRebuilt, rep.Incremental.ReuseRate*100)
		fmt.Printf("   from-scratch %8.2fms  0 reused (speedup %.2fx)\n",
			rep.Scratch.ElapsedMS, rep.SpeedupX)
		fmt.Printf("   wrote %s\n", *scenarioOut)
	}
	if *benchSweep {
		rep, err := experiments.BenchSweep(experiments.BenchSweepConfig{
			Routers: *sweepRouters, Invariants: *sweepInvariants, Depth: *sweepDepth,
			Workers: *parallel, Budget: *budget, Seed: *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		if err := experiments.WriteBenchSweep(*sweepOut, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		r := rep.Report
		fmt.Printf("== Resilience sweep: %s depth=%d  %d links, %d scenarios × %d invariants ==\n",
			r.Network, r.Depth, r.Links, r.Scenarios, len(r.Invariants))
		for _, inv := range r.Invariants {
			fmt.Printf("   %-60s breaking=%d (%d minimal)\n",
				truncate(inv.Query, 60), inv.Breaking, len(inv.MinimalBreaking))
		}
		fmt.Printf("   cache: %d blocks reused / %d rebuilt (%.0f%% reuse)\n",
			r.Cache.BlocksReused, r.Cache.BlocksRebuilt, r.Cache.ReuseRate*100)
		fmt.Printf("   latency p50=%.2fms p90=%.2fms p99=%.2fms max=%.2fms  elapsed=%.0fms\n",
			r.LatencyMS.P50, r.LatencyMS.P90, r.LatencyMS.P99, r.LatencyMS.Max, r.ElapsedMS)
		fmt.Printf("   wrote %s\n", *sweepOut)
	}
	if *table1 {
		fmt.Printf("== Table 1: query verification time (seconds) ==\n")
		fmt.Printf("   nordunet services=%d edge=%d seed=%d\n\n", *services, *edge, *seed)
		rows := experiments.Table1(experiments.Table1Config{
			Services: *services, Edge: *edge, Seed: *seed, Budget: *budget,
		})
		experiments.PrintTable1(os.Stdout, rows)
		fmt.Println()
	}
	if *figure4 {
		fmt.Printf("== Figure 4: cactus comparison on Topology-Zoo-style networks ==\n")
		fmt.Printf("   networks=%d queries/net=%d seed=%d budget=%d\n\n",
			*networks, *perNet, *seed, *budget)
		res := experiments.Figure4(experiments.Figure4Config{
			Networks: *networks, PerNet: *perNet, Seed: *seed,
			Budget: *budget, MaxRouter: *maxRouters, Parallel: *parallel,
		})
		experiments.PrintFigure4(os.Stdout, res)
		fmt.Println()
	}
	if *ablation {
		runAblation(*seed, *budget)
	}
}

// runAblation compares the engine with and without the reduction pass, and
// the over-approximation-only mode against the full dual pipeline.
func runAblation(seed, budget int64) {
	fmt.Printf("== Ablation: reduction pass on/off (dual engine) ==\n")
	s := gen.Nordunet(gen.NordOpts{Services: 4, EdgeRouters: 16, Seed: seed})
	spec := weight.Spec{{{Coeff: 1, Q: weight.Failures}}}
	for _, q := range s.Table1Queries() {
		t0 := time.Now()
		a, errA := engine.VerifyText(s.Net, q.Text, engine.Options{Budget: budget})
		dA := time.Since(t0)
		t0 = time.Now()
		b, errB := engine.VerifyText(s.Net, q.Text, engine.Options{Budget: budget, NoReductions: true})
		dB := time.Since(t0)
		if errA != nil || errB != nil {
			fmt.Printf("%-60s error/timeout (%v / %v)\n", truncate(q.Text, 60), errA, errB)
			continue
		}
		fmt.Printf("%-60s reduced=%7.2fs (%6d rules)  full=%7.2fs (%6d rules)  verdict=%s/%s\n",
			truncate(q.Text, 60),
			dA.Seconds(), a.Stats.OverRules,
			dB.Seconds(), b.Stats.OverRules,
			a.Verdict, b.Verdict)
	}
	fmt.Printf("\n== Ablation: weighted quantities (same query, different specs) ==\n")
	q := s.Table1Queries()[0]
	specs := map[string]weight.Spec{
		"unweighted": nil,
		"failures":   spec,
		"hops":       {{{Coeff: 1, Q: weight.Hops}}},
		"distance":   {{{Coeff: 1, Q: weight.Distance}}},
		"tunnels":    {{{Coeff: 1, Q: weight.Tunnels}}},
		"combined":   {{{Coeff: 1, Q: weight.Hops}}, {{Coeff: 1, Q: weight.Failures}, {Coeff: 3, Q: weight.Tunnels}}},
	}
	for _, name := range []string{"unweighted", "failures", "hops", "distance", "tunnels", "combined"} {
		t0 := time.Now()
		res, err := engine.VerifyText(s.Net, q.Text, engine.Options{Spec: specs[name], Budget: budget})
		d := time.Since(t0)
		if err != nil {
			fmt.Printf("%-12s error/timeout: %v\n", name, err)
			continue
		}
		fmt.Printf("%-12s %7.2fs verdict=%s weight=%v\n", name, d.Seconds(), res.Verdict, res.Weight)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
