// Command benchrunner regenerates the paper's evaluation artefacts:
//
//	benchrunner -table1                 # Table 1 rows (3 engines × 6 queries)
//	benchrunner -figure4                # Figure 4 cactus series + summary
//	benchrunner -ablation               # reduction / dual-vs-over ablations
//	benchrunner -bench-ladder           # workload ladder: one report per rung
//	benchrunner -check-ladder           # gate the ladder against its baselines
//	benchrunner -validate FILE          # schema-check an existing report
//
// Scale knobs (-services, -networks, -queries, -budget) trade fidelity for
// runtime; EXPERIMENTS.md records the configurations used for the shipped
// results. Each ladder rung runs a fixed query set serially — through a
// batch runner, a what-if scenario session or a resilience sweep — and
// writes per-query latency percentiles, the translation-cache, translation
// and saturation counters, a sweep rung's verdict matrix and the memory
// block to BENCH_verify_<rung>.json (atomically: temp file + rename).
package main

import (
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
	ladderDir := flag.String("ladder-dir", ".", "output directory for -bench-ladder")
	validate := flag.String("validate", "", "validate an existing BENCH_verify_<rung>.json report and exit")

	services := flag.Int("services", 4, "NORDUnet service chains per pair (Table 1)")
	edge := flag.Int("edge", 16, "NORDUnet edge routers (Table 1)")
	networks := flag.Int("networks", 8, "zoo networks (Figure 4)")
	perNet := flag.Int("queries", 15, "queries per network (Figure 4)")
	maxRouters := flag.Int("max-routers", 0, "cap zoo network size (0 = paper's 240)")
	seed := flag.Int64("seed", 1, "experiment seed")
	budget := flag.Int64("budget", 50_000_000, "saturation work budget (timeout analogue, 0 = unlimited)")
	parallel := flag.Int("parallel", 1, "worker goroutines for -figure4 (1 = sequential, best timing fidelity)")
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
		if err := experiments.ValidateBenchVerify(data); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid (%s)\n", *validate, experiments.BenchVerifySchema)
		return
	}
	if !*table1 && !*figure4 && !*ablation && !*benchLadder && !*checkLadder {
		fmt.Fprintln(os.Stderr, "benchrunner: pass at least one of -table1, -figure4, -ablation, -bench-ladder, -check-ladder")
		os.Exit(2)
	}
	if *checkLadder {
		lines, err := experiments.CheckBenchLadder(experiments.LadderGateConfig{
			Dir: *ladderDir, Tol: *ladderTol, MemTol: *ladderMemTol, Only: *ladderRung,
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
		paths, reps, err := experiments.RunBenchLadder(*ladderDir)
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

// runAblation compares the eager product with and without the reduction
// pass, next to the default on-the-fly product, and runs one query under
// several weight specs.
func runAblation(seed, budget int64) {
	fmt.Printf("== Ablation: reduction pass on/off (eager product, dual engine), on-the-fly product alongside ==\n")
	s := gen.Nordunet(gen.NordOpts{Services: 4, EdgeRouters: 16, Seed: seed})
	spec := weight.Spec{{{Coeff: 1, Q: weight.Failures}}}
	for _, q := range s.Table1Queries() {
		var res [3]engine.Result
		var dur [3]time.Duration
		var errs [3]error
		for i, o := range []engine.Options{
			{Budget: budget, NoSlice: true},
			{Budget: budget, NoSlice: true, NoReductions: true},
			{Budget: budget},
		} {
			t0 := time.Now()
			res[i], errs[i] = engine.VerifyText(s.Net, q.Text, o)
			dur[i] = time.Since(t0)
		}
		if errs[0] != nil || errs[1] != nil || errs[2] != nil {
			fmt.Printf("%-60s error/timeout (%v / %v / %v)\n", truncate(q.Text, 60), errs[0], errs[1], errs[2])
			continue
		}
		fmt.Printf("%-60s reduced=%7.2fs (%6d rules)  full=%7.2fs (%6d rules)  on-the-fly=%7.2fs (%6d generated)  verdict=%s/%s/%s\n",
			truncate(q.Text, 60),
			dur[0].Seconds(), res[0].Stats.OverRules,
			dur[1].Seconds(), res[1].Stats.OverRules,
			dur[2].Seconds(), res[2].Stats.OverRulesGenerated,
			res[0].Verdict, res[1].Verdict, res[2].Verdict)
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
