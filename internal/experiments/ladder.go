package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Bench-ladder regression gate. CI re-runs every rung of the ladder and
// compares the fresh report against the committed BENCH_verify_<name>.json
// baseline. Two classes of check apply per rung:
//
//   - determinism: the verdict histogram, the saturation work counters
//     (runs, pops, pushes, inserted transitions, early accepts, index
//     probes), the translation counters (rules emitted and kept, rule
//     blocks reused and rebuilt), cache gets and hits, and a sweep rung's
//     verdict matrix must match the baseline
//     EXACTLY. These are bit-reproducible for a fixed (network, seed)
//     workload run serially — translation and saturation are deterministic
//     — so any drift is a real behaviour change, not noise.
//   - timing: the fresh mean per-query latency must stay within tol
//     (default 15%) of the baseline, with a small absolute grace so
//     sub-millisecond rungs don't flake on scheduler jitter.
//
// A legitimate perf or behaviour change regenerates the baselines with
// `benchrunner -bench-ladder` and commits the new files.

// ladderGraceMS is the absolute latency slack added on top of the relative
// tolerance; CI runners share cores, and the smallest rung's mean is well
// under a millisecond.
const ladderGraceMS = 0.25

// Absolute slack for the memory gate, mirroring ladderGraceMS: the small
// rungs allocate a few megabytes per run, where GC timing alone moves the
// delta by more than any plausible tolerance percentage.
const (
	ladderMemGraceBytes  = 8 << 20
	ladderMemGraceAllocs = 50_000
)

// CompareBenchVerify checks a freshly measured report against a committed
// baseline of the same workload. tol is the relative mean-latency
// tolerance (0.15 = +15%); tol <= 0 skips the timing check. memTol gates
// alloc bytes and malloc counts per run the same way; it is skipped when
// <= 0. Memory figures are noisier than latency on a quiet machine, so
// memTol should be generous (the benchrunner default is 0.35).
func CompareBenchVerify(base, fresh *BenchVerifyReport, tol, memTol float64) error {
	if base.Network != fresh.Network || base.Queries != fresh.Queries ||
		base.Repeat != fresh.Repeat || base.Seed != fresh.Seed {
		return fmt.Errorf("workload mismatch: baseline (net=%s q=%d r=%d seed=%d), fresh (net=%s q=%d r=%d seed=%d)",
			base.Network, base.Queries, base.Repeat, base.Seed,
			fresh.Network, fresh.Queries, fresh.Repeat, fresh.Seed)
	}
	if fresh.Errors != 0 {
		return fmt.Errorf("%d verification errors", fresh.Errors)
	}
	for _, v := range []string{"unsatisfied", "satisfied", "inconclusive"} {
		if base.Verdicts[v] != fresh.Verdicts[v] {
			return fmt.Errorf("verdict drift: %s=%d, baseline %d", v, fresh.Verdicts[v], base.Verdicts[v])
		}
	}
	bs, fs := base.Saturation, fresh.Saturation
	bt, ft := base.Translation, fresh.Translation
	exact := []struct {
		name       string
		base, have int64
	}{
		{"saturation runs", bs.Runs, fs.Runs},
		{"worklist pops", bs.WorklistPops, fs.WorklistPops},
		{"worklist pushes", bs.WorklistPushes, fs.WorklistPushes},
		{"transitions inserted", bs.TransInserted, fs.TransInserted},
		{"early accepts", bs.EarlyAccepts, fs.EarlyAccepts},
		{"index probes", bs.IndexProbes, fs.IndexProbes},
		{"cache gets", base.Cache.Gets, fresh.Cache.Gets},
		{"cache hits", base.Cache.Hits, fresh.Cache.Hits},
		{"rules emitted", bt.RulesEmitted, ft.RulesEmitted},
		{"rules kept", bt.RulesKept, ft.RulesKept},
		{"blocks reused", bt.BlocksReused, ft.BlocksReused},
		{"blocks rebuilt", bt.BlocksRebuilt, ft.BlocksRebuilt},
	}
	for _, c := range exact {
		if c.base != c.have {
			return fmt.Errorf("work drift: %s=%d, baseline %d", c.name, c.have, c.base)
		}
	}
	// Compare the matrices in the form the baseline was stored in. Both
	// are plain data, so marshalling cannot fail.
	bsw, _ := json.Marshal(base.Sweep)
	fsw, _ := json.Marshal(fresh.Sweep)
	if !bytes.Equal(bsw, fsw) {
		return fmt.Errorf("sweep matrix drift: %s, baseline %s", fsw, bsw)
	}
	if tol > 0 {
		limit := base.LatencyMS.Mean*(1+tol) + ladderGraceMS
		if fresh.LatencyMS.Mean > limit {
			return fmt.Errorf("latency regression: mean %.3fms exceeds baseline %.3fms +%d%% (+%.2fms grace = %.3fms)",
				fresh.LatencyMS.Mean, base.LatencyMS.Mean, int(tol*100), ladderGraceMS, limit)
		}
	}
	if memTol > 0 {
		bm, fm := base.Memory, fresh.Memory
		if limit := float64(bm.AllocBytesPerRun)*(1+memTol) + ladderMemGraceBytes; float64(fm.AllocBytesPerRun) > limit {
			return fmt.Errorf("memory regression: %.1f MB/run exceeds baseline %.1f MB/run +%d%% (+%d MB grace)",
				float64(fm.AllocBytesPerRun)/(1<<20), float64(bm.AllocBytesPerRun)/(1<<20),
				int(memTol*100), ladderMemGraceBytes>>20)
		}
		if limit := float64(bm.AllocsPerRun)*(1+memTol) + ladderMemGraceAllocs; float64(fm.AllocsPerRun) > limit {
			return fmt.Errorf("memory regression: %d allocs/run exceeds baseline %d +%d%% (+%d grace)",
				fm.AllocsPerRun, bm.AllocsPerRun, int(memTol*100), ladderMemGraceAllocs)
		}
	}
	return nil
}

// LadderGateConfig configures the ladder regression gate.
type LadderGateConfig struct {
	// Dir holds the committed BENCH_verify_<rung>.json baselines.
	Dir string
	// Tol is the relative mean-latency tolerance (<= 0 disables timing).
	Tol float64
	// MemTol is the relative alloc-per-run tolerance (<= 0 disables the
	// memory gate).
	MemTol float64
	// Only restricts the gate to a comma-separated set of rung names
	// ("" = all); CI uses it to split the fast small-rung gate from the
	// bounded paper-scale smoke job.
	Only string
}

// ladderRungs returns the ladder rungs named in the comma-separated only
// ("" = all), in ladder order, and an error when it names none.
func ladderRungs(only string) ([]LadderRung, error) {
	if only == "" {
		return BenchLadder(), nil
	}
	names := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		names[strings.TrimSpace(name)] = true
	}
	var rungs []LadderRung
	for _, rung := range BenchLadder() {
		if names[rung.Name] {
			rungs = append(rungs, rung)
		}
	}
	if len(rungs) == 0 {
		return nil, fmt.Errorf("ladder: no rung matches %q", only)
	}
	return rungs, nil
}

// CheckBenchLadder re-runs every ladder rung (or just cfg.Only) and gates
// it against the committed baselines in cfg.Dir, without touching the
// baseline files. It returns one human-readable summary line per rung; the
// error aggregates every rung that failed its gate.
func CheckBenchLadder(cfg LadderGateConfig) ([]string, error) {
	rungs, err := ladderRungs(cfg.Only)
	if err != nil {
		return nil, err
	}
	var lines []string
	var failures []string
	for _, rung := range rungs {
		path := filepath.Join(cfg.Dir, "BENCH_verify_"+rung.Name+".json")
		data, err := os.ReadFile(path)
		if err != nil {
			return lines, fmt.Errorf("ladder baseline %s: %w", path, err)
		}
		base, err := ReadBenchVerify(data)
		if err != nil {
			return lines, fmt.Errorf("ladder baseline %s: %w", path, err)
		}
		fresh, err := BenchVerify(rung.Cfg)
		if err != nil {
			return lines, fmt.Errorf("ladder rung %s: %w", rung.Name, err)
		}
		if cerr := CompareBenchVerify(base, fresh, cfg.Tol, cfg.MemTol); cerr != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", rung.Name, cerr))
			lines = append(lines, fmt.Sprintf("%-18s FAIL  %v", rung.Name, cerr))
			continue
		}
		lines = append(lines, fmt.Sprintf("%-18s ok    mean=%.3fms (baseline %.3fms)  pops=%d  alloc/run=%.1fMB (baseline %.1fMB)",
			rung.Name, fresh.LatencyMS.Mean, base.LatencyMS.Mean, fresh.Saturation.WorklistPops,
			float64(fresh.Memory.AllocBytesPerRun)/(1<<20), float64(base.Memory.AllocBytesPerRun)/(1<<20)))
	}
	if len(failures) > 0 {
		return lines, fmt.Errorf("ladder regression gate: %d rung(s) failed:\n  %s",
			len(failures), strings.Join(failures, "\n  "))
	}
	return lines, nil
}

// ReadBenchVerify validates and parses a BENCH_verify document.
func ReadBenchVerify(data []byte) (*BenchVerifyReport, error) {
	if err := ValidateBenchVerify(data); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	rep := new(BenchVerifyReport)
	if err := dec.Decode(rep); err != nil {
		return nil, err
	}
	return rep, nil
}
