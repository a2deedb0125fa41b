package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aalwines/internal/sweep"
)

// TestBenchVerifyRunningExample runs the benchmark on the running
// example and checks the report end to end: internal consistency
// (via the validator), per-run translation and non-zero saturation work.
func TestBenchVerifyRunningExample(t *testing.T) {
	rep, err := BenchVerify(BenchVerifyConfig{Repeat: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchVerify(data); err != nil {
		t.Fatalf("self-validation failed: %v", err)
	}
	if rep.Network != "running-example" || rep.Runs != rep.Queries*2 {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d, want 0", rep.Errors)
	}
	// A batch rung has no translation cache: every run builds its own
	// system, so two sweeps emit twice the rules of one.
	if rep.Cache != (BenchCache{}) {
		t.Errorf("batch rung cache = %+v, want all zero", rep.Cache)
	}
	one, err := BenchVerify(BenchVerifyConfig{Repeat: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e1, e2 := one.Translation.RulesEmitted, rep.Translation.RulesEmitted; e1 == 0 || e2 != 2*e1 {
		t.Errorf("rules emitted: %d over one sweep, %d over two; want twice a positive count", e1, e2)
	}
	if rep.Saturation.WorklistPops == 0 || rep.Saturation.TransInserted == 0 {
		t.Errorf("saturation counters empty: %+v", rep.Saturation)
	}
	if rep.LatencyMS.Max <= 0 {
		t.Errorf("latency max = %g, want > 0", rep.LatencyMS.Max)
	}
}

func TestBenchVerifyWriteAtomic(t *testing.T) {
	rep, err := BenchVerify(BenchVerifyConfig{Repeat: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_verify.json")
	if err := WriteBenchVerify(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchVerify(data); err != nil {
		t.Fatalf("written file invalid: %v", err)
	}
	// No stray temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries, want only the report", len(entries))
	}
}

func TestValidateBenchVerifyRejects(t *testing.T) {
	rep, err := BenchVerify(BenchVerifyConfig{Repeat: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(*BenchVerifyReport)) []byte {
		r := *rep
		// Deep-copy the verdict map so mutations do not leak across cases.
		r.Verdicts = map[string]int{}
		for k, v := range rep.Verdicts {
			r.Verdicts[k] = v
		}
		f(&r)
		data, _ := json.Marshal(&r)
		return data
	}
	// A sweep block over this one-pass report covers repeat−1 = 0 scenarios.
	cases := map[string]struct {
		data []byte
		want string // substring of the error
	}{
		"bad schema":       {mutate(func(r *BenchVerifyReport) { r.Schema = "v0" }), "schema"},
		"run mismatch":     {mutate(func(r *BenchVerifyReport) { r.Runs++ }), "runs="},
		"verdict mismatch": {mutate(func(r *BenchVerifyReport) { r.Verdicts["satisfied"] += 2 }), "verdicts+errors"},
		"bad percentiles":  {mutate(func(r *BenchVerifyReport) { r.LatencyMS.P50 = r.LatencyMS.Max + 1 }), "percentiles"},
		"cache arithmetic": {mutate(func(r *BenchVerifyReport) { r.Cache.Hits++ }), "cache gets"},
		"sweep verdict sum": {mutate(func(r *BenchVerifyReport) {
			r.Sweep = []sweep.InvariantReport{{Verdicts: map[string]int{"satisfied": 1}}}
		}), "verdicts+errors+incomplete"},
		"sweep minimal sets": {mutate(func(r *BenchVerifyReport) {
			r.Sweep = []sweep.InvariantReport{{Verdicts: map[string]int{}, MinimalBreaking: [][]string{{"l"}}}}
		}), "minimal sets exceed"},
		"unknown field": {[]byte(`{"schema":"` + BenchVerifySchema + `","bogus":1}`), "parse"},
		"not json":      {[]byte("{"), "parse"},
	}
	for name, c := range cases {
		if err := ValidateBenchVerify(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, c.want)
		}
	}
}
