package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchVerifyRunningExample runs the benchmark on the running
// example and checks the report end to end: internal consistency
// (via the validator), warm-cache behaviour and non-zero saturation work.
func TestBenchVerifyRunningExample(t *testing.T) {
	rep, err := BenchVerify(BenchVerifyConfig{Repeat: 2, Workers: 2, Seed: 1})
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
	// The second sweep runs entirely from the warm cache.
	if rep.Cache.Hits == 0 {
		t.Errorf("cache hits = 0 over %d runs of %d queries", rep.Runs, rep.Queries)
	}
	if rep.Saturation.WorklistPops == 0 || rep.Saturation.TransInserted == 0 {
		t.Errorf("saturation counters empty: %+v", rep.Saturation)
	}
	if rep.LatencyMS.Max <= 0 {
		t.Errorf("latency max = %g, want > 0", rep.LatencyMS.Max)
	}
}

func TestBenchVerifyWriteAtomic(t *testing.T) {
	rep, err := BenchVerify(BenchVerifyConfig{Repeat: 1, Workers: 1, Seed: 1})
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
	rep, err := BenchVerify(BenchVerifyConfig{Repeat: 1, Workers: 1, Seed: 1})
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
	cases := map[string]struct {
		data []byte
		want string // substring of the error
	}{
		"bad schema":       {mutate(func(r *BenchVerifyReport) { r.Schema = "v0" }), "schema"},
		"run mismatch":     {mutate(func(r *BenchVerifyReport) { r.Runs++ }), "runs="},
		"verdict mismatch": {mutate(func(r *BenchVerifyReport) { r.Verdicts["satisfied"] += 2 }), "verdicts+errors"},
		"bad percentiles":  {mutate(func(r *BenchVerifyReport) { r.LatencyMS.P50 = r.LatencyMS.Max + 1 }), "percentiles"},
		"cache arithmetic": {mutate(func(r *BenchVerifyReport) { r.Cache.Hits++ }), "cache gets"},
		"unknown field":    {[]byte(`{"schema":"` + BenchVerifySchema + `","bogus":1}`), "parse"},
		"not json":         {[]byte("{"), "parse"},
	}
	for name, c := range cases {
		if err := ValidateBenchVerify(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, c.want)
		}
	}
}
