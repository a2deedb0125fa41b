package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestLadderPaperScaleRules pins the tentpole claim behind the
// nordunet-svc-250k rung: its generator emits a dataplane of more than
// 250k rules, the scale of the paper's heaviest NORDUnet configuration.
func TestLadderPaperScaleRules(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation in -short mode")
	}
	var cfg BenchVerifyConfig
	for _, rung := range BenchLadder() {
		if rung.Name == "nordunet-svc-250k" {
			cfg = rung.Cfg
		}
	}
	if cfg.Network == "" {
		t.Fatal("ladder has no nordunet-svc-250k rung")
	}
	net, queries, err := benchWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := net.Routing.NumRules(); n <= 250_000 {
		t.Fatalf("nordunet-svc-250k rung has %d rules, want > 250000", n)
	}
	if len(queries) == 0 {
		t.Fatal("rung resolved no queries")
	}
}

// TestLadderHasPaperScaleRungs keeps the rung set aligned with the
// documented ladder: anyone dropping a rung also has to touch this test.
func TestLadderHasPaperScaleRungs(t *testing.T) {
	want := map[string]bool{
		"running-example": false, "zoo": false, "nordunet": false,
		"fattree-k8": false, "zoo-240": false, "nordunet-svc-250k": false,
	}
	for _, rung := range BenchLadder() {
		if _, ok := want[rung.Name]; !ok {
			t.Errorf("unexpected rung %q", rung.Name)
		}
		want[rung.Name] = true
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("ladder is missing rung %q", name)
		}
	}
}

// TestReadBenchVerifyV1Compat checks that a pre-memory bench-verify/v1
// report no longer reads: the ladder gate's reader rejects it with a schema
// error instead of silently skipping the memory gate, and a v2 report must
// carry its memory block.
func TestReadBenchVerifyV1Compat(t *testing.T) {
	rep, err := BenchVerify(BenchVerifyConfig{Repeat: 1, Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != BenchVerifySchema || rep.Memory == nil {
		t.Fatalf("fresh report should be %s with a memory block, got %s / %v",
			BenchVerifySchema, rep.Schema, rep.Memory)
	}

	v1 := *rep
	v1.Schema = "aalwines/bench-verify/v1"
	v1.Memory = nil
	data, err := json.MarshalIndent(&v1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchVerify(data); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("v1 document: got %v, want schema error", err)
	}

	v2 := *rep
	v2.Memory = nil
	data, _ = json.MarshalIndent(&v2, "", "  ")
	if _, err := ReadBenchVerify(data); err == nil || !strings.Contains(err.Error(), "memory") {
		t.Fatalf("v2 without memory block: got %v, want memory error", err)
	}
}

// TestCompareBenchVerifyMemoryGate exercises the alloc-per-run gate: a
// regression beyond tolerance+grace fails, one inside the envelope passes,
// and memTol <= 0 disables the gate entirely.
func TestCompareBenchVerifyMemoryGate(t *testing.T) {
	base, err := BenchVerify(BenchVerifyConfig{Repeat: 1, Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fresh := *base
	mem := *base.Memory
	fresh.Memory = &mem

	if err := CompareBenchVerify(base, &fresh, 0, 0.35); err != nil {
		t.Fatalf("identical memory failed the gate: %v", err)
	}
	mem.AllocBytesPerRun = base.Memory.AllocBytesPerRun*2 + 2*ladderMemGraceBytes
	if err := CompareBenchVerify(base, &fresh, 0, 0.35); err == nil {
		t.Fatal("2x alloc bytes (beyond grace) passed the gate")
	}
	if err := CompareBenchVerify(base, &fresh, 0, 0); err != nil {
		t.Fatalf("memTol 0 should disable the gate: %v", err)
	}
	mem.AllocBytesPerRun = base.Memory.AllocBytesPerRun
	mem.AllocsPerRun = base.Memory.AllocsPerRun*2 + 2*ladderMemGraceAllocs
	if err := CompareBenchVerify(base, &fresh, 0, 0.35); err == nil {
		t.Fatal("2x allocs/run (beyond grace) passed the gate")
	}
}
