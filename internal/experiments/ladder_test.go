package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"aalwines/internal/sweep"
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
		"scenario-zoo": false, "sweep-zoo-16": false,
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

// TestReadBenchVerifyV1Compat checks that a report of an older schema no
// longer reads: the ladder gate's reader rejects bench-verify/v2 and v3
// documents with a schema error, not by their first unknown field, and a
// current report must carry its memory block.
func TestReadBenchVerifyV1Compat(t *testing.T) {
	rep, err := BenchVerify(BenchVerifyConfig{Repeat: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != BenchVerifySchema || rep.Memory == nil {
		t.Fatalf("fresh report should be %s with a memory block, got %s / %v",
			BenchVerifySchema, rep.Schema, rep.Memory)
	}

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	old := func(schema string, extra func(doc map[string]any)) []byte {
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		doc["schema"] = schema
		extra(doc)
		out, _ := json.MarshalIndent(doc, "", "  ")
		return out
	}
	v2 := old("aalwines/bench-verify/v2", func(doc map[string]any) {
		doc["workers"] = 1
		doc["budget"] = 0
	})
	v3 := old("aalwines/bench-verify/v3", func(map[string]any) {})
	for name, doc := range map[string][]byte{"v2": v2, "v3": v3} {
		if _, err := ReadBenchVerify(doc); err == nil || !strings.Contains(err.Error(), "schema") {
			t.Fatalf("%s document: got %v, want schema error", name, err)
		}
	}

	noMem := *rep
	noMem.Memory = nil
	data, _ = json.MarshalIndent(&noMem, "", "  ")
	if _, err := ReadBenchVerify(data); err == nil || !strings.Contains(err.Error(), "memory") {
		t.Fatalf("report without memory block: got %v, want memory error", err)
	}
}

// TestCompareBenchVerifyExactGate adds one to each exactly gated figure in
// turn and expects the gate to fail naming it.
func TestCompareBenchVerifyExactGate(t *testing.T) {
	base, err := BenchVerify(BenchVerifyConfig{Repeat: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base.Sweep = []sweep.InvariantReport{{Query: "q", Baseline: "satisfied",
		Verdicts: map[string]int{"satisfied": 2}, MinimalBreaking: [][]string{}}}
	cases := map[string]func(r *BenchVerifyReport){
		"saturation runs":      func(r *BenchVerifyReport) { r.Saturation.Runs++ },
		"worklist pops":        func(r *BenchVerifyReport) { r.Saturation.WorklistPops++ },
		"worklist pushes":      func(r *BenchVerifyReport) { r.Saturation.WorklistPushes++ },
		"transitions inserted": func(r *BenchVerifyReport) { r.Saturation.TransInserted++ },
		"early accepts":        func(r *BenchVerifyReport) { r.Saturation.EarlyAccepts++ },
		"index probes":         func(r *BenchVerifyReport) { r.Saturation.IndexProbes++ },
		"cache gets":           func(r *BenchVerifyReport) { r.Cache.Gets++ },
		"cache hits":           func(r *BenchVerifyReport) { r.Cache.Hits++ },
		"rules emitted":        func(r *BenchVerifyReport) { r.Translation.RulesEmitted++ },
		"rules kept":           func(r *BenchVerifyReport) { r.Translation.RulesKept++ },
		"blocks reused":        func(r *BenchVerifyReport) { r.Translation.BlocksReused++ },
		"blocks rebuilt":       func(r *BenchVerifyReport) { r.Translation.BlocksRebuilt++ },
		"sweep matrix":         func(r *BenchVerifyReport) { r.Sweep[0].Verdicts["satisfied"]++ },
	}
	fresh := func() *BenchVerifyReport {
		r := *base
		inv := base.Sweep[0]
		inv.Verdicts = map[string]int{"satisfied": 2}
		r.Sweep = []sweep.InvariantReport{inv}
		return &r
	}
	if err := CompareBenchVerify(base, fresh(), 0, 0); err != nil {
		t.Fatalf("identical report failed the gate: %v", err)
	}
	for name, bump := range cases {
		r := fresh()
		bump(r)
		if err := CompareBenchVerify(base, r, 0, 0); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s +1: got %v, want an error naming it", name, err)
		}
	}
}

// TestCompareBenchVerifyMemoryGate exercises the alloc-per-run gate: a
// regression beyond tolerance+grace fails, one inside the envelope passes,
// and memTol <= 0 disables the gate entirely.
func TestCompareBenchVerifyMemoryGate(t *testing.T) {
	base, err := BenchVerify(BenchVerifyConfig{Repeat: 1, Seed: 1})
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
