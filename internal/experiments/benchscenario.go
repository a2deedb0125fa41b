package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"aalwines/internal/batch"
	"aalwines/internal/engine"
	"aalwines/internal/gen"
	"aalwines/internal/scenario"
	"aalwines/internal/topology"
)

// BenchScenarioSchema identifies the BENCH_scenario.json document layout.
const BenchScenarioSchema = "aalwines/bench-scenario/v1"

// BenchScenarioConfig configures the what-if benchmark: a zoo workload is
// verified cold, then a single link failure is applied and the same query
// set re-verified twice — once through the incremental scenario session
// (which reuses translated rule blocks for every untouched router) and once
// from scratch on a materialized copy (which reuses nothing). The report
// quantifies how much translation work the session saved.
type BenchScenarioConfig struct {
	// Workers is the batch pool size (0 = GOMAXPROCS).
	Workers int
	// Budget bounds saturation work per direction (0 = unlimited).
	Budget int64
	// Seed drives the network, the query set and the failed-link choice.
	Seed int64
}

// The what-if benchmark's zoo size (matching the ladder's zoo rung) and
// synthesised query count.
const (
	benchScenarioRouters = 30
	benchScenarioQueries = 12
)

// BenchScenarioPhase reports one verification sweep of the query set.
type BenchScenarioPhase struct {
	ElapsedMS     float64 `json:"elapsedMs"`
	BlocksReused  int     `json:"blocksReused"`
	BlocksRebuilt int     `json:"blocksRebuilt"`
	// ReuseRate is reused/(reused+rebuilt); 0 when no blocks moved.
	ReuseRate float64 `json:"reuseRate"`
	Errors    int     `json:"errors"`
}

// BenchScenarioReport is the content of BENCH_scenario.json.
type BenchScenarioReport struct {
	Schema  string `json:"schema"`
	Network string `json:"network"`
	Routers int    `json:"routers"`
	Queries int    `json:"queries"`
	Workers int    `json:"workers"`
	Seed    int64  `json:"seed"`
	Budget  int64  `json:"budget"`
	// Delta is the canonical form of the applied what-if mutation.
	Delta string `json:"delta"`
	// Cold is the initial sweep on the unmutated network: every rule block
	// is built for the first time.
	Cold BenchScenarioPhase `json:"cold"`
	// Incremental re-verifies after the failure through the session: only
	// blocks owned by routers the delta touches rebuild.
	Incremental BenchScenarioPhase `json:"incremental"`
	// Scratch verifies the same mutated network on a fresh runner with no
	// block store: by construction nothing is reused.
	Scratch BenchScenarioPhase `json:"scratch"`
	// SpeedupX is scratch elapsed over incremental elapsed.
	SpeedupX  float64 `json:"speedupX"`
	ElapsedMS float64 `json:"elapsedMs"`
}

// BenchScenario runs the what-if benchmark and returns its report.
func BenchScenario(cfg BenchScenarioConfig) (*BenchScenarioReport, error) {
	s := gen.Zoo(gen.ZooOpts{Routers: benchScenarioRouters, Seed: cfg.Seed, Protection: true})
	var queries []string
	for _, q := range s.Queries(benchScenarioQueries, cfg.Seed) {
		queries = append(queries, q.Text)
	}
	bopts := batch.Options{
		Workers: cfg.Workers,
		Engine:  engine.Options{Budget: cfg.Budget},
	}

	sess := scenario.NewSession(s.Net)
	defer sess.Close()
	start := time.Now()

	cold, err := scenarioSweep(sess, queries, bopts)
	if err != nil {
		return nil, err
	}

	// One deterministic single-link failure; links come in directed pairs,
	// so an arbitrary index is as good as any.
	link := topology.LinkID(int(cfg.Seed) % s.Net.Topo.NumLinks())
	cmd := "fail " + s.Net.Topo.LinkName(link)
	if _, err := sess.ApplyText(cmd); err != nil {
		return nil, fmt.Errorf("benchscenario: %q: %w", cmd, err)
	}
	incr, err := scenarioSweep(sess, queries, bopts)
	if err != nil {
		return nil, err
	}

	// From-scratch baseline: same mutated network, no block store.
	scratchRunner := batch.NewRunner(sess.MaterializeFresh())
	t0 := time.Now()
	scratchResults := scratchRunner.Verify(context.Background(), queries, bopts)
	scratch := BenchScenarioPhase{ElapsedMS: time.Since(t0).Seconds() * 1000}
	for _, r := range scratchResults {
		if r.Err != nil {
			scratch.Errors++
		}
	}

	rep := &BenchScenarioReport{
		Schema:      BenchScenarioSchema,
		Network:     s.Net.Name,
		Routers:     benchScenarioRouters,
		Queries:     len(queries),
		Workers:     cfg.Workers,
		Seed:        cfg.Seed,
		Budget:      cfg.Budget,
		Delta:       cmd,
		Cold:        cold,
		Incremental: incr,
		Scratch:     scratch,
		ElapsedMS:   time.Since(start).Seconds() * 1000,
	}
	if incr.ElapsedMS > 0 {
		rep.SpeedupX = scratch.ElapsedMS / incr.ElapsedMS
	}
	return rep, nil
}

// scenarioSweep runs the query set through the session once and reports the
// block-store activity it caused.
func scenarioSweep(sess *scenario.Session, queries []string, bopts batch.Options) (BenchScenarioPhase, error) {
	pre := sess.BlockStats()
	t0 := time.Now()
	results := sess.VerifyBatch(context.Background(), queries, bopts)
	ph := BenchScenarioPhase{ElapsedMS: time.Since(t0).Seconds() * 1000}
	post := sess.BlockStats()
	ph.BlocksReused = post.BlocksReused - pre.BlocksReused
	ph.BlocksRebuilt = post.BlocksRebuilt - pre.BlocksRebuilt
	if moved := ph.BlocksReused + ph.BlocksRebuilt; moved > 0 {
		ph.ReuseRate = float64(ph.BlocksReused) / float64(moved)
	}
	for _, r := range results {
		if r.Err != nil {
			ph.Errors++
		}
	}
	return ph, nil
}

// WriteBenchScenario writes the report to path atomically after validating
// it against its own schema (WriteReport).
func WriteBenchScenario(path string, rep *BenchScenarioReport) error {
	return WriteReport(path, rep, ValidateBenchScenario)
}

// ValidateBenchScenario checks that data is a well-formed
// BENCH_scenario.json: strict field set, the expected schema string, and the
// benchmark's core claims — the from-scratch baseline reuses nothing while
// the incremental sweep after a single link failure reuses at least half of
// its rule blocks.
func ValidateBenchScenario(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep BenchScenarioReport
	if err := dec.Decode(&rep); err != nil {
		return fmt.Errorf("benchscenario: parse: %w", err)
	}
	if rep.Schema != BenchScenarioSchema {
		return fmt.Errorf("benchscenario: schema %q, want %q", rep.Schema, BenchScenarioSchema)
	}
	if rep.Network == "" || rep.Routers <= 0 || rep.Queries <= 0 {
		return fmt.Errorf("benchscenario: empty workload: %+v", rep)
	}
	if rep.Delta == "" {
		return fmt.Errorf("benchscenario: no delta recorded")
	}
	for _, ph := range []struct {
		name string
		p    BenchScenarioPhase
	}{{"cold", rep.Cold}, {"incremental", rep.Incremental}, {"scratch", rep.Scratch}} {
		p := ph.p
		if p.ElapsedMS < 0 || p.BlocksReused < 0 || p.BlocksRebuilt < 0 || p.Errors < 0 {
			return fmt.Errorf("benchscenario: negative %s phase: %+v", ph.name, p)
		}
		if p.ReuseRate < 0 || p.ReuseRate > 1 {
			return fmt.Errorf("benchscenario: %s reuse rate %g outside [0,1]", ph.name, p.ReuseRate)
		}
	}
	if rep.Cold.BlocksRebuilt == 0 {
		return fmt.Errorf("benchscenario: cold sweep built no blocks")
	}
	if rep.Scratch.BlocksReused != 0 || rep.Scratch.ReuseRate != 0 {
		return fmt.Errorf("benchscenario: from-scratch baseline reports reuse: %+v", rep.Scratch)
	}
	if rep.Incremental.ReuseRate < 0.5 {
		return fmt.Errorf("benchscenario: incremental reuse rate %.2f below the 0.5 floor",
			rep.Incremental.ReuseRate)
	}
	if rep.ElapsedMS < 0 {
		return fmt.Errorf("benchscenario: negative elapsed %g", rep.ElapsedMS)
	}
	return nil
}
