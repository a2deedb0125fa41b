// Package experiments implements the paper's performance evaluation (§5):
// Table 1 (six operator queries on the NORDUnet-style network, verified
// with the Moped-style baseline, the Dual engine and the weighted engine
// minimising Failures) and Figure 4 (a cactus plot of per-query
// verification times for the three engines over a family of Topology-Zoo-
// style networks, with the inconclusive-answer statistics). The same runs
// back both cmd/benchrunner and the root bench_test.go.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"aalwines/internal/batch"
	"aalwines/internal/engine"
	"aalwines/internal/gen"
	"aalwines/internal/moped"
	"aalwines/internal/weight"
)

// EngineKind identifies one of the three compared engines.
type EngineKind uint8

const (
	// Moped is the textbook baseline backend (unweighted).
	Moped EngineKind = iota
	// Dual is the optimised unweighted engine.
	Dual
	// Failures is the weighted engine minimising the Failures quantity.
	Failures
	// NumEngines is the engine count.
	NumEngines
)

// String names the engine as in the paper's tables.
func (e EngineKind) String() string {
	switch e {
	case Moped:
		return "Moped"
	case Dual:
		return "Dual"
	case Failures:
		return "Failures"
	default:
		return fmt.Sprintf("Engine(%d)", uint8(e))
	}
}

// Options returns the engine.Options for a kind. Budget bounds saturation
// work (the analogue of the paper's 10-minute timeout; 0 = unlimited).
func (e EngineKind) Options(budget int64) engine.Options {
	switch e {
	case Moped:
		return engine.Options{Saturate: moped.Poststar, Budget: budget}
	case Dual:
		return engine.Options{Budget: budget}
	default:
		return engine.Options{
			Spec:   weight.Spec{{{Coeff: 1, Q: weight.Failures}}},
			Budget: budget,
		}
	}
}

// Measurement is one engine × query run.
type Measurement struct {
	Engine   EngineKind
	Query    gen.GenQuery
	Network  string
	Time     time.Duration
	Verdict  engine.Verdict
	TimedOut bool
	Err      error
}

// RunOne verifies one query with one engine.
func RunOne(s *gen.Synth, q gen.GenQuery, kind EngineKind, budget int64) Measurement {
	t0 := time.Now()
	res, err := engine.VerifyText(s.Net, q.Text, kind.Options(budget))
	m := Measurement{
		Engine: kind, Query: q, Network: s.Net.Name,
		Time: time.Since(t0), Verdict: res.Verdict,
	}
	if err != nil {
		if errors.Is(err, engine.ErrBudget) {
			m.TimedOut = true
		} else {
			m.Err = err
		}
	}
	return m
}

// Table1Config parameterises the Table 1 run.
type Table1Config struct {
	Services int // service chains per pair (paper scale ≈ 40 with Edge 31)
	Edge     int // edge routers (31 = every PoP)
	Seed     int64
	Budget   int64
}

// Table1Row is one row of Table 1: per-engine verification time for one
// query.
type Table1Row struct {
	Query gen.GenQuery
	Times [NumEngines]time.Duration
	Out   [NumEngines]bool // timed out
	Verd  [NumEngines]engine.Verdict
}

// Table1 runs the six Table 1 queries against all three engines.
func Table1(cfg Table1Config) []Table1Row {
	if cfg.Services == 0 {
		cfg.Services = 4
	}
	if cfg.Edge == 0 {
		cfg.Edge = 16
	}
	s := gen.Nordunet(gen.NordOpts{Services: cfg.Services, EdgeRouters: cfg.Edge, Seed: cfg.Seed})
	var rows []Table1Row
	for _, q := range s.Table1Queries() {
		row := Table1Row{Query: q}
		for k := EngineKind(0); k < NumEngines; k++ {
			m := RunOne(s, q, k, cfg.Budget)
			row.Times[k] = m.Time
			row.Out[k] = m.TimedOut
			row.Verd[k] = m.Verdict
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintTable1 renders the rows like the paper's Table 1 (seconds).
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-70s %10s %10s %10s\n", "Query", "Moped", "Dual", "Failures")
	for _, r := range rows {
		fmt.Fprintf(w, "%-70s", truncate(r.Query.Text, 70))
		for k := EngineKind(0); k < NumEngines; k++ {
			if r.Out[k] {
				fmt.Fprintf(w, " %10s", "timeout")
			} else {
				fmt.Fprintf(w, " %10.2f", r.Times[k].Seconds())
			}
		}
		fmt.Fprintf(w, "   [%s]\n", r.Verd[Dual])
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// Figure4Config parameterises the Figure 4 sweep. The paper runs 5602
// experiments; Scale lets smaller runs keep the same shape.
type Figure4Config struct {
	Networks  int // number of zoo networks
	PerNet    int // queries per network
	Seed      int64
	Budget    int64 // per-direction saturation budget (timeout analogue)
	MaxRouter int   // cap on network size (0 = the paper's 240)
	// Parallel is the batch worker pool per (network, engine) sweep; the
	// sweep runs on a per-network batch.Runner, so the three engines share
	// each network's translated pushdown systems. 0 or 1 = sequential;
	// parallel runs trade per-measurement timing fidelity for wall-clock
	// throughput.
	Parallel int
}

// Figure4Result aggregates the sweep.
type Figure4Result struct {
	// Sorted per-engine verification times (the cactus plot series);
	// timed-out runs are excluded, matching the paper's plot.
	Series [NumEngines][]time.Duration
	// Solved counts per engine (completed within budget).
	Solved [NumEngines]int
	// Inconclusive counts per engine over completed runs (E1).
	Inconclusive [NumEngines]int
	// Satisfied counts per engine.
	Satisfied [NumEngines]int
	// Total experiments per engine.
	Total int
}

// Figure4 runs the sweep. Engines run on identical network/query sets.
func Figure4(cfg Figure4Config) *Figure4Result {
	if cfg.Networks == 0 {
		cfg.Networks = 8
	}
	if cfg.PerNet == 0 {
		cfg.PerNet = 15
	}
	sizes := gen.ZooSizes(cfg.Networks, cfg.Seed)
	if cfg.MaxRouter > 0 {
		for i := range sizes {
			if sizes[i] > cfg.MaxRouter {
				sizes[i] = cfg.MaxRouter
			}
		}
	}
	res := &Figure4Result{}
	workers := cfg.Parallel
	if workers < 1 {
		workers = 1
	}
	var measurements []Measurement
	for i, size := range sizes {
		s := gen.Zoo(gen.ZooOpts{Routers: size, Seed: cfg.Seed + int64(i), Protection: true})
		qs := s.Queries(cfg.PerNet, cfg.Seed+int64(1000+i))
		res.Total += len(qs)
		texts := make([]string, len(qs))
		for j, q := range qs {
			texts[j] = q.Text
		}
		// One runner per network: the three engine sweeps share its
		// parsed queries; each run builds its own pushdown system.
		runner := batch.NewRunner(s.Net)
		for k := EngineKind(0); k < NumEngines; k++ {
			rs := runner.Verify(context.Background(), texts, batch.Options{
				Workers: workers, Engine: k.Options(cfg.Budget),
			})
			for j, r := range rs {
				m := Measurement{
					Engine: k, Query: qs[j], Network: s.Net.Name,
					Time: r.Elapsed, Verdict: r.Res.Verdict,
				}
				if r.Err != nil {
					if errors.Is(r.Err, engine.ErrBudget) {
						m.TimedOut = true
					} else {
						m.Err = r.Err
					}
				}
				measurements = append(measurements, m)
			}
		}
	}
	for _, m := range measurements {
		if m.Err != nil || m.TimedOut {
			continue
		}
		k := m.Engine
		res.Solved[k]++
		res.Series[k] = append(res.Series[k], m.Time)
		switch m.Verdict {
		case engine.Inconclusive:
			res.Inconclusive[k]++
		case engine.Satisfied:
			res.Satisfied[k]++
		}
	}
	for k := range res.Series {
		sort.Slice(res.Series[k], func(i, j int) bool { return res.Series[k][i] < res.Series[k][j] })
	}
	return res
}

// PrintFigure4 renders the cactus series as CSV (rank, then one time column
// per engine in seconds) followed by the summary block with the solved and
// inconclusive statistics the paper reports in §5.
func PrintFigure4(w io.Writer, r *Figure4Result) {
	fmt.Fprintf(w, "# cactus series: verification time per solved instance, sorted\n")
	fmt.Fprintf(w, "rank,moped,dual,failures\n")
	maxLen := 0
	for k := range r.Series {
		if len(r.Series[k]) > maxLen {
			maxLen = len(r.Series[k])
		}
	}
	for i := 0; i < maxLen; i++ {
		fmt.Fprintf(w, "%d", i+1)
		for k := EngineKind(0); k < NumEngines; k++ {
			if i < len(r.Series[k]) {
				fmt.Fprintf(w, ",%.6f", r.Series[k][i].Seconds())
			} else {
				fmt.Fprintf(w, ",")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\n# summary over %d experiments per engine\n", r.Total)
	for k := EngineKind(0); k < NumEngines; k++ {
		pct := 0.0
		if r.Solved[k] > 0 {
			pct = 100 * float64(r.Inconclusive[k]) / float64(r.Solved[k])
		}
		fmt.Fprintf(w, "%-9s solved=%d/%d satisfied=%d inconclusive=%d (%.2f%%)\n",
			k, r.Solved[k], r.Total, r.Satisfied[k], r.Inconclusive[k], pct)
	}
}
