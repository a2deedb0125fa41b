// Package sweep turns the paper's ≤k-failure query semantics inside out
// into a bulk workload: instead of asking "does the invariant survive up to
// k failures?" for one query, it enumerates the network's entire single-
// and double-link failure space, verifies every invariant in every
// scenario, and aggregates which concrete failure sets break which
// invariants — a resilience audit of the whole dataplane.
//
// Enumeration is deterministic and duplicate-free: all single-link
// scenarios in link-ID order, then (depth 2) all unordered pairs in
// lexicographic (i, j) order. The order is chosen for cache locality, not
// just reproducibility: neighbouring scenarios share all but one failed
// link, so between steps of a scenario session only the routing keys that
// link's failure or restoration changes take new content, and the
// incremental translation cache (translate.SessionCache) re-emits only
// the rule blocks of keys whose content it has not translated before.
// Scheduling preserves that locality — the scenario list is split into
// contiguous chunks, one long-lived scenario.Session per worker, and each
// scenario's invariant batch runs on the session's batch pool. Verdicts
// are byte-identical to verifying each failure set through an independent
// fresh session (see diff_test.go); a sweep is a reporting layer, never a
// different semantics.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"aalwines/internal/batch"
	"aalwines/internal/engine"
	"aalwines/internal/network"
	"aalwines/internal/obs"
	"aalwines/internal/query"
	"aalwines/internal/scenario"
	"aalwines/internal/topology"
)

var (
	mRuns            = obs.GetCounter("sweep_runs_total")
	mScenarios       = obs.GetCounter("sweep_scenarios_total")
	mCells           = obs.GetCounter("sweep_cells_total")
	mCellsIncomplete = obs.GetCounter("sweep_cells_incomplete_total")
	mCellSeconds     = obs.GetHistogram("sweep_cell_seconds", nil)
)

// Scenario is one failure set of the sweep: the links failed together, in
// ascending link-ID order.
type Scenario struct {
	// ID is the scenario's position in enumeration order.
	ID int
	// Links are the failed links, ascending; length 1 or 2.
	Links []topology.LinkID
}

// Deltas compiles the failure set into the delta stack a scenario session
// applies: one fail command per link, in Links order.
func (sc Scenario) Deltas(g *topology.Graph) []scenario.Delta {
	ds := make([]scenario.Delta, len(sc.Links))
	for i, l := range sc.Links {
		ds[i] = scenario.Delta{Kind: scenario.FailLink, Link: g.LinkName(l)}
	}
	return ds
}

// LinkNames renders the failure set's links in the query language's link
// syntax.
func (sc Scenario) LinkNames(g *topology.Graph) []string {
	names := make([]string, len(sc.Links))
	for i, l := range sc.Links {
		names[i] = g.LinkName(l)
	}
	return names
}

// Enumerate lists the failure scenarios of the graph's links. Depth 1
// yields the C(n,1) single-link scenarios in link-ID order; depth 2
// appends the C(n,2) unordered pairs in lexicographic (i, j) order, i < j,
// so the whole space is covered exactly once and consecutive pair
// scenarios share their first link (the cache-locality property the
// scheduler relies on).
func Enumerate(g *topology.Graph, depth int) ([]Scenario, error) {
	n, total, err := space(g, depth)
	if err != nil {
		return nil, err
	}
	return enumerate(n, depth, total), nil
}

// space counts the links of a failure space and its scenarios, C(n,1)
// (+ C(n,2) at depth 2), without allocating them.
func space(g *topology.Graph, depth int) (n, total int, err error) {
	if depth < 1 || depth > 2 {
		return 0, 0, fmt.Errorf("sweep: depth %d out of range (want 1 or 2)", depth)
	}
	n = g.NumLinks()
	total = n
	if depth == 2 {
		total += n * (n - 1) / 2
	}
	return n, total, nil
}

func enumerate(n, depth, total int) []Scenario {
	scs := make([]Scenario, 0, total)
	for l := 0; l < n; l++ {
		scs = append(scs, Scenario{ID: len(scs), Links: []topology.LinkID{topology.LinkID(l)}})
	}
	if depth == 2 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				scs = append(scs, Scenario{ID: len(scs), Links: []topology.LinkID{topology.LinkID(i), topology.LinkID(j)}})
			}
		}
	}
	return scs
}

// MaxCells caps a sweep's grid, scenarios × invariants. Run allocates every
// scenario and every cell before it verifies any, about 300 bytes per cell
// on 64-bit platforms, so the cap admits about 80 MB up front; the cells'
// witnesses and the report come on top. A depth-2 sweep of a 720-link
// network with one invariant fits (259,560 cells); the same sweep of
// zoo-240's 5,952 links asks for 17,716,728 and is refused.
const MaxCells = 1 << 18

// TooLargeError refuses a sweep whose grid would exceed MaxCells.
type TooLargeError struct {
	Scenarios, Invariants int
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("sweep: %d scenarios × %d invariants exceeds the %d-cell bound",
		e.Scenarios, e.Invariants, MaxCells)
}

// Config configures one sweep run.
type Config struct {
	// Depth selects the failure space: 1 = single links, 2 = singles plus
	// all unordered pairs.
	Depth int
	// Invariants are the query texts verified in every scenario. They are
	// parsed up front; a malformed invariant fails the sweep, not every
	// cell.
	Invariants []string
	// Workers bounds scenario-level parallelism (0 = GOMAXPROCS). Each
	// worker owns one scenario session and a contiguous chunk of the
	// enumeration order.
	Workers int
	// Engine is the per-cell engine configuration (budget, weights,
	// reductions). Its Cache field is managed by the sweep's sessions.
	Engine engine.Options
	// Timeout is the per-cell wall-clock deadline (0 = none); an expired
	// deadline is that cell's outcome, not a sweep abort.
	Timeout time.Duration
	// OnCell, when non-nil, is invoked once per completed cell, serialized
	// across workers — the streaming hook for progress reporting.
	OnCell func(CellResult)
	// IncludeCells embeds the full per-cell matrix in the JSON report.
	IncludeCells bool
}

// CellResult is one (scenario × invariant) grid cell's raw outcome.
type CellResult struct {
	// Scenario and Invariant index the enumeration order and the
	// Config.Invariants slice.
	Scenario  int
	Invariant int
	// Links are the scenario's failed links.
	Links []topology.LinkID
	// Res is the engine result when Err is nil.
	Res engine.Result
	// Err is the per-cell failure (budget, deadline, cancellation).
	Err error
	// Elapsed is the cell's wall-clock verification time.
	Elapsed time.Duration
	// Incomplete marks a cell the sweep never finished because its context
	// was cancelled; the verdict fields are meaningless then.
	Incomplete bool
}

// Result is a completed (possibly cancelled) sweep: the raw grid plus the
// aggregated report.
type Result struct {
	// Scenarios is the enumerated failure space.
	Scenarios []Scenario
	// Cells is the grid in scenario-major order:
	// Cells[s*len(Invariants)+q].
	Cells []CellResult
	// Baseline holds one result per invariant on the unfailed network —
	// the reference a scenario must differ from to count as breaking.
	Baseline []batch.Result
	// Report is the aggregated, JSON-ready view.
	Report Report
}

// Report is the JSON-facing resilience report.
type Report struct {
	Network   string `json:"network"`
	Depth     int    `json:"depth"`
	Links     int    `json:"links"`
	Scenarios int    `json:"scenarios"`
	Workers   int    `json:"workers"`
	// Invariants aggregates the matrix per invariant, in input order.
	Invariants []InvariantReport `json:"invariants"`
	CellsTotal int               `json:"cellsTotal"`
	// CellsIncomplete counts cells the sweep never finished (cancellation);
	// Incomplete is true when any exist.
	CellsIncomplete int         `json:"cellsIncomplete,omitempty"`
	Incomplete      bool        `json:"incomplete,omitempty"`
	Cache           CacheReport `json:"cache"`
	LatencyMS       Latency     `json:"latencyMs"`
	ElapsedMS       float64     `json:"elapsedMs"`
	// Cells is the full matrix (Config.IncludeCells).
	Cells []CellJSON `json:"cells,omitempty"`
}

// InvariantReport aggregates one invariant's column of the matrix.
type InvariantReport struct {
	Query string `json:"query"`
	// Baseline is the invariant's verdict on the unfailed network ("error"
	// when the baseline run itself failed).
	Baseline string `json:"baseline"`
	// Verdicts counts completed cells by verdict string.
	Verdicts   map[string]int `json:"verdicts"`
	Errors     int            `json:"errors,omitempty"`
	Incomplete int            `json:"incomplete,omitempty"`
	// Breaking counts scenarios whose outcome differs from the baseline.
	Breaking int `json:"breaking"`
	// MinimalBreaking lists the breaking failure sets none of whose proper
	// subsets break: every breaking single, and every breaking pair whose
	// two singles both hold. Link names, enumeration order.
	MinimalBreaking [][]string `json:"minimalBreaking"`
}

// CacheReport aggregates translation reuse across the sweep's sessions.
type CacheReport struct {
	// Gets/Hits count assembled-system lookups (a hit serves a whole
	// translated system without reassembly).
	Gets int64 `json:"gets"`
	Hits int64 `json:"hits"`
	// BlocksReused/BlocksRebuilt count per-routing-key rule blocks spliced
	// from (or re-emitted into) the block store during reassemblies;
	// ReuseRate is reused/(reused+rebuilt).
	BlocksReused  int     `json:"blocksReused"`
	BlocksRebuilt int     `json:"blocksRebuilt"`
	ReuseRate     float64 `json:"reuseRate"`
}

// Latency summarises completed-cell wall-clock times in milliseconds
// (nearest-rank percentiles over the exact samples).
type Latency struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// CellJSON is one grid cell in the JSON report.
type CellJSON struct {
	Scenario   int      `json:"scenario"`
	Links      []string `json:"links"`
	Invariant  int      `json:"invariant"`
	Verdict    string   `json:"verdict,omitempty"`
	Error      string   `json:"error,omitempty"`
	Code       string   `json:"code,omitempty"`
	Incomplete bool     `json:"incomplete,omitempty"`
	ElapsedMS  float64  `json:"elapsedMs"`
}

// JSON renders the cell for reports and streaming: link IDs become names,
// the outcome becomes either a verdict string or an error message with its
// machine-readable code.
func (c CellResult) JSON(g *topology.Graph) CellJSON {
	cj := CellJSON{
		Scenario:   c.Scenario,
		Links:      Scenario{Links: c.Links}.LinkNames(g),
		Invariant:  c.Invariant,
		Incomplete: c.Incomplete,
		ElapsedMS:  c.Elapsed.Seconds() * 1000,
	}
	switch {
	case c.Incomplete:
	case c.Err != nil:
		cj.Error = c.Err.Error()
		cj.Code = engine.ErrorCode(c.Err)
	default:
		cj.Verdict = c.Res.Verdict.String()
	}
	return cj
}

// Run executes the sweep. Cancelling ctx stops scheduling: cells already
// verified keep their verdicts, everything else is marked incomplete, and
// the partial report comes back with Incomplete set — Run itself returns
// an error only for configuration problems (no invariants, an unparseable
// invariant as an *engine.QueryError, bad depth, empty failure space, a
// grid past MaxCells as a *TooLargeError). All worker goroutines are
// joined before Run returns, cancelled or not.
func Run(ctx context.Context, net *network.Network, cfg Config) (*Result, error) {
	if len(cfg.Invariants) == 0 {
		return nil, fmt.Errorf("sweep: no invariants")
	}
	for _, qt := range cfg.Invariants {
		if _, err := query.Parse(qt, net); err != nil {
			return nil, &engine.QueryError{Query: qt, Err: err}
		}
	}
	n, total, err := space(net.Topo, cfg.Depth)
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("sweep: empty failure space (no live links)")
	}
	// total > MaxCells/nq, not total*nq > MaxCells: the product can
	// overflow.
	if total > MaxCells/len(cfg.Invariants) {
		return nil, &TooLargeError{Scenarios: total, Invariants: len(cfg.Invariants)}
	}
	scs := enumerate(n, cfg.Depth, total)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	mRuns.Inc()
	mScenarios.Add(int64(len(scs)))

	nq := len(cfg.Invariants)
	start := time.Now()

	// Baseline: the invariants on the unfailed network, the reference the
	// breaking analysis compares scenarios against.
	bw := workers
	if bw > nq {
		bw = nq
	}
	baseline := batch.Verify(ctx, net, cfg.Invariants, batch.Options{
		Workers: bw, Timeout: cfg.Timeout, Engine: cfg.Engine,
	})

	// Pre-mark every cell incomplete; workers overwrite the cells they
	// finish, so a cancelled sweep reports exactly what it never ran.
	cells := make([]CellResult, len(scs)*nq)
	for si, sc := range scs {
		for qi := 0; qi < nq; qi++ {
			cells[si*nq+qi] = CellResult{
				Scenario: si, Invariant: qi, Links: sc.Links,
				Err: context.Canceled, Incomplete: true,
			}
		}
	}

	// Contiguous chunks preserve the enumeration order's locality within
	// each worker's session. Leftover parallelism (fewer chunks than
	// workers) goes to the per-scenario invariant batch.
	chunks := workers
	if chunks > len(scs) {
		chunks = len(scs)
	}
	innerW := workers / chunks
	if innerW < 1 {
		innerW = 1
	}
	per := (len(scs) + chunks - 1) / chunks

	var cellMu sync.Mutex // serializes OnCell across workers
	bopts := batch.Options{Workers: innerW, Timeout: cfg.Timeout, Engine: cfg.Engine}
	var sessions []*scenario.Session
	var wg sync.WaitGroup
	for w := 0; w < chunks; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > len(scs) {
			hi = len(scs)
		}
		if lo >= hi {
			continue
		}
		sess := scenario.NewSession(net)
		sessions = append(sessions, sess)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for si := lo; si < hi; si++ {
				if ctx.Err() != nil {
					return // remaining cells stay pre-marked incomplete
				}
				runScenario(ctx, sess, scs[si], cfg.Invariants, bopts, cells[si*nq:si*nq+nq])
				if cfg.OnCell != nil {
					cellMu.Lock()
					for qi := 0; qi < nq; qi++ {
						cfg.OnCell(cells[si*nq+qi])
					}
					cellMu.Unlock()
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	var cache CacheReport
	for _, sess := range sessions {
		cs, bs := sess.CacheStats(), sess.BlockStats()
		cache.Gets += cs.Gets
		cache.Hits += cs.Hits
		cache.BlocksReused += bs.BlocksReused
		cache.BlocksRebuilt += bs.BlocksRebuilt
		sess.Close()
	}

	res := &Result{Scenarios: scs, Cells: cells, Baseline: baseline}
	res.Report = buildReport(net, cfg, workers, scs, cells, baseline, cache, time.Since(start))
	mCells.Add(int64(len(cells)))
	mCellsIncomplete.Add(int64(res.Report.CellsIncomplete))
	return res, nil
}

// runScenario verifies one failure set's invariant batch through the
// worker's long-lived session, retargeted with one atomic stack swap so
// the rule blocks of every routing key the failure leaves alike stay hot.
func runScenario(ctx context.Context, sess *scenario.Session, sc Scenario,
	invariants []string, bopts batch.Options, out []CellResult) {
	if _, err := sess.SetStack(sc.Deltas(sess.Base().Topo)); err != nil {
		// Enumeration only names links of the session's own topology, so
		// this is unreachable; keep the cells honest rather than panicking.
		for qi := range out {
			out[qi].Err = fmt.Errorf("sweep: scenario %d: %w", sc.ID, err)
			out[qi].Incomplete = false
		}
		return
	}
	for qi, r := range sess.VerifyBatch(ctx, invariants, bopts) {
		c := &out[qi]
		c.Res, c.Err, c.Elapsed = r.Res, r.Err, r.Elapsed
		// A cancelled batch context means the sweep was stopped, not that
		// the cell has an outcome; an expired per-cell deadline is a real
		// per-cell verdict ("too slow"), like in plain batches.
		c.Incomplete = errors.Is(r.Err, context.Canceled)
		if !c.Incomplete {
			mCellSeconds.ObserveDuration(r.Elapsed)
		}
	}
}

// outcome classifies a completed cell (or baseline result) for the
// breaking analysis: the verdict string, or "error:<code>" for failed
// runs, so a budget blow-up under failures counts as breaking too.
func outcome(res engine.Result, err error) string {
	if err != nil {
		return "error:" + engine.ErrorCode(err)
	}
	return res.Verdict.String()
}

func buildReport(net *network.Network, cfg Config, workers int, scs []Scenario,
	cells []CellResult, baseline []batch.Result, cache CacheReport, elapsed time.Duration) Report {
	nq := len(cfg.Invariants)
	rep := Report{
		Network:    net.Name,
		Depth:      cfg.Depth,
		Scenarios:  len(scs),
		Workers:    workers,
		CellsTotal: len(cells),
		Cache:      cache,
		ElapsedMS:  elapsed.Seconds() * 1000,
	}
	// Links is the live-link count the space was enumerated over: the
	// singles prefix of the enumeration.
	for _, sc := range scs {
		if len(sc.Links) == 1 {
			rep.Links++
		}
	}
	if moved := cache.BlocksReused + cache.BlocksRebuilt; moved > 0 {
		rep.Cache.ReuseRate = float64(cache.BlocksReused) / float64(moved)
	}

	// singleBreaks[l] answers "does failing l alone break invariant qi?"
	// for the minimality filter; a cancelled single leaves it unknown.
	g := net.Topo
	var samples []float64
	var sum float64
	for qi := 0; qi < nq; qi++ {
		base := outcome(baseline[qi].Res, baseline[qi].Err)
		inv := InvariantReport{
			Query:           cfg.Invariants[qi],
			Baseline:        base,
			Verdicts:        map[string]int{},
			MinimalBreaking: [][]string{},
		}
		singleBreaks := make(map[topology.LinkID]int) // 1 breaking, -1 holding, 0 unknown
		for si, sc := range scs {
			c := cells[si*nq+qi]
			if c.Incomplete {
				inv.Incomplete++
				continue
			}
			ms := c.Elapsed.Seconds() * 1000
			samples = append(samples, ms)
			sum += ms
			if c.Err != nil {
				inv.Errors++
			} else {
				inv.Verdicts[c.Res.Verdict.String()]++
			}
			breaking := outcome(c.Res, c.Err) != base
			if len(sc.Links) == 1 {
				if breaking {
					singleBreaks[sc.Links[0]] = 1
				} else {
					singleBreaks[sc.Links[0]] = -1
				}
			}
			if !breaking {
				continue
			}
			inv.Breaking++
			minimal := true
			if len(sc.Links) == 2 {
				// A breaking pair is minimal only when both of its singles
				// completed and hold; unknown subsets stay out.
				for _, l := range sc.Links {
					if singleBreaks[l] != -1 {
						minimal = false
						break
					}
				}
			}
			if minimal {
				inv.MinimalBreaking = append(inv.MinimalBreaking, sc.LinkNames(g))
			}
		}
		rep.CellsIncomplete += inv.Incomplete
		rep.Invariants = append(rep.Invariants, inv)
	}
	rep.Incomplete = rep.CellsIncomplete > 0
	sort.Float64s(samples)
	rep.LatencyMS = Latency{
		P50: nearestRank(samples, 0.50),
		P90: nearestRank(samples, 0.90),
		P99: nearestRank(samples, 0.99),
		Max: nearestRank(samples, 1),
	}
	if len(samples) > 0 {
		rep.LatencyMS.Mean = sum / float64(len(samples))
	}
	if cfg.IncludeCells {
		rep.Cells = make([]CellJSON, len(cells))
		for i, c := range cells {
			rep.Cells[i] = c.JSON(g)
		}
	}
	return rep
}

// nearestRank returns the q-quantile of sorted samples by the nearest-rank
// definition (exact sample values, no interpolation).
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

// WriteText renders the report for terminals: the workload line, one block
// per invariant with its verdict distribution and minimal breaking sets
// (first few spelled out), and the cache/latency summary.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "sweep:   %s depth=%d  %d links, %d scenarios × %d invariants = %d cells\n",
		r.Network, r.Depth, r.Links, r.Scenarios, len(r.Invariants), r.CellsTotal); err != nil {
		return err
	}
	for _, inv := range r.Invariants {
		fmt.Fprintf(w, "\ninvariant: %s\n", inv.Query)
		fmt.Fprintf(w, "  baseline: %s\n", inv.Baseline)
		keys := make([]string, 0, len(inv.Verdicts))
		for k := range inv.Verdicts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-12s %d\n", k+":", inv.Verdicts[k])
		}
		if inv.Errors > 0 {
			fmt.Fprintf(w, "  errors:      %d\n", inv.Errors)
		}
		if inv.Incomplete > 0 {
			fmt.Fprintf(w, "  incomplete:  %d\n", inv.Incomplete)
		}
		fmt.Fprintf(w, "  breaking:    %d scenarios (%d minimal)\n", inv.Breaking, len(inv.MinimalBreaking))
		const maxShown = 8
		for i, set := range inv.MinimalBreaking {
			if i == maxShown {
				fmt.Fprintf(w, "    … and %d more\n", len(inv.MinimalBreaking)-maxShown)
				break
			}
			fmt.Fprintf(w, "    fail { %s }\n", strings.Join(set, ", "))
		}
	}
	fmt.Fprintf(w, "\ncache:   %d/%d system hits, %d blocks reused / %d rebuilt (%.0f%% reuse)\n",
		r.Cache.Hits, r.Cache.Gets, r.Cache.BlocksReused, r.Cache.BlocksRebuilt, r.Cache.ReuseRate*100)
	_, err := fmt.Fprintf(w, "latency: p50=%.2fms p90=%.2fms max=%.2fms  elapsed=%.0fms workers=%d\n",
		r.LatencyMS.P50, r.LatencyMS.P90, r.LatencyMS.Max, r.ElapsedMS, r.Workers)
	if r.Incomplete {
		_, err = fmt.Fprintf(w, "NOTE:    sweep incomplete — %d of %d cells were cancelled\n",
			r.CellsIncomplete, r.CellsTotal)
	}
	return err
}
