// Package batch runs many queries against one network concurrently: the
// what-if workflow of the paper's §5 asks dozens of queries about a single
// network snapshot. A Runner compiles each distinct query text once and
// verifies the batch on a bounded worker pool; each run builds its own
// pushdown system, unless the runner belongs to a scenario session, whose
// translation cache it then shares. Per-query deadlines and batch-wide
// cancellation are threaded through context.Context; results come back in
// input order, and every verdict and witness is identical to what a serial
// run of engine.Verify would produce (translation and witness search are
// deterministic — see DESIGN.md, "Concurrency model").
package batch

import (
	"context"
	"runtime"
	"sync"
	"time"

	"aalwines/internal/engine"
	"aalwines/internal/network"
	"aalwines/internal/obs"
	"aalwines/internal/query"
	"aalwines/internal/translate"
)

// Pool metrics: queue wait is the time a query spends enqueued before a
// worker picks it up (scheduling pressure), query latency is the per-query
// wall clock including parsing and verification, and the busy gauge /
// busy-seconds pair yields worker utilisation (busy-seconds divided by
// wall-seconds × workers).
var (
	mBatches   = obs.GetCounter("batch_batches_total")
	mQueries   = obs.GetCounter("batch_queries_total")
	mErrors    = obs.GetCounter("batch_query_errors_total")
	mQueueWait = obs.GetHistogram("batch_queue_wait_seconds", nil)
	mLatency   = obs.GetHistogram("batch_query_seconds", nil)
	mBusy      = obs.GetGauge("batch_workers_busy")
	mBusySecs  = obs.GetFloatCounter("batch_worker_busy_seconds_total")
)

// Options configure one batch run.
type Options struct {
	// Workers bounds the worker pool; 0 means runtime.GOMAXPROCS(0). The
	// pool is additionally clamped to the batch size.
	Workers int
	// Timeout is the per-query wall-clock deadline (0 = none); an expired
	// deadline surfaces as context.DeadlineExceeded on that query's Result
	// without affecting the rest of the batch.
	Timeout time.Duration
	// Engine is the per-query engine configuration. Its Cache field is
	// overridden with the runner's translation cache (nil unless the runner
	// belongs to a scenario session).
	Engine engine.Options
}

// Result is the outcome of one query in a batch.
type Result struct {
	// Index is the query's position in the input slice.
	Index int
	// Query is the query text as given.
	Query string
	// Res is the engine result when Err is nil.
	Res engine.Result
	// Err is the per-query failure: a parse error, engine.ErrBudget (via
	// wrapping), context.DeadlineExceeded for an expired per-query
	// deadline, or the batch context's error for queries cancelled before
	// or during their run.
	Err error
	// Stats mirrors Res.Stats but is populated on every path — including
	// budget- and deadline-failed queries, whose partially filled stats
	// (build time, rule counts, the phase that blew the budget) are exactly
	// what a caller diagnosing the failure needs.
	Stats engine.Stats
	// Elapsed is the query's wall-clock verification time.
	Elapsed time.Duration
}

// Runner verifies batches of queries against one network. It keeps the
// compiled queries, so repeated batches parse each text once; a scenario
// session's runner also carries the session's translation cache. A Runner
// is safe for concurrent use; overlapping Verify calls share its state.
type Runner struct {
	net   *network.Network
	cache *translate.SessionCache

	mu     sync.Mutex
	parsed map[string]*parseEntry
}

type parseEntry struct {
	once sync.Once
	q    *query.Query
	err  error
}

// NewRunner returns a runner bound to the network; every run builds its
// own pushdown system.
func NewRunner(net *network.Network) *Runner {
	return NewRunnerWithCache(net, nil)
}

// NewRunnerWithCache returns a runner using a scenario session's
// translation cache, so batch runs share the session's incrementally
// maintained systems. A run on a network the cache does not serve builds
// from scratch.
func NewRunnerWithCache(net *network.Network, cache *translate.SessionCache) *Runner {
	return &Runner{
		net:    net,
		cache:  cache,
		parsed: make(map[string]*parseEntry),
	}
}

// parse memoizes query compilation by text. Identical texts share one
// compiled query, which also makes them share one session cache entry
// (the cache keys on compiled-query identity).
func (r *Runner) parse(text string) (*query.Query, error) {
	r.mu.Lock()
	e := r.parsed[text]
	if e == nil {
		e = &parseEntry{}
		r.parsed[text] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		e.q, e.err = query.Parse(text, r.net)
	})
	return e.q, e.err
}

// Verify runs the queries on a bounded worker pool and returns one Result
// per query, in input order regardless of scheduling. Cancelling ctx stops
// the batch: queries not yet finished report the context's error.
func (r *Runner) Verify(ctx context.Context, queries []string, opts Options) []Result {
	return r.VerifyOn(ctx, r.net, queries, opts)
}

// VerifyOn is Verify against a network other than the runner's own. A
// scenario session runs each batch on the overlay it hands back for
// response rendering, so the run and the rendering agree even when a
// concurrent delta replaces the overlay mid-request. The network must
// share the runner's topology and label table, because queries are
// compiled against the runner's network; a session cache builds for the
// network it is asked for, or the run builds from scratch.
func (r *Runner) VerifyOn(ctx context.Context, net *network.Network, queries []string, opts Options) []Result {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	eopts := opts.Engine
	eopts.Cache = r.cache

	mBatches.Inc()
	mQueries.Add(int64(len(queries)))
	results := make([]Result, len(queries))
	// The index channel is buffered and filled up front, so per-query queue
	// wait (pickup minus enqueue) measures real scheduling pressure.
	idx := make(chan int, len(queries))
	enqueued := make([]time.Time, len(queries))
	for i := range queries {
		enqueued[i] = time.Now()
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				mQueueWait.ObserveDuration(time.Since(enqueued[i]))
				mBusy.Add(1)
				t0 := time.Now()
				results[i] = r.one(ctx, net, i, queries[i], opts.Timeout, eopts)
				mBusySecs.Add(time.Since(t0).Seconds())
				mBusy.Add(-1)
				mLatency.ObserveDuration(results[i].Elapsed)
				if results[i].Err != nil {
					mErrors.Inc()
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// one verifies a single query under the batch context plus the per-query
// deadline.
func (r *Runner) one(ctx context.Context, net *network.Network, i int, text string, timeout time.Duration, eopts engine.Options) Result {
	res := Result{Index: i, Query: text}
	t0 := time.Now()
	if err := ctx.Err(); err != nil {
		res.Err = err
		res.Elapsed = time.Since(t0)
		return res
	}
	q, err := r.parse(text)
	if err != nil {
		res.Err = err
		res.Elapsed = time.Since(t0)
		return res
	}
	qctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		qctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res.Res, res.Err = engine.VerifyCtx(qctx, net, q, eopts)
	res.Stats = res.Res.Stats
	res.Elapsed = time.Since(t0)
	return res
}

// Verify is the one-shot entry: it builds a throwaway runner and runs the
// batch, so nothing outlives the call. Callers issuing repeated batches
// can keep a Runner instead, so each query text is parsed once.
func Verify(ctx context.Context, net *network.Network, queries []string, opts Options) []Result {
	return NewRunner(net).Verify(ctx, queries, opts)
}
