// Package httpapi exposes the verification engine as a JSON-over-HTTP
// service, playing the role of the backend that serves the AalWiNes web
// GUI (§4 of the paper runs it at demo.aalwines.cs.aau.dk). The API is
// versioned under /api/v1 and serves the loaded networks' topologies (for
// visualisation), runs queries, and hosts scenario sessions for
// incremental what-if analysis:
//
//	GET    /api/v1/networks                    → available networks
//	GET    /api/v1/networks/{name}/topology    → routers (with coordinates) + links
//	POST   /api/v1/networks/{name}/sweep       → resilience sweep: verify invariants
//	                                             across the single/double link failure
//	                                             space (NDJSON progress opt-in)
//	POST   /api/v1/verify                      → run a query, returns the verdict,
//	                                             witness trace and timings
//	POST   /api/v1/verify-batch                → run many queries on a worker pool
//	POST   /api/v1/sessions                    → open a scenario session on a network
//	GET    /api/v1/sessions                    → list open sessions
//	GET    /api/v1/sessions/{id}               → session state (deltas, cache stats)
//	DELETE /api/v1/sessions/{id}               → close a session
//	POST   /api/v1/sessions/{id}/deltas        → apply delta commands (atomic)
//	DELETE /api/v1/sessions/{id}/deltas/{seq}  → undo one delta
//	POST   /api/v1/sessions/{id}/verify        → verify against the session overlay
//	POST   /api/v1/sessions/{id}/verify-batch  → batch-verify against the overlay
//	POST   /api/v1/sessions/{id}/watch         → register invariants for live re-verification
//	GET    /api/v1/sessions/{id}/watch         → list watches
//	DELETE /api/v1/sessions/{id}/watch/{wid}   → close a watch
//	GET    /api/v1/sessions/{id}/watch/{wid}/events → stream verdict changes (SSE;
//	                                             ?format=ndjson for NDJSON)
//	GET    /healthz                            → liveness probe
//	GET    /metrics                            → Prometheus text exposition
//
// Every error response, on every route, uses the same JSON envelope
// {code, message, details?, stats?}: details carries request-specific
// context (e.g. the delta command that failed), and stats carries the
// partial timings/sizes of an aborted verification. The code is
// machine-readable, and it alone decides the status:
//
//	400 bad-request         malformed JSON, a missing field, refused engine fields, a bad sweep depth
//	404 not-found           unknown route, network or delta sequence number
//	404 session-not-found   unknown or closed session
//	404 watch-not-found     unknown watch
//	405 method-not-allowed  wrong method on an /api/ route
//	408 cancelled           the client went away during a verification
//	408 deadline-exceeded   a verification's deadline passed
//	409 watch-busy          another stream is attached to the watch
//	413 request-too-large   a request body over 1 MiB
//	422 delta-error         a delta command that does not parse or validate
//	422 query-error         a query or invariant that does not parse
//	422 sweep-too-large     a sweep grid past sweep.MaxCells cells
//	429 too-many-sessions   the open-session limit is reached
//	500 internal-error      a handler panic
//	504 budget-exhausted    the server's saturation budget ran out
//
// Routing misses wear the envelope too: an unknown /api/... path, the
// pre-versioning /api/networks and /api/verify among them, or a wrong
// method gets it, not the Go mux's plain-text page, and a handler panic
// surfaces as a 500 "internal-error" envelope rather than an empty reply.
//
// Every verify, batch and sweep body embeds cli.EngineRequest, which owns
// how its engine fields become engine.Options; the server adds only its
// MaxBudget cap and the 400 envelope for a refused request.
//
// Networks are immutable after registration, so verification requests run
// concurrently without locking. /verify and /verify-batch keep no state
// between requests: each query builds its own pushdown system. A session's
// verify routes share those handlers; only the network they run on
// differs. Scenario sessions maintain an incremental cache that
// re-translates only the routing keys whose content their deltas changed.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aalwines/internal/batch"
	"aalwines/internal/cli"
	"aalwines/internal/engine"
	"aalwines/internal/live"
	"aalwines/internal/loc"
	"aalwines/internal/network"
	"aalwines/internal/obs"
	"aalwines/internal/scenario"
	"aalwines/internal/sweep"
)

// Server is the HTTP API. Register networks before serving; registration
// is not safe concurrently with request handling.
type Server struct {
	mu       sync.RWMutex
	networks map[string]*network.Network
	sessions map[string]*sessionEntry
	nextSess int
	// MaxBudget caps per-request saturation work (0 = unlimited); requests
	// may lower it but not exceed it.
	MaxBudget int64
	// Parallel caps the worker pool of a batch request (0 = GOMAXPROCS);
	// requests may ask for fewer workers but not more.
	Parallel int
	// SatJ is ignored: saturation is always serial.
	//
	// Deprecated: kept only so existing assignments compile; it will be
	// removed.
	SatJ int
	// MaxSessions caps concurrently open scenario sessions (0 = 64).
	MaxSessions int
	// Heartbeat is the keep-alive interval of watch event streams
	// (0 = 15s).
	Heartbeat time.Duration
}

type sessionEntry struct {
	id      string
	netName string
	sess    *scenario.Session
	// hub fans session re-verification out to watch subscriptions.
	hub *live.Hub
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		networks: make(map[string]*network.Network),
		sessions: make(map[string]*sessionEntry),
		nextSess: 1,
	}
}

// Register adds a network under its name.
func (s *Server) Register(net *network.Network) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.networks[net.Name] = net
}

// Handler returns the HTTP handler with all routes mounted.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("GET /api/v1/networks", s.handleList)
	mux.HandleFunc("GET /api/v1/networks/{name}/topology", s.handleTopology)
	mux.HandleFunc("POST /api/v1/networks/{name}/sweep", s.handleSweep)
	mux.HandleFunc("POST /api/v1/verify", s.handleVerify)
	mux.HandleFunc("POST /api/v1/verify-batch", s.handleVerifyBatch)
	mux.HandleFunc("POST /api/v1/sessions/{id}/verify", s.handleVerify)
	mux.HandleFunc("POST /api/v1/sessions/{id}/verify-batch", s.handleVerifyBatch)

	mux.HandleFunc("POST /api/v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /api/v1/sessions", s.handleSessionList)
	mux.HandleFunc("GET /api/v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("DELETE /api/v1/sessions/{id}", s.handleSessionClose)
	mux.HandleFunc("POST /api/v1/sessions/{id}/deltas", s.handleSessionDeltas)
	mux.HandleFunc("DELETE /api/v1/sessions/{id}/deltas/{seq}", s.handleSessionUndo)

	mux.HandleFunc("POST /api/v1/sessions/{id}/watch", s.handleWatchCreate)
	mux.HandleFunc("GET /api/v1/sessions/{id}/watch", s.handleWatchList)
	mux.HandleFunc("DELETE /api/v1/sessions/{id}/watch/{wid}", s.handleWatchClose)
	mux.HandleFunc("GET /api/v1/sessions/{id}/watch/{wid}/events", s.handleWatchEvents)

	// Prometheus text exposition of the process-wide metrics registry:
	// saturation counters, translation counters, batch latency histograms,
	// per-phase engine timings, scenario session gauges.
	mux.Handle("GET /metrics", obs.Handler(obs.Default))

	// The outermost layer turns the mux's own plain-text 404/405 pages into
	// envelope responses and catches handler panics.
	return withMiddleware(mux)
}

// ErrorEnvelope is the single error shape every route returns.
type ErrorEnvelope struct {
	// Code is the machine-readable classification, one of the codes the
	// package documentation lists with their statuses; the verification
	// codes ("query-error", "budget-exhausted", "deadline-exceeded",
	// "cancelled") are engine.ErrorCode's.
	Code string `json:"code"`
	// Message is the human-readable error.
	Message string `json:"message"`
	// Details carries request-specific context, e.g. the offending delta
	// command or the unknown network name.
	Details map[string]string `json:"details,omitempty"`
	// Stats carries the partial timings/sizes of an aborted verification.
	Stats *ErrorStats `json:"stats,omitempty"`
}

// ErrorStats is the stats member of the error envelope.
type ErrorStats struct {
	TimingMS cli.Timings `json:"timingMs"`
	Sizes    cli.Sizes   `json:"sizes"`
}

// statusOf is the status of every error code; the package documentation
// lists the same table. writeError and writeVerifyError read it, so a
// code is answered with one status on every route.
var statusOf = map[string]int{
	"bad-request":        http.StatusBadRequest,
	"not-found":          http.StatusNotFound,
	"session-not-found":  http.StatusNotFound,
	"watch-not-found":    http.StatusNotFound,
	"method-not-allowed": http.StatusMethodNotAllowed,
	"cancelled":          http.StatusRequestTimeout,
	"deadline-exceeded":  http.StatusRequestTimeout,
	"watch-busy":         http.StatusConflict,
	"request-too-large":  http.StatusRequestEntityTooLarge,
	"delta-error":        http.StatusUnprocessableEntity,
	"query-error":        http.StatusUnprocessableEntity,
	"sweep-too-large":    http.StatusUnprocessableEntity,
	"too-many-sessions":  http.StatusTooManyRequests,
	"internal-error":     http.StatusInternalServerError,
	"budget-exhausted":   http.StatusGatewayTimeout,
}

// writeError writes the error envelope with its code's status; details may
// be nil.
func writeError(w http.ResponseWriter, code, msg string, details map[string]string) {
	writeJSON(w, statusOf[code], ErrorEnvelope{Code: code, Message: msg, Details: details})
}

// maxBodyBytes caps every request body (withMiddleware). The largest
// legitimate bodies, query batches and delta stacks, are a few kilobytes.
const maxBodyBytes = 1 << 20

// decodeBody decodes the JSON request body into v. On failure it writes
// the error envelope — 413 "request-too-large" when the body exceeds
// maxBodyBytes, 400 "bad-request" otherwise — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeError(w, "request-too-large", fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit), nil)
	default:
		writeError(w, "bad-request", "invalid JSON: "+err.Error(), nil)
	}
	return false
}

// writeVerifyError writes a verification failure with its engine.ErrorCode
// and the partial stats of the aborted run.
func writeVerifyError(w http.ResponseWriter, err error, st engine.Stats) {
	code := engine.ErrorCode(err)
	writeJSON(w, statusOf[code], ErrorEnvelope{
		Code:    code,
		Message: err.Error(),
		Stats:   &ErrorStats{TimingMS: cli.TimingsOf(st), Sizes: cli.SizesOf(st)},
	})
}

// writeRefused answers a request that sweep.Run or live.Hub.AddWatch
// refused before running anything: an invariant that does not parse is a
// "query-error" naming it, a grid past sweep.MaxCells a "sweep-too-large",
// and anything else a "bad-request".
func writeRefused(w http.ResponseWriter, err error) {
	var bad *engine.QueryError
	var tooLarge *sweep.TooLargeError
	switch {
	case errors.As(err, &bad):
		writeError(w, "query-error", bad.Error(), map[string]string{"query": bad.Query})
	case errors.As(err, &tooLarge):
		writeError(w, "sweep-too-large", err.Error(), nil)
	default:
		writeError(w, "bad-request", err.Error(), nil)
	}
}

// NetworkInfo summarises one registered network.
type NetworkInfo struct {
	Name    string `json:"name"`
	Routers int    `json:"routers"`
	Links   int    `json:"links"`
	Rules   int    `json:"rules"`
	Labels  int    `json:"labels"`
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []NetworkInfo
	for _, n := range s.networks {
		out = append(out, NetworkInfo{
			Name: n.Name, Routers: n.Topo.NumRouters(), Links: n.Topo.NumLinks(),
			Rules: n.Routing.NumRules(), Labels: n.Labels.Len(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

// TopologyJSON is the GUI-facing topology representation.
type TopologyJSON struct {
	Name    string       `json:"name"`
	Routers []RouterJSON `json:"routers"`
	Links   []LinkJSON   `json:"links"`
}

// RouterJSON is one node.
type RouterJSON struct {
	Name string     `json:"name"`
	Loc  *loc.Point `json:"loc,omitempty"`
}

// LinkJSON is one directed link.
type LinkJSON struct {
	From    string `json:"from"`
	To      string `json:"to"`
	FromIfc string `json:"fromIfc,omitempty"`
	ToIfc   string `json:"toIfc,omitempty"`
	Weight  uint64 `json:"weight,omitempty"`
}

func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	net := s.lookupNetwork(w, r.PathValue("name"))
	if net == nil {
		return
	}
	out := TopologyJSON{Name: net.Name}
	for i := range net.Topo.Routers {
		rt := &net.Topo.Routers[i]
		rj := RouterJSON{Name: rt.Name}
		if rt.HasLoc {
			rj.Loc = &loc.Point{Lat: rt.Lat, Lng: rt.Lng}
		}
		out.Routers = append(out.Routers, rj)
	}
	for i := 0; i < net.Topo.NumLinks(); i++ {
		l := net.Topo.Links[i]
		out.Links = append(out.Links, LinkJSON{
			From:    net.Topo.Routers[l.From].Name,
			To:      net.Topo.Routers[l.To].Name,
			FromIfc: l.FromIfc, ToIfc: l.ToIfc, Weight: l.Weight,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// VerifyRequest is the body of POST /api/v1/verify and of
// /api/v1/sessions/{id}/verify, which ignores the network field.
type VerifyRequest struct {
	Network string `json:"network"`
	Query   string `json:"query"`
	cli.EngineRequest
}

// options resolves a request's engine fields under the server's budget
// cap: a request may lower MaxBudget but not raise it. On a refused
// request it writes the 400 envelope and returns ok=false.
func (s *Server) options(w http.ResponseWriter, net *network.Network, req cli.EngineRequest) (engine.Options, bool) {
	opts, err := req.Options(net)
	if err != nil {
		writeError(w, "bad-request", err.Error(), nil)
		return opts, false
	}
	if s.MaxBudget > 0 && (opts.Budget <= 0 || opts.Budget > s.MaxBudget) {
		opts.Budget = s.MaxBudget
	}
	return opts, true
}

// runFunc verifies queries as one batch and returns the results with the
// network they render from.
type runFunc func(ctx context.Context, queries []string, opts batch.Options) ([]batch.Result, *network.Network)

// target decodes a verify request's body into body and resolves, once, the
// network it runs on: the {id} session's overlay on a session route, the
// registered network named by *name otherwise. A session route answers
// 404 for an unknown session before it reads the body; a network route
// must decode first, since the name is in the body. It returns the network
// engine options resolve against (a session's base: options read only
// topology and locations, which every overlay shares) and the run
// function. A session's run pins one overlay for the whole batch, so the
// response renders from the overlay the queries ran on even if a delta
// lands concurrently. On failure target has written the envelope and
// returns a nil run.
func (s *Server) target(w http.ResponseWriter, r *http.Request, body any, name *string) (*network.Network, runFunc) {
	if id := r.PathValue("id"); id != "" {
		e := s.lookupSession(w, id)
		if e == nil || !decodeBody(w, r, body) {
			return nil, nil
		}
		return e.sess.Base(), e.sess.VerifyBatchSnapshot
	}
	if !decodeBody(w, r, body) {
		return nil, nil
	}
	net := s.lookupNetwork(w, *name)
	if net == nil {
		return nil, nil
	}
	return net, func(ctx context.Context, queries []string, opts batch.Options) ([]batch.Result, *network.Network) {
		return batch.Verify(ctx, net, queries, opts), net
	}
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	base, run := s.target(w, r, &req, &req.Network)
	if run == nil {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, "bad-request", "empty query", nil)
		return
	}
	opts, ok := s.options(w, base, req.EngineRequest)
	if !ok {
		return
	}
	// A one-query batch: it keeps nothing once the request ends, and a
	// client disconnect cancels the saturation via the request context.
	rs, net := run(r.Context(), []string{req.Query}, batch.Options{Workers: 1, Engine: opts})
	if rs[0].Err != nil {
		writeVerifyError(w, rs[0].Err, rs[0].Stats)
		return
	}
	writeJSON(w, http.StatusOK, cli.ToJSON(net, req.Query, rs[0].Res))
}

// VerifyBatchRequest is the body of POST /api/v1/verify-batch, one network,
// many queries, shared engine configuration, and of
// /api/v1/sessions/{id}/verify-batch, which ignores the network field.
type VerifyBatchRequest struct {
	Network string   `json:"network"`
	Queries []string `json:"queries"`
	// The engine fields apply to every query.
	cli.EngineRequest
	// Workers asks for a worker pool size; the server's Parallel cap wins.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS is a per-query wall-clock deadline in milliseconds.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
}

// VerifyBatchResponse is the body of a successful batch run. Per-query
// failures (parse errors, budgets, deadlines) appear inline as items with
// an "error" field; the batch itself still returns 200.
type VerifyBatchResponse struct {
	Results   []cli.BatchItemJSON `json:"results"`
	ElapsedMS float64             `json:"elapsedMs"`
}

func (s *Server) handleVerifyBatch(w http.ResponseWriter, r *http.Request) {
	var req VerifyBatchRequest
	base, run := s.target(w, r, &req, &req.Network)
	if run == nil {
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, "bad-request", "no queries", nil)
		return
	}
	opts, ok := s.options(w, base, req.EngineRequest)
	if !ok {
		return
	}
	start := time.Now()
	results, net := run(r.Context(), req.Queries, batch.Options{
		Workers: s.clampWorkers(req.Workers),
		Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
		Engine:  opts,
	})
	writeJSON(w, http.StatusOK, VerifyBatchResponse{
		Results:   cli.BatchToJSON(net, results),
		ElapsedMS: time.Since(start).Seconds() * 1000,
	})
}

// SweepRequest is the body of POST /api/v1/networks/{name}/sweep.
type SweepRequest struct {
	// Depth selects the failure space: 1 (default) = single links, 2 =
	// singles plus all unordered pairs.
	Depth int `json:"depth,omitempty"`
	// Invariants are the queries verified in every failure scenario.
	Invariants []string `json:"invariants"`
	// The engine fields apply to every cell.
	cli.EngineRequest
	// Workers asks for a scenario-level pool size; the server's Parallel
	// cap wins.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS is a per-cell wall-clock deadline in milliseconds.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
	// IncludeCells embeds the full per-cell matrix in the report.
	IncludeCells bool `json:"includeCells,omitempty"`
	// Stream switches the response to NDJSON: one {"cell": ...} line per
	// completed cell as it lands, then a final {"report": ...} line.
	Stream bool `json:"stream,omitempty"`
}

// SweepStreamEvent is one NDJSON line of a streaming sweep response:
// exactly one of Cell or Report is set.
type SweepStreamEvent struct {
	Cell   *sweep.CellJSON `json:"cell,omitempty"`
	Report *sweep.Report   `json:"report,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	net := s.lookupNetwork(w, r.PathValue("name"))
	if net == nil {
		return
	}
	var req SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Invariants) == 0 {
		writeError(w, "bad-request", "no invariants", nil)
		return
	}
	opts, ok := s.options(w, net, req.EngineRequest)
	if !ok {
		return
	}
	depth := req.Depth
	if depth == 0 {
		depth = 1
	}
	cfg := sweep.Config{
		Depth:        depth,
		Invariants:   req.Invariants,
		Workers:      s.clampWorkers(req.Workers),
		Engine:       opts,
		Timeout:      time.Duration(req.TimeoutMS) * time.Millisecond,
		IncludeCells: req.IncludeCells,
	}

	// Streaming: the success header is written lazily on the first cell.
	// sweep.Run validates its whole configuration before scheduling any
	// work, so every config error still gets a proper JSON error envelope;
	// cancellation mid-stream just ends with a report marked incomplete.
	var started bool
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev SweepStreamEvent) {
		if !started {
			started = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		_ = enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	if req.Stream {
		cfg.OnCell = func(c sweep.CellResult) {
			cj := c.JSON(net.Topo)
			emit(SweepStreamEvent{Cell: &cj})
		}
	}
	res, err := sweep.Run(r.Context(), net, cfg)
	switch {
	case err != nil:
		writeRefused(w, err)
	case req.Stream:
		emit(SweepStreamEvent{Report: &res.Report})
	default:
		writeJSON(w, http.StatusOK, res.Report)
	}
}

func (s *Server) clampWorkers(workers int) int {
	if s.Parallel > 0 && (workers <= 0 || workers > s.Parallel) {
		return s.Parallel
	}
	return workers
}

// --- Scenario sessions -------------------------------------------------

// SessionCreateRequest is the body of POST /api/v1/sessions.
type SessionCreateRequest struct {
	Network string `json:"network"`
	// Deltas optionally applies an initial command stack atomically with
	// creation.
	Deltas []string `json:"deltas,omitempty"`
}

// SessionJSON describes one scenario session.
type SessionJSON struct {
	ID      string `json:"id"`
	Network string `json:"network"`
	// Fingerprint identifies the delta stack.
	Fingerprint string                  `json:"fingerprint"`
	Deltas      []scenario.AppliedDelta `json:"deltas"`
	Cache       *SessionCacheStatsJSON  `json:"cache,omitempty"`
}

// SessionCacheStatsJSON reports a session's translation reuse.
type SessionCacheStatsJSON struct {
	Gets          int64 `json:"gets"`
	Hits          int64 `json:"hits"`
	BlocksReused  int   `json:"blocksReused"`
	BlocksRebuilt int   `json:"blocksRebuilt"`
}

func sessionJSON(e *sessionEntry, withStats bool) SessionJSON {
	out := SessionJSON{
		ID:          e.id,
		Network:     e.netName,
		Fingerprint: fmt.Sprintf("%016x", e.sess.Fingerprint()),
		Deltas:      e.sess.Deltas(),
	}
	if out.Deltas == nil {
		out.Deltas = []scenario.AppliedDelta{}
	}
	if withStats {
		cs, bs := e.sess.CacheStats(), e.sess.BlockStats()
		out.Cache = &SessionCacheStatsJSON{
			Gets: cs.Gets, Hits: cs.Hits,
			BlocksReused: bs.BlocksReused, BlocksRebuilt: bs.BlocksRebuilt,
		}
	}
	return out
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionCreateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	net := s.lookupNetwork(w, req.Network)
	if net == nil {
		return
	}
	maxSess := s.MaxSessions
	if maxSess == 0 {
		maxSess = 64
	}
	sess := scenario.NewSession(net)
	if _, err := sess.ApplyAllText(req.Deltas); err != nil {
		sess.Close()
		writeApplyError(w, err, req.Deltas)
		return
	}
	e := s.openSession(req.Network, sess, maxSess)
	if e == nil {
		sess.Close()
		writeError(w, "too-many-sessions", fmt.Sprintf("session limit reached (%d open)", maxSess), nil)
		return
	}
	writeJSON(w, http.StatusCreated, sessionJSON(e, false))
}

// openSession numbers a session, builds its watch hub, which verifies with
// the server's engine defaults, and registers it; it returns nil instead
// when limit (0 = none) sessions are open already.
func (s *Server) openSession(netName string, sess *scenario.Session, limit int) *sessionEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if limit > 0 && len(s.sessions) >= limit {
		return nil
	}
	e := &sessionEntry{
		id:      fmt.Sprintf("s%d", s.nextSess),
		netName: netName,
		sess:    sess,
		hub: live.NewHub(sess, live.HubOptions{
			Engine:  engine.Options{Budget: s.MaxBudget},
			Workers: s.Parallel,
		}),
	}
	s.nextSess++
	s.sessions[e.id] = e
	return e
}

func (s *Server) handleSessionList(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	entries := make([]*sessionEntry, 0, len(s.sessions))
	for _, e := range s.sessions {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	out := make([]SessionJSON, 0, len(entries))
	for _, e := range entries {
		out = append(out, sessionJSON(e, false))
	}
	writeJSON(w, http.StatusOK, out)
}

// lookupNetwork fetches a registered network, writing a 404 envelope that
// names it when the name is unknown.
func (s *Server) lookupNetwork(w http.ResponseWriter, name string) *network.Network {
	net := s.lookup(name)
	if net == nil {
		writeError(w, "not-found", "unknown network "+name, map[string]string{"network": name})
	}
	return net
}

// lookupSession fetches a session entry, writing a 404 envelope when the
// id is unknown — or known but already closed: a session torn down
// concurrently with a request must answer exactly like one that never
// existed, not serve a half-dead object.
func (s *Server) lookupSession(w http.ResponseWriter, id string) *sessionEntry {
	s.mu.RLock()
	e := s.sessions[id]
	s.mu.RUnlock()
	if e == nil || e.sess.Closed() {
		writeError(w, "session-not-found", "unknown session "+id, map[string]string{"session": id})
		return nil
	}
	return e
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	e := s.lookupSession(w, r.PathValue("id"))
	if e == nil {
		return
	}
	writeJSON(w, http.StatusOK, sessionJSON(e, true))
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if e == nil {
		writeError(w, "session-not-found", "unknown session "+id, map[string]string{"session": id})
		return
	}
	// Watches are told honestly before the session dies under them; the
	// close event is the last thing their streams deliver.
	e.hub.Close("session-closed")
	e.sess.Close()
	w.WriteHeader(http.StatusNoContent)
}

// SessionDeltasRequest is the body of POST /api/v1/sessions/{id}/deltas:
// one or more delta commands, applied atomically (all or none).
type SessionDeltasRequest struct {
	Commands []string `json:"commands"`
}

// SessionDeltasResponse reports the applied commands and the resulting
// session state.
type SessionDeltasResponse struct {
	Applied []scenario.AppliedDelta `json:"applied"`
	Session SessionJSON             `json:"session"`
}

// writeApplyError writes the "delta-error" envelope for a failed atomic
// delta batch, with the offending command and its batch index in the
// details.
func writeApplyError(w http.ResponseWriter, err error, cmds []string) {
	msg := err.Error()
	var details map[string]string
	var ae *scenario.ApplyError
	if errors.As(err, &ae) {
		msg = ae.Err.Error()
		details = map[string]string{"index": strconv.Itoa(ae.Index)}
		if ae.Index < len(cmds) {
			details["command"] = cmds[ae.Index]
		} else {
			details["command"] = ae.Cmd
		}
	}
	writeError(w, "delta-error", msg, details)
}

func (s *Server) handleSessionDeltas(w http.ResponseWriter, r *http.Request) {
	e := s.lookupSession(w, r.PathValue("id"))
	if e == nil {
		return
	}
	var req SessionDeltasRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Commands) == 0 {
		writeError(w, "bad-request", "no delta commands", nil)
		return
	}
	// Atomic by construction: ApplyAllText validates every command before
	// pushing any, and pushes all of them under one session lock — no
	// rollback window a concurrent request could observe.
	seqs, err := e.sess.ApplyAllText(req.Commands)
	if err != nil {
		writeApplyError(w, err, req.Commands)
		return
	}
	// Watched invariants re-verify before the mutation response returns, so
	// a client that applies a delta and then reads its watch stream sees
	// the transition already delivered. Detached from the request context:
	// the mutator disconnecting must not cancel re-verification and push
	// spurious "cancelled" cells to every other watcher.
	e.hub.Refresh(context.WithoutCancel(r.Context()))
	all := e.sess.Deltas()
	applied := make([]scenario.AppliedDelta, 0, len(seqs))
	for _, ad := range all {
		for _, seq := range seqs {
			if ad.Seq == seq {
				applied = append(applied, ad)
			}
		}
	}
	writeJSON(w, http.StatusOK, SessionDeltasResponse{
		Applied: applied,
		Session: sessionJSON(e, false),
	})
}

func (s *Server) handleSessionUndo(w http.ResponseWriter, r *http.Request) {
	e := s.lookupSession(w, r.PathValue("id"))
	if e == nil {
		return
	}
	seq, err := strconv.Atoi(r.PathValue("seq"))
	if err != nil {
		writeError(w, "bad-request", "bad delta sequence number "+r.PathValue("seq"), nil)
		return
	}
	if err := e.sess.Undo(seq); err != nil {
		writeError(w, "not-found", err.Error(), map[string]string{"seq": strconv.Itoa(seq)})
		return
	}
	// Detached like handleSessionDeltas: one client's disconnect must not
	// poison other subscribers' streams with cancelled cells.
	e.hub.Refresh(context.WithoutCancel(r.Context()))
	writeJSON(w, http.StatusOK, sessionJSON(e, false))
}

func (s *Server) lookup(name string) *network.Network {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.networks[name]
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
