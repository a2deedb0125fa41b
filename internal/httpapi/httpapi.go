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
// The pre-versioning paths (/api/networks, /api/verify, ...) are gone:
// they answer 410 with the standard error envelope and a Link header
// naming the successor route.
//
// Every error response, on every route, uses the same JSON envelope
// {code, message, details?, stats?} — code is machine-readable
// ("bad-request", "request-too-large", "not-found", "session-not-found",
// "method-not-allowed", "gone", "internal-error", "query-error",
// "budget-exhausted", "deadline-exceeded", "cancelled"), details carries
// request-specific context (e.g. the delta command that failed), and stats
// carries the partial timings/sizes of an aborted verification. That
// includes routing misses: an unknown /api/... path or a wrong method gets
// the envelope, not the Go mux's plain-text page, and a handler panic
// surfaces as a 500 "internal-error" envelope rather than an empty reply.
// A request body over 1 MiB is answered with 413 "request-too-large".
//
// Every verify, batch and sweep body embeds cli.EngineRequest, which owns
// how its engine fields become engine.Options; the server adds only its
// MaxBudget cap and the 400 envelope for a refused request.
//
// Networks are immutable after registration, so verification requests run
// concurrently without locking. /verify and /verify-batch keep no state
// between requests: each query builds its own pushdown system. Scenario
// sessions maintain an incremental cache that re-translates only the
// routing keys whose content their deltas changed.
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

	mux.HandleFunc("POST /api/v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /api/v1/sessions", s.handleSessionList)
	mux.HandleFunc("GET /api/v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("DELETE /api/v1/sessions/{id}", s.handleSessionClose)
	mux.HandleFunc("POST /api/v1/sessions/{id}/deltas", s.handleSessionDeltas)
	mux.HandleFunc("DELETE /api/v1/sessions/{id}/deltas/{seq}", s.handleSessionUndo)
	mux.HandleFunc("POST /api/v1/sessions/{id}/verify", s.handleSessionVerify)
	mux.HandleFunc("POST /api/v1/sessions/{id}/verify-batch", s.handleSessionVerifyBatch)

	mux.HandleFunc("POST /api/v1/sessions/{id}/watch", s.handleWatchCreate)
	mux.HandleFunc("GET /api/v1/sessions/{id}/watch", s.handleWatchList)
	mux.HandleFunc("DELETE /api/v1/sessions/{id}/watch/{wid}", s.handleWatchClose)
	mux.HandleFunc("GET /api/v1/sessions/{id}/watch/{wid}/events", s.handleWatchEvents)

	// Pre-versioning aliases: 410 Gone pointing at the successor. No method
	// in the pattern: every method on the dead path gets the same 410, not
	// a 405.
	mux.HandleFunc("/api/networks", gone("/api/v1/networks"))
	mux.HandleFunc("/api/networks/{name}/topology", gone("/api/v1/networks/{name}/topology"))
	mux.HandleFunc("/api/verify", gone("/api/v1/verify"))
	mux.HandleFunc("/api/verify-batch", gone("/api/v1/verify-batch"))

	// Prometheus text exposition of the process-wide metrics registry:
	// saturation counters, translation counters, batch latency histograms,
	// per-phase engine timings, scenario session gauges.
	mux.Handle("GET /metrics", obs.Handler(obs.Default))

	// The outermost layer turns the mux's own plain-text 404/405 pages into
	// envelope responses and catches handler panics.
	return withMiddleware(mux)
}

// gone answers for a removed legacy route: 410 with the error envelope and
// a Link header naming the successor.
func gone(successor string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Link", `<`+successor+`>; rel="successor-version"`)
		writeErrorDetails(w, http.StatusGone, "gone",
			"this unversioned route has been removed; use "+successor,
			map[string]string{"successor": successor})
	}
}

// ErrorEnvelope is the single error shape every route returns.
type ErrorEnvelope struct {
	// Code is the machine-readable classification: "bad-request",
	// "not-found", or a verification code from engine.ErrorCode
	// ("query-error", "budget-exhausted", "deadline-exceeded",
	// "cancelled").
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

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorEnvelope{Code: code, Message: msg})
}

func writeErrorDetails(w http.ResponseWriter, status int, code, msg string, details map[string]string) {
	writeJSON(w, status, ErrorEnvelope{Code: code, Message: msg, Details: details})
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
		writeError(w, http.StatusRequestEntityTooLarge, "request-too-large",
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
	default:
		writeError(w, http.StatusBadRequest, "bad-request", "invalid JSON: "+err.Error())
	}
	return false
}

// writeVerifyError writes a verification failure with its machine-readable
// code and the partial stats of the aborted run.
func writeVerifyError(w http.ResponseWriter, err error, st engine.Stats) {
	writeJSON(w, errStatus(err), ErrorEnvelope{
		Code:    engine.ErrorCode(err),
		Message: err.Error(),
		Stats:   &ErrorStats{TimingMS: cli.TimingsOf(st), Sizes: cli.SizesOf(st)},
	})
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
	net := s.lookup(r.PathValue("name"))
	if net == nil {
		writeErrorDetails(w, http.StatusNotFound, "not-found", "unknown network",
			map[string]string{"network": r.PathValue("name")})
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

// VerifyRequest is the body of POST /api/v1/verify. Session verify bodies
// are the same minus the network field (ignored there).
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
		writeError(w, http.StatusBadRequest, "bad-request", err.Error())
		return opts, false
	}
	if s.MaxBudget > 0 && (opts.Budget <= 0 || opts.Budget > s.MaxBudget) {
		opts.Budget = s.MaxBudget
	}
	return opts, true
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if !decodeBody(w, r, &req) {
		return
	}
	net := s.lookup(req.Network)
	if net == nil {
		writeErrorDetails(w, http.StatusNotFound, "not-found", "unknown network "+req.Network,
			map[string]string{"network": req.Network})
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, "bad-request", "empty query")
		return
	}
	opts, ok := s.options(w, net, req.EngineRequest)
	if !ok {
		return
	}
	// A one-query batch: it keeps nothing once the request ends, and a
	// client disconnect cancels the saturation via the request context.
	br := batch.Verify(r.Context(), net, []string{req.Query}, batch.Options{
		Workers: 1, Engine: opts,
	})[0]
	if br.Err != nil {
		writeVerifyError(w, br.Err, br.Stats)
		return
	}
	writeJSON(w, http.StatusOK, cli.ToJSON(net, req.Query, br.Res))
}

// VerifyBatchRequest is the body of POST /api/v1/verify-batch: one
// network, many queries, shared engine configuration.
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
	if !decodeBody(w, r, &req) {
		return
	}
	net := s.lookup(req.Network)
	if net == nil {
		writeErrorDetails(w, http.StatusNotFound, "not-found", "unknown network "+req.Network,
			map[string]string{"network": req.Network})
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "bad-request", "no queries")
		return
	}
	opts, ok := s.options(w, net, req.EngineRequest)
	if !ok {
		return
	}
	start := time.Now()
	results := batch.Verify(r.Context(), net, req.Queries, batch.Options{
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
	net := s.lookup(r.PathValue("name"))
	if net == nil {
		writeErrorDetails(w, http.StatusNotFound, "not-found", "unknown network "+r.PathValue("name"),
			map[string]string{"network": r.PathValue("name")})
		return
	}
	var req SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Invariants) == 0 {
		writeError(w, http.StatusBadRequest, "bad-request", "no invariants")
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
	if req.Stream {
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		start := func() {
			if !started {
				started = true
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.WriteHeader(http.StatusOK)
			}
		}
		cfg.OnCell = func(c sweep.CellResult) {
			start()
			cj := c.JSON(net.Topo)
			_ = enc.Encode(SweepStreamEvent{Cell: &cj})
			if flusher != nil {
				flusher.Flush()
			}
		}
		res, err := sweep.Run(r.Context(), net, cfg)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad-request", err.Error())
			return
		}
		start()
		_ = enc.Encode(SweepStreamEvent{Report: &res.Report})
		if flusher != nil {
			flusher.Flush()
		}
		return
	}

	res, err := sweep.Run(r.Context(), net, cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, res.Report)
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
	net := s.lookup(req.Network)
	if net == nil {
		writeErrorDetails(w, http.StatusNotFound, "not-found", "unknown network "+req.Network,
			map[string]string{"network": req.Network})
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
	s.mu.Lock()
	if len(s.sessions) >= maxSess {
		s.mu.Unlock()
		sess.Close()
		writeError(w, http.StatusTooManyRequests, "bad-request",
			fmt.Sprintf("session limit reached (%d open)", maxSess))
		return
	}
	e := &sessionEntry{
		id:      fmt.Sprintf("s%d", s.nextSess),
		netName: req.Network,
		sess:    sess,
		hub:     s.newHub(sess),
	}
	s.nextSess++
	s.sessions[e.id] = e
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, sessionJSON(e, false))
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

// newHub builds the watch hub of a session, verifying with the server's
// engine defaults.
func (s *Server) newHub(sess *scenario.Session) *live.Hub {
	return live.NewHub(sess, live.HubOptions{
		Engine:  engine.Options{Budget: s.MaxBudget},
		Workers: s.Parallel,
	})
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
		writeErrorDetails(w, http.StatusNotFound, "session-not-found", "unknown session "+id,
			map[string]string{"session": id})
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
		writeErrorDetails(w, http.StatusNotFound, "session-not-found", "unknown session "+id,
			map[string]string{"session": id})
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

// writeApplyError writes the 422 envelope for a failed atomic delta batch,
// with the offending command and its batch index in the details.
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
	writeErrorDetails(w, http.StatusUnprocessableEntity, "bad-request", msg, details)
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
		writeError(w, http.StatusBadRequest, "bad-request", "no delta commands")
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
		writeError(w, http.StatusBadRequest, "bad-request", "bad delta sequence number "+r.PathValue("seq"))
		return
	}
	if err := e.sess.Undo(seq); err != nil {
		writeErrorDetails(w, http.StatusNotFound, "not-found", err.Error(),
			map[string]string{"seq": strconv.Itoa(seq)})
		return
	}
	// Detached like handleSessionDeltas: one client's disconnect must not
	// poison other subscribers' streams with cancelled cells.
	e.hub.Refresh(context.WithoutCancel(r.Context()))
	writeJSON(w, http.StatusOK, sessionJSON(e, false))
}

func (s *Server) handleSessionVerify(w http.ResponseWriter, r *http.Request) {
	e := s.lookupSession(w, r.PathValue("id"))
	if e == nil {
		return
	}
	var req VerifyRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, "bad-request", "empty query")
		return
	}
	// Engine options only read topology and locations, which every overlay
	// shares with the base. A one-query batch, as on /verify: the response
	// is rendered from the overlay the run was pinned to, even if a delta
	// lands concurrently.
	opts, ok := s.options(w, e.sess.Base(), req.EngineRequest)
	if !ok {
		return
	}
	rs, overlay := e.sess.VerifyBatchSnapshot(r.Context(), []string{req.Query}, batch.Options{
		Workers: 1, Engine: opts,
	})
	if rs[0].Err != nil {
		writeVerifyError(w, rs[0].Err, rs[0].Stats)
		return
	}
	writeJSON(w, http.StatusOK, cli.ToJSON(overlay, req.Query, rs[0].Res))
}

func (s *Server) handleSessionVerifyBatch(w http.ResponseWriter, r *http.Request) {
	e := s.lookupSession(w, r.PathValue("id"))
	if e == nil {
		return
	}
	var req VerifyBatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "bad-request", "no queries")
		return
	}
	// As in handleSessionVerify: options from the shared topology, response
	// rendered from the overlay the batch was actually pinned to.
	opts, ok := s.options(w, e.sess.Base(), req.EngineRequest)
	if !ok {
		return
	}
	start := time.Now()
	results, overlay := e.sess.VerifyBatchSnapshot(r.Context(), req.Queries, batch.Options{
		Workers: s.clampWorkers(req.Workers),
		Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
		Engine:  opts,
	})
	writeJSON(w, http.StatusOK, VerifyBatchResponse{
		Results:   cli.BatchToJSON(overlay, results),
		ElapsedMS: time.Since(start).Seconds() * 1000,
	})
}

// errStatus maps a verification error to an HTTP status. An exhausted
// server-side budget is 504 (the server gave up, not the client), an
// expired per-query deadline or a cancelled request is 408, and everything
// else (parse errors etc.) is 422. The mapping keys off engine.ErrorCode so
// the verify routes and the batch item JSON agree on the vocabulary.
func errStatus(err error) int {
	switch engine.ErrorCode(err) {
	case "budget-exhausted":
		return http.StatusGatewayTimeout
	case "deadline-exceeded", "cancelled":
		return http.StatusRequestTimeout
	default:
		return http.StatusUnprocessableEntity
	}
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
