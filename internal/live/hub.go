package live

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aalwines/internal/batch"
	"aalwines/internal/cli"
	"aalwines/internal/engine"
	"aalwines/internal/network"
	"aalwines/internal/scenario"
)

// ErrClosed is returned by AddWatch on a hub whose session was torn down.
var ErrClosed = errors.New("live: hub closed")

// Cell is the stable verdict of one invariant: everything the semantics
// determine (verdict, weight, failed links, witness trace), nothing that
// varies by wall clock or translation strategy. Watch events push cells,
// and the differential harness compares them byte-for-byte against
// from-scratch verification.
type Cell struct {
	Query   string         `json:"query"`
	Verdict string         `json:"verdict,omitempty"`
	Weight  []uint64       `json:"weight,omitempty"`
	Failed  []string       `json:"failedLinks,omitempty"`
	Trace   []cli.StepJSON `json:"trace,omitempty"`
	// Error/Code report a failed verification (budget, deadline, parse).
	// A run flipping between success and the same error is a transition
	// like any other.
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// CellOf builds the stable cell of one batch result, rendered from the
// overlay the run was pinned to.
func CellOf(overlay *network.Network, r batch.Result) Cell {
	if r.Err != nil {
		return Cell{Query: r.Query, Error: r.Err.Error(), Code: engine.ErrorCode(r.Err)}
	}
	rj := cli.ToJSON(overlay, r.Query, r.Res).Stable()
	return Cell{
		Query:   rj.Query,
		Verdict: rj.Verdict,
		Weight:  rj.Weight,
		Failed:  rj.Failed,
		Trace:   rj.Trace,
	}
}

// render is the comparison form deciding whether a cell changed.
func (c Cell) render() []byte {
	b, _ := json.Marshal(c)
	return b
}

// WatchEvent is one element of a watch's event stream.
type WatchEvent struct {
	// Type is "verdict" (a cell's initial state or a change), "gap" (the
	// queue overflowed and Dropped events were lost), "close" (the watch or
	// its session ended; terminal) or "heartbeat" (stream keep-alive,
	// synthesized by the transport, never queued).
	Type string `json:"type"`
	// Seq is the hub's flush sequence the event belongs to; 0 for the
	// initial cell states pushed at watch creation.
	Seq int64 `json:"seq,omitempty"`
	// Fingerprint is the session delta-stack fingerprint at that flush.
	Fingerprint string `json:"fingerprint,omitempty"`
	Query       string `json:"query,omitempty"`
	Cell        *Cell  `json:"cell,omitempty"`
	Dropped     int64  `json:"dropped,omitempty"`
	Reason      string `json:"reason,omitempty"`
}

// HubOptions configures verification of watched invariants.
type HubOptions struct {
	// Engine options apply to every re-verification (budget, weight
	// minimisation, ...).
	Engine engine.Options
	// Workers bounds the batch pool per refresh (0 = GOMAXPROCS).
	Workers int
}

// defaultWatchBuffer is the per-watch queue capacity when a watch does not
// choose one; AddWatch raises any capacity below 8 to 8.
const defaultWatchBuffer = 64

// Hub multiplexes watch subscriptions over one scenario session. Refresh
// re-verifies every watched invariant and fans out only changed cells;
// AddWatch seeds a new watch with the current cell states, serialized
// against Refresh so a watch stream is always "initial states, then every
// transition exactly once, in order".
type Hub struct {
	sess *scenario.Session
	opts HubOptions

	// refreshMu serializes Refresh and AddWatch: both verify on the
	// session and publish ordered events, so interleaving them would
	// let a watch miss (or double-see) the transition of a concurrent
	// flush.
	refreshMu sync.Mutex

	mu       sync.Mutex
	seq      int64
	nextID   int
	watches  map[string]*Watch
	cells    map[string]*cellState
	order    []string // watched queries, first-registration order
	closed   bool
	closeRsn string
}

type cellState struct {
	refs int
	cell Cell
	raw  []byte
}

// NewHub builds a hub over a session. The hub does not own the session;
// whoever tears the session down must call Close.
func NewHub(sess *scenario.Session, opts HubOptions) *Hub {
	return &Hub{
		sess:    sess,
		opts:    opts,
		watches: make(map[string]*Watch),
		cells:   make(map[string]*cellState),
	}
}

// AddWatch registers a watch over the given invariants with the given
// queue capacity (0 = 64) and immediately queues one verdict event per
// invariant carrying its current cell. Invariants that fail to parse
// reject the whole watch with an *engine.QueryError.
func (h *Hub) AddWatch(ctx context.Context, invariants []string, buffer int) (*Watch, error) {
	if len(invariants) == 0 {
		return nil, errors.New("live: watch without invariants")
	}
	h.refreshMu.Lock()
	defer h.refreshMu.Unlock()

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrClosed
	}
	var fresh []string
	seen := make(map[string]bool, len(invariants))
	for _, q := range invariants {
		if seen[q] {
			continue
		}
		seen[q] = true
		if _, ok := h.cells[q]; !ok {
			fresh = append(fresh, q)
		}
	}
	h.mu.Unlock()

	// Verify invariants the hub does not track yet. Outside h.mu (the
	// verification can be slow) but under refreshMu, so no flush lands in
	// between and the seeded cells are current.
	if len(fresh) > 0 {
		rs, overlay := h.sess.VerifyBatchSnapshot(ctx, fresh, h.batchOpts())
		for _, r := range rs {
			if r.Err != nil && engine.ErrorCode(r.Err) == "query-error" {
				return nil, &engine.QueryError{Query: r.Query, Err: r.Err}
			}
		}
		h.mu.Lock()
		for _, r := range rs {
			if _, ok := h.cells[r.Query]; !ok {
				c := CellOf(overlay, r)
				h.cells[r.Query] = &cellState{cell: c, raw: c.render()}
				h.order = append(h.order, r.Query)
			}
		}
		h.mu.Unlock()
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if buffer <= 0 {
		buffer = defaultWatchBuffer
	}
	if buffer < 8 {
		buffer = 8
	}
	h.nextID++
	w := &Watch{
		id:      fmt.Sprintf("w%d", h.nextID),
		hub:     h,
		queries: make(map[string]bool, len(seen)),
		cap:     buffer,
		notify:  make(chan struct{}, 1),
	}
	fp := fmt.Sprintf("%016x", h.sess.Fingerprint())
	for _, q := range invariants {
		if !w.queries[q] {
			w.queries[q] = true
			w.invariants = append(w.invariants, q)
			st, ok := h.cells[q]
			if !ok {
				// Unreachable while CloseWatch serializes under refreshMu,
				// but a vanished cell must never panic the seeding loop:
				// re-track the query with an error cell — the next Refresh
				// verifies it for real and pushes the correction.
				c := Cell{Query: q, Error: "cell lost during watch creation", Code: "internal-error"}
				st = &cellState{cell: c, raw: c.render()}
				h.cells[q] = st
				h.order = append(h.order, q)
			}
			st.refs++
			cell := st.cell
			w.push(WatchEvent{Type: "verdict", Seq: h.seq, Fingerprint: fp, Query: q, Cell: &cell})
		}
	}
	h.watches[w.id] = w
	mWatchesLive.Add(1)
	return w, nil
}

func (h *Hub) batchOpts() batch.Options {
	return batch.Options{Workers: h.opts.Workers, Engine: h.opts.Engine}
}

// Refresh re-verifies every watched invariant against the session's
// current overlay and pushes the cells whose rendering changed to every
// watch subscribed to them. It returns the number of changed cells.
// Callers serialize flushes through it; a refresh with no watched
// invariants is free. Every re-verification, whether a feed flush or an
// HTTP delta or undo asked for it, is one live_reverify_ms observation.
func (h *Hub) Refresh(ctx context.Context) int {
	start := time.Now()
	h.refreshMu.Lock()
	defer h.refreshMu.Unlock()

	h.mu.Lock()
	if h.closed || len(h.order) == 0 {
		h.mu.Unlock()
		return 0
	}
	queries := append([]string(nil), h.order...)
	h.mu.Unlock()

	rs, overlay := h.sess.VerifyBatchSnapshot(ctx, queries, h.batchOpts())
	mReverifyMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0
	}
	h.seq++
	fp := fmt.Sprintf("%016x", h.sess.Fingerprint())
	changed := 0
	for _, r := range rs {
		st := h.cells[r.Query]
		if st == nil {
			continue
		}
		c := CellOf(overlay, r)
		raw := c.render()
		if bytes.Equal(raw, st.raw) {
			continue
		}
		st.cell, st.raw = c, raw
		changed++
		for _, w := range h.watches {
			if w.queries[r.Query] {
				cell := c
				w.push(WatchEvent{Type: "verdict", Seq: h.seq, Fingerprint: fp, Query: r.Query, Cell: &cell})
			}
		}
	}
	return changed
}

// Watch returns a registered watch by id, or nil. Watches stay addressable
// after hub close so clients can drain their terminal close event.
func (h *Hub) Watch(id string) *Watch {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.watches[id]
}

// WatchInfo describes one watch for listings.
type WatchInfo struct {
	ID         string   `json:"id"`
	Invariants []string `json:"invariants"`
	Buffer     int      `json:"buffer"`
	Pending    int      `json:"pending"`
	Dropped    int64    `json:"dropped"`
	Closed     bool     `json:"closed,omitempty"`
}

// Watches lists registered watches in id order (w1, w2, ...).
func (h *Hub) Watches() []WatchInfo {
	h.mu.Lock()
	ws := make([]*Watch, 0, len(h.watches))
	for _, w := range h.watches {
		ws = append(ws, w)
	}
	h.mu.Unlock()
	out := make([]WatchInfo, 0, len(ws))
	for _, w := range ws {
		out = append(out, w.Info())
	}
	// Shorter ids first, so w2 sorts before w10.
	slices.SortFunc(out, func(a, b WatchInfo) int {
		return cmp.Or(cmp.Compare(len(a.ID), len(b.ID)), strings.Compare(a.ID, b.ID))
	})
	return out
}

// Cells snapshots the current cell of every watched invariant, in
// registration order.
func (h *Hub) Cells() []Cell {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Cell, 0, len(h.order))
	for _, q := range h.order {
		out = append(out, h.cells[q].cell)
	}
	return out
}

// CloseWatch ends one watch: a terminal close event is queued (always —
// overflowing queues evict an older event for it) and the watch is
// unregistered, releasing its invariants. Reports whether the id existed.
func (h *Hub) CloseWatch(id, reason string) bool {
	// Under refreshMu: AddWatch drops h.mu during its seeding verification
	// and expects tracked cells to survive that window; a CloseWatch
	// releasing the last reference in between would delete a cell out from
	// under the seeding loop.
	h.refreshMu.Lock()
	defer h.refreshMu.Unlock()

	h.mu.Lock()
	w := h.watches[id]
	if w == nil {
		h.mu.Unlock()
		return false
	}
	if h.closed {
		// Close already ended every watch and settled the gauge; the id
		// stays addressable for draining only, so there is no ref or gauge
		// bookkeeping left to do.
		h.mu.Unlock()
		return true
	}
	delete(h.watches, id)
	for _, q := range w.invariants {
		st := h.cells[q]
		st.refs--
		if st.refs <= 0 {
			delete(h.cells, q)
			for i, oq := range h.order {
				if oq == q {
					h.order = append(h.order[:i], h.order[i+1:]...)
					break
				}
			}
		}
	}
	h.mu.Unlock()
	w.close(reason)
	mWatchesLive.Add(-1)
	return true
}

// Close ends every watch with the given reason (e.g. "session-closed").
// Idempotent; watches stay addressable for draining but new AddWatch calls
// fail with ErrClosed.
func (h *Hub) Close(reason string) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.closeRsn = reason
	ws := make([]*Watch, 0, len(h.watches))
	for _, w := range h.watches {
		ws = append(ws, w)
	}
	h.mu.Unlock()
	for _, w := range ws {
		w.close(reason)
		mWatchesLive.Add(-1)
	}
}

// Watch is one subscription: a bounded event queue fed by the hub.
// Overflow drops the oldest queued event and surfaces the loss as a "gap"
// event ahead of the next drain — a slow consumer sees current state plus
// an honest account of what it missed, never silent loss, and never
// backpressure into the flush path.
type Watch struct {
	id         string
	hub        *Hub
	invariants []string
	queries    map[string]bool

	mu      sync.Mutex
	buf     []WatchEvent
	cap     int
	dropped int64
	closed  bool
	reason  string
	notify  chan struct{}

	// streaming guards the one-consumer-per-watch rule of the SSE/NDJSON
	// transport.
	streaming atomic.Bool
}

// ID returns the watch id ("w1", "w2", ... within its hub).
func (w *Watch) ID() string { return w.id }

// Invariants returns the watched queries in registration order.
func (w *Watch) Invariants() []string {
	return append([]string(nil), w.invariants...)
}

// Info snapshots the watch for listings.
func (w *Watch) Info() WatchInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WatchInfo{
		ID:         w.id,
		Invariants: append([]string(nil), w.invariants...),
		Buffer:     w.cap,
		Pending:    len(w.buf),
		Dropped:    w.dropped,
		Closed:     w.closed,
	}
}

// TryAttach claims the watch's single streaming slot; Detach releases it.
func (w *Watch) TryAttach() bool { return w.streaming.CompareAndSwap(false, true) }

// Detach releases the streaming slot.
func (w *Watch) Detach() { w.streaming.Store(false) }

// push queues one event, evicting the oldest on overflow. Hub-side.
func (w *Watch) push(ev WatchEvent) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	if len(w.buf) >= w.cap {
		w.buf = append(w.buf[:0], w.buf[1:]...)
		w.dropped++
		mWatchDropped.Inc()
	}
	w.buf = append(w.buf, ev)
	mWatchEvents.Inc()
	w.mu.Unlock()
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// close marks the watch terminal and queues the close event, evicting an
// older event if the queue is full so the close is never lost.
func (w *Watch) close(reason string) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	if len(w.buf) >= w.cap {
		w.buf = append(w.buf[:0], w.buf[1:]...)
		w.dropped++
		mWatchDropped.Inc()
	}
	w.buf = append(w.buf, WatchEvent{Type: "close", Reason: reason})
	w.closed = true
	w.reason = reason
	w.mu.Unlock()
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// drain pops everything queued, prefixing a gap event when the queue
// overflowed since the last drain.
func (w *Watch) drain() ([]WatchEvent, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.buf) == 0 {
		return nil, !w.closed
	}
	var out []WatchEvent
	if w.dropped > 0 {
		out = append(out, WatchEvent{Type: "gap", Dropped: w.dropped})
		w.dropped = 0
	}
	out = append(out, w.buf...)
	w.buf = nil
	open := true
	if len(out) > 0 && out[len(out)-1].Type == "close" {
		open = false
	}
	return out, open
}

// Next waits up to heartbeat (0 = forever) for queued events and returns
// them; nil events with open=true means the wait timed out (the transport
// emits its keep-alive) or ctx ended (check ctx.Err). open=false reports
// the terminal close event was consumed — the stream is over.
func (w *Watch) Next(ctx context.Context, heartbeat time.Duration) ([]WatchEvent, bool) {
	for {
		evs, open := w.drain()
		if len(evs) > 0 || !open {
			return evs, open
		}
		var timer <-chan time.Time
		if heartbeat > 0 {
			t := time.NewTimer(heartbeat)
			defer t.Stop()
			timer = t.C
		}
		select {
		case <-ctx.Done():
			return nil, true
		case <-timer:
			return nil, true
		case <-w.notify:
		}
	}
}
