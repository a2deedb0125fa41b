package live

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"aalwines/internal/scenario"
	"aalwines/internal/translate"
)

// Options configures an Ingester.
type Options struct {
	// Window is the debounce window: after an event arrives, the ingester
	// waits Window for the burst to quiesce before flushing; every further
	// event restarts the wait. Window 0 disables timer-driven flushing —
	// flushes happen only on explicit flush events, on the MaxPending cap,
	// and at end of stream, which makes replays deterministic.
	Window time.Duration
	// MaxPending caps events coalesced into one flush (default 256): a
	// burst that never quiesces still flushes every MaxPending events, so
	// watch latency is bounded even under a firehose.
	MaxPending int
	// Hub, when set, is refreshed after every flush that changed the
	// session fingerprint (watched invariants re-verify, changed cells
	// stream out).
	Hub *Hub
	// OnFlush observes every flush, after the hub refresh. Tests use it as
	// the differential checkpoint; the CLI uses it for progress reports.
	OnFlush func(FlushInfo)
}

// FlushInfo describes one flush.
type FlushInfo struct {
	// Seq numbers flushes from 1.
	Seq int `json:"seq"`
	// Events is how many feed events were coalesced into this flush.
	Events int `json:"events"`
	// StackLen is the session's delta-stack depth after the flush.
	StackLen int `json:"stackLen"`
	// Fingerprint is the session fingerprint after the flush.
	Fingerprint string `json:"fingerprint"`
	// Changed counts watched cells whose verdict or witness changed.
	Changed int `json:"changed"`
	// Skipped reports the flush left the fingerprint unchanged, so
	// re-verification was skipped entirely.
	Skipped bool `json:"skipped,omitempty"`
	// ReverifyMS is the wall-clock of the hub refresh, in milliseconds.
	ReverifyMS float64 `json:"reverifyMs"`
	// Blocks is the translation-cache work of this flush's re-verification
	// (rule blocks reused vs rebuilt).
	Blocks translate.BuildStats `json:"blocks"`
}

// ReplayStats summarizes a Run over a whole stream.
type ReplayStats struct {
	Events  int `json:"events"`
	Errors  int `json:"errors"`
	Flushes int `json:"flushes"`
	// Changed accumulates changed watched cells across flushes.
	Changed int `json:"changed"`
}

// Ingester consumes routing-update events and applies them to a session in
// coalesced, atomic batches. Coalescing is desired-state for link and
// router status — a link-up cancels a pending link-down rather than
// stacking a restore on a fail, so the session's delta stack stays
// minimal — while table edits (add-entry, remove-entry, swap-priority) are
// order-sensitive and accumulate verbatim.
//
// Ingest and Flush are not safe for concurrent use with themselves; Run
// drives both from one goroutine. The edits list grows with the lifetime
// of the session (scenario deltas are a history, not a state), matching
// the session's own stack semantics.
type Ingester struct {
	sess *scenario.Session
	opts Options

	// Desired failed-link set, insertion-ordered by canonical link name.
	failedOrder []string
	failedIdx   map[string]int
	// Desired drained-router set, insertion-ordered.
	drainOrder []string
	drainIdx   map[string]int
	// Accumulated table edits, in arrival order.
	edits []scenario.Delta

	pending int // events coalesced since the last flush
	seq     int

	// flushMu serializes Flush against itself (Run's flush vs a final
	// flush from another goroutine during shutdown).
	flushMu sync.Mutex

	lastBlocks translate.BuildStats
	flushedAny bool
}

// NewIngester builds an ingester over a session.
func NewIngester(sess *scenario.Session, opts Options) *Ingester {
	if opts.MaxPending <= 0 {
		opts.MaxPending = 256
	}
	return &Ingester{
		sess:       sess,
		opts:       opts,
		failedIdx:  make(map[string]int),
		drainIdx:   make(map[string]int),
		lastBlocks: sess.BlockStats(),
	}
}

// Ingest coalesces one event into the pending batch and reports whether
// the caller should flush now (an explicit flush event, or the MaxPending
// cap). Invalid events (unknown link, malformed delta) return an error
// and are counted in live_event_errors_total without poisoning the batch —
// a live feed keeps going past one bad line.
func (ing *Ingester) Ingest(ev Event) (flushNow bool, err error) {
	mEvents.Inc()
	if ev.Type == "flush" {
		return true, nil
	}
	ds, err := ev.Deltas()
	if err != nil {
		mEventErrors.Inc()
		return false, err
	}
	base := ing.sess.Base()
	for _, d := range ds {
		if err := scenario.ValidateDelta(base, d); err != nil {
			mEventErrors.Inc()
			return ing.pending >= ing.opts.MaxPending, err
		}
	}
	for _, d := range ds {
		switch d.Kind {
		case scenario.FailLink:
			name, _ := scenario.CanonicalLink(base, d.Link)
			if _, dup := ing.failedIdx[name]; !dup {
				ing.failedIdx[name] = len(ing.failedOrder)
				ing.failedOrder = append(ing.failedOrder, name)
			}
		case scenario.RestoreLink:
			name, _ := scenario.CanonicalLink(base, d.Link)
			if i, ok := ing.failedIdx[name]; ok {
				ing.failedOrder = append(ing.failedOrder[:i], ing.failedOrder[i+1:]...)
				delete(ing.failedIdx, name)
				for j := i; j < len(ing.failedOrder); j++ {
					ing.failedIdx[ing.failedOrder[j]] = j
				}
			}
		case scenario.DrainRouter:
			if _, dup := ing.drainIdx[d.Router]; !dup {
				ing.drainIdx[d.Router] = len(ing.drainOrder)
				ing.drainOrder = append(ing.drainOrder, d.Router)
			}
		case scenario.RestoreRouter:
			if i, ok := ing.drainIdx[d.Router]; ok {
				ing.drainOrder = append(ing.drainOrder[:i], ing.drainOrder[i+1:]...)
				delete(ing.drainIdx, d.Router)
				for j := i; j < len(ing.drainOrder); j++ {
					ing.drainIdx[ing.drainOrder[j]] = j
				}
			}
		default:
			ing.edits = append(ing.edits, d)
		}
	}
	ing.pending++
	return ing.pending >= ing.opts.MaxPending, nil
}

// Stack renders the current desired state as a delta stack: table edits in
// arrival order, then drains, then fails. Materialization applies edits in
// stack order and filters failures afterwards, so the relative position of
// fails vs edits does not change the overlay. The fixed order keeps the
// fingerprint stable when a window's events cancel out, so Flush can skip
// it.
func (ing *Ingester) Stack() []scenario.Delta {
	out := make([]scenario.Delta, 0, len(ing.edits)+len(ing.drainOrder)+len(ing.failedOrder))
	out = append(out, ing.edits...)
	for _, r := range ing.drainOrder {
		out = append(out, scenario.Delta{Kind: scenario.DrainRouter, Router: r})
	}
	for _, l := range ing.failedOrder {
		out = append(out, scenario.Delta{Kind: scenario.FailLink, Link: l})
	}
	return out
}

// Flush atomically replaces the session's delta stack with the coalesced
// desired state, then (unless the session's fingerprint is unchanged)
// refreshes the hub so watched invariants re-verify and changed cells
// stream out. The stack belongs to the feed: a delta applied to the
// session by other means lasts until the next flush, and a flush that
// drops it changes the fingerprint and so refreshes the hub.
func (ing *Ingester) Flush(ctx context.Context) (FlushInfo, error) {
	ing.flushMu.Lock()
	defer ing.flushMu.Unlock()

	stack := ing.Stack()
	before := ing.sess.Fingerprint()
	if _, err := ing.sess.SetStack(stack); err != nil {
		return FlushInfo{}, err
	}
	ing.seq++
	events := ing.pending
	ing.pending = 0
	mFlushes.Inc()
	mCoalesced.Observe(float64(events))

	fp := ing.sess.Fingerprint()
	info := FlushInfo{
		Seq:         ing.seq,
		Events:      events,
		StackLen:    len(stack),
		Fingerprint: fmt.Sprintf("%016x", fp),
	}
	if ing.flushedAny && fp == before {
		// The coalesced batch cancelled itself out (e.g. fail+restore of
		// the same link inside one window): nothing to re-verify.
		info.Skipped = true
	} else if ing.opts.Hub != nil {
		start := time.Now()
		info.Changed = ing.opts.Hub.Refresh(ctx)
		info.ReverifyMS = float64(time.Since(start)) / float64(time.Millisecond)
	}
	ing.flushedAny = true

	blocks := ing.sess.BlockStats()
	info.Blocks = blocks.Sub(ing.lastBlocks)
	ing.lastBlocks = blocks

	if ing.opts.OnFlush != nil {
		ing.opts.OnFlush(info)
	}
	return info, nil
}

// Run consumes the stream to EOF (or ctx cancellation), flushing per the
// debounce policy, with a final flush for any trailing events. Per-line
// errors are counted, reported through stats, and do not stop the run; a
// flush failure (which SetStack's pre-validation makes unreachable for
// events that passed Ingest) does.
func (ing *Ingester) Run(ctx context.Context, r io.Reader) (ReplayStats, error) {
	var stats ReplayStats

	type lineEv struct {
		ev  Event
		err error
	}
	lines := make(chan lineEv)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			ev, err := ParseEvent(sc.Text())
			if err == errSkip {
				continue
			}
			select {
			case lines <- lineEv{ev, err}:
			case <-ctx.Done():
				return
			}
		}
		if err := sc.Err(); err != nil {
			select {
			case lines <- lineEv{err: fmt.Errorf("live: reading feed: %w", err)}:
			case <-ctx.Done():
			}
		}
	}()

	flush := func() error {
		if ing.pending == 0 && stats.Flushes > 0 {
			return nil
		}
		info, err := ing.Flush(ctx)
		if err != nil {
			return err
		}
		stats.Flushes++
		stats.Changed += info.Changed
		return nil
	}

	var timer *time.Timer
	var timerC <-chan time.Time
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer, timerC = nil, nil
		}
	}
	defer stopTimer()

	for {
		select {
		case <-ctx.Done():
			return stats, ctx.Err()
		case <-timerC:
			stopTimer()
			if err := flush(); err != nil {
				return stats, err
			}
		case le, ok := <-lines:
			if !ok {
				// End of stream: flush the trailing batch (or, for an empty
				// feed, establish the baseline flush).
				stopTimer()
				if ing.pending > 0 || stats.Flushes == 0 {
					if err := flush(); err != nil {
						return stats, err
					}
				}
				return stats, nil
			}
			if le.err != nil {
				mEventErrors.Inc()
				stats.Errors++
				continue
			}
			stats.Events++
			now, err := ing.Ingest(le.ev)
			if err != nil {
				stats.Errors++
			}
			if now {
				stopTimer()
				if err := flush(); err != nil {
					return stats, err
				}
			} else if ing.opts.Window > 0 {
				stopTimer()
				timer = time.NewTimer(ing.opts.Window)
				timerC = timer.C
			}
		}
	}
}
