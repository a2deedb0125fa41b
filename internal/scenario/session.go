package scenario

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"aalwines/internal/batch"
	"aalwines/internal/engine"
	"aalwines/internal/network"
	"aalwines/internal/obs"
	"aalwines/internal/routing"
	"aalwines/internal/topology"
	"aalwines/internal/translate"
)

var (
	mSessionsLive  = obs.GetGauge("scenario_sessions_live")
	mSessionsTotal = obs.GetCounter("scenario_sessions_total")
	mDeltasApplied = obs.GetCounter("scenario_deltas_applied_total")
	mDeltasUndone  = obs.GetCounter("scenario_deltas_undone_total")
)

// AppliedDelta is a delta on a session's stack, addressable for undo.
type AppliedDelta struct {
	Seq   int    `json:"seq"`
	Canon string `json:"command"`
	Delta Delta  `json:"delta"`
}

// Session owns a base network and a stack of applied deltas, and serves
// verification against the resulting overlay. The overlay shares the
// base's topology, label table and every routing partition no delta
// touched; the translation layer additionally reuses the compiled rule
// block of every routing key whose groups it has translated before.
// Sessions are safe for concurrent use; mutations serialize against each
// other, and verifies concurrent with a mutation see either the old or the
// new overlay in full.
type Session struct {
	base   *network.Network
	cache  *translate.SessionCache
	runner *batch.Runner

	mu      sync.Mutex
	deltas  []AppliedDelta
	nextSeq int
	overlay *network.Network
	fp      uint64
	closed  bool
}

// NewSession opens a session on a base network. The base is treated as
// immutable for the session's lifetime.
func NewSession(base *network.Network) *Session {
	cache := translate.NewSessionCache(base)
	s := &Session{
		base:    base,
		cache:   cache,
		runner:  batch.NewRunnerWithCache(base, cache),
		nextSeq: 1,
		overlay: base,
		fp:      fnvOffset,
	}
	mSessionsLive.Add(1)
	mSessionsTotal.Inc()
	return s
}

// Close releases the session's live-gauge slot. Idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		mSessionsLive.Add(-1)
	}
}

// Closed reports whether Close has been called. Long-lived consumers (the
// HTTP watch hub, the live feed ingester) poll it to stop serving a
// session that was torn down underneath them.
func (s *Session) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Base returns the immutable base network.
func (s *Session) Base() *network.Network { return s.base }

// Overlay returns the current overlay network.
func (s *Session) Overlay() *network.Network {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overlay
}

// Fingerprint returns the delta-stack fingerprint: an FNV-1a chain over
// the canonical commands of the applied deltas, so equal stacks have equal
// fingerprints.
func (s *Session) Fingerprint() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fp
}

// Deltas lists the applied deltas in application order.
func (s *Session) Deltas() []AppliedDelta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]AppliedDelta(nil), s.deltas...)
}

// ApplyError reports which delta of an atomic batch application failed.
// Nothing was applied when one is returned.
type ApplyError struct {
	// Index is the failing delta's position in the submitted batch.
	Index int
	// Cmd is the failing command as submitted (ApplyAllText) or in
	// canonical form (ApplyAll).
	Cmd string
	// Err is the underlying parse or validation error.
	Err error
}

func (e *ApplyError) Error() string {
	return fmt.Sprintf("delta %d (%s): %v", e.Index, e.Cmd, e.Err)
}

func (e *ApplyError) Unwrap() error { return e.Err }

// Apply validates a delta against the base network, pushes it on the
// stack and rebuilds the overlay. It returns the sequence number to pass
// to Undo.
func (s *Session) Apply(d Delta) (int, error) {
	seqs, err := s.ApplyAll([]Delta{d})
	if err != nil {
		var ae *ApplyError
		if errors.As(err, &ae) {
			return 0, ae.Err
		}
		return 0, err
	}
	return seqs[0], nil
}

// ApplyText parses and applies one delta command.
func (s *Session) ApplyText(cmd string) (int, error) {
	d, err := ParseDelta(cmd)
	if err != nil {
		return 0, err
	}
	return s.Apply(d)
}

// ApplyAll applies a batch of deltas atomically: every delta is validated
// against the base network before any is pushed, and the stack mutation
// plus overlay rebuild happen under one lock — so either all deltas apply
// (returning their sequence numbers in submission order) or none do, and
// a concurrent Verify observes the stack before or after the whole batch,
// never between its deltas. On failure the error is an *ApplyError naming
// the offending delta.
func (s *Session) ApplyAll(ds []Delta) ([]int, error) {
	for i, d := range ds {
		if err := d.validate(s.base); err != nil {
			return nil, &ApplyError{Index: i, Cmd: d.Canon(), Err: err}
		}
	}
	if len(ds) == 0 {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seqs := make([]int, len(ds))
	for i, d := range ds {
		seqs[i] = s.nextSeq
		s.nextSeq++
		s.deltas = append(s.deltas, AppliedDelta{Seq: seqs[i], Canon: d.Canon(), Delta: d})
	}
	s.refresh()
	mDeltasApplied.Add(int64(len(ds)))
	return seqs, nil
}

// SetStack atomically replaces the whole delta stack: every delta is
// validated against the base network before anything changes, then the old
// stack is dropped, the new one pushed and the overlay rebuilt once, all
// under one lock — a concurrent Verify sees the old stack or the new one,
// never a mixture. It is the bulk analogue of ApplyAll+Undo for callers
// that step between neighbouring what-if states (the resilience sweep
// walks thousands of 1–2 delta stacks): the session cache keys rule blocks
// by routing content, so every key the two stacks leave alike reuses its
// block. On failure the stack is unchanged and the error is an
// *ApplyError naming the offending delta.
func (s *Session) SetStack(ds []Delta) ([]int, error) {
	for i, d := range ds {
		if err := d.validate(s.base); err != nil {
			return nil, &ApplyError{Index: i, Cmd: d.Canon(), Err: err}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deltas = s.deltas[:0]
	seqs := make([]int, len(ds))
	for i, d := range ds {
		seqs[i] = s.nextSeq
		s.nextSeq++
		s.deltas = append(s.deltas, AppliedDelta{Seq: seqs[i], Canon: d.Canon(), Delta: d})
	}
	s.refresh()
	mDeltasApplied.Add(int64(len(ds)))
	return seqs, nil
}

// ApplyAllText parses and atomically applies a batch of delta commands;
// see ApplyAll.
func (s *Session) ApplyAllText(cmds []string) ([]int, error) {
	ds := make([]Delta, len(cmds))
	for i, cmd := range cmds {
		d, err := ParseDelta(cmd)
		if err != nil {
			return nil, &ApplyError{Index: i, Cmd: cmd, Err: err}
		}
		ds[i] = d
	}
	return s.ApplyAll(ds)
}

// Undo removes the delta with the given sequence number — any delta, not
// just the newest — and rebuilds the overlay from the remaining stack.
func (s *Session) Undo(seq int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, ad := range s.deltas {
		if ad.Seq == seq {
			s.deltas = append(s.deltas[:i], s.deltas[i+1:]...)
			s.refresh()
			mDeltasUndone.Inc()
			return nil
		}
	}
	return fmt.Errorf("scenario: no delta with seq %d", seq)
}

// refresh recomputes the overlay and fingerprint from the current stack.
// Caller holds s.mu. Rebuilding from the full stack (rather than patching
// incrementally) keeps undo trivially correct: the state after undoing
// delta seq is definitionally the state of the remaining stack, and its
// keys' groups match the rule blocks cached before the delta.
func (s *Session) refresh() {
	s.overlay = s.materialize(false)
	s.fp = fnvOffset
	for _, ad := range s.deltas {
		s.fp = fnvAdd(s.fp, ad.Canon)
	}
}

// MaterializeFresh builds a standalone deep copy of the mutated network —
// fresh routing table, no structure shared with the base beyond the
// immutable topology and label table. Verifying it from scratch (no
// session cache) is the reference the differential tests compare overlay
// verification against.
func (s *Session) MaterializeFresh() *network.Network {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.materialize(true)
}

// materialize applies the delta stack to the base network. With fresh
// false, untouched keys share the base table's group slices (the overlay
// view); with fresh true every key is deep-copied. Caller holds s.mu.
//
// Semantics: entry edits apply to the base content in stack order, then
// link failures filter the result — a failed link's entries vanish (so
// backup groups activate without consuming the query's failure budget) and
// keys arriving over it are dropped; draining a router fails all its
// incident links. Trailing empty groups are trimmed and keys left without
// entries are removed, matching what routing.Table.Add could have built —
// so the overlay is indistinguishable from a from-scratch table with the
// same content.
func (s *Session) materialize(fresh bool) *network.Network {
	if len(s.deltas) == 0 && !fresh {
		return s.base
	}
	g := s.base.Topo
	failed := make(map[topology.LinkID]bool)
	drained := make(map[topology.RouterID]bool)
	edits := make(map[routing.Key][]Delta)
	for _, ad := range s.deltas {
		d := ad.Delta
		switch d.Kind {
		case FailLink, RestoreLink:
			l, _ := resolveLink(g, d.Link)
			if d.Kind == FailLink {
				failed[l] = true
			} else {
				delete(failed, l)
			}
		case DrainRouter, RestoreRouter:
			r := g.RouterByName(d.Router)
			if d.Kind == DrainRouter {
				drained[r] = true
			} else {
				delete(drained, r)
			}
		case AddEntry, RemoveEntry, SwapPriority:
			in, _ := resolveLink(g, d.In)
			key := routing.Key{In: in, Top: s.base.Labels.Lookup(d.Top)}
			edits[key] = append(edits[key], d)
		}
	}
	for r := range drained {
		for _, l := range g.Routers[r].Out() {
			failed[l] = true
		}
		for _, l := range g.Routers[r].In() {
			failed[l] = true
		}
	}

	t := routing.NewTable()
	keys := s.base.Routing.Keys()
	seen := make(map[routing.Key]bool, len(keys))
	for _, k := range keys {
		seen[k] = true
	}
	for k := range edits {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	for _, key := range keys {
		if failed[key.In] {
			continue
		}
		baseGs := s.base.Routing.Lookup(key.In, key.Top)
		eds := edits[key]
		touched := len(eds) > 0
		if !touched {
			for _, grp := range baseGs {
				for _, e := range grp.Entries {
					if failed[e.Out] {
						touched = true
						break
					}
				}
			}
		}
		if !touched {
			if fresh {
				t.SetGroups(key.In, key.Top, deepCopyGroups(baseGs))
			} else {
				t.SetGroups(key.In, key.Top, baseGs)
			}
			continue
		}
		gs := deepCopyGroups(baseGs)
		for _, d := range eds {
			gs = applyEdit(gs, d, s.base)
		}
		// Filter failed out-links, trim trailing empties.
		total := 0
		for j := range gs {
			kept := gs[j].Entries[:0]
			for _, e := range gs[j].Entries {
				if !failed[e.Out] {
					kept = append(kept, e)
				}
			}
			gs[j].Entries = kept
			total += len(kept)
		}
		for len(gs) > 0 && len(gs[len(gs)-1].Entries) == 0 {
			gs = gs[:len(gs)-1]
		}
		if total == 0 {
			continue
		}
		t.SetGroups(key.In, key.Top, gs)
	}

	name := s.base.Name
	if fresh {
		name += "+materialized"
	}
	return &network.Network{
		Name:    name,
		Topo:    s.base.Topo,
		Labels:  s.base.Labels,
		Routing: t,
	}
}

// applyEdit applies one entry/priority delta to a deep-copied group list.
func applyEdit(gs routing.Groups, d Delta, base *network.Network) routing.Groups {
	switch d.Kind {
	case AddEntry:
		out, _ := resolveLink(base.Topo, d.Out)
		ops, _ := parseOps(d.Ops, base.Labels)
		for len(gs) < d.Priority {
			gs = append(gs, routing.Group{})
		}
		gs[d.Priority-1].Entries = append(gs[d.Priority-1].Entries, routing.Entry{Out: out, Ops: ops})
	case RemoveEntry:
		if d.Priority <= len(gs) {
			out, _ := resolveLink(base.Topo, d.Out)
			grp := &gs[d.Priority-1]
			kept := grp.Entries[:0]
			for _, e := range grp.Entries {
				if e.Out != out {
					kept = append(kept, e)
				}
			}
			grp.Entries = kept
		}
	case SwapPriority:
		hi := d.Priority
		if d.Priority2 > hi {
			hi = d.Priority2
		}
		for len(gs) < hi {
			gs = append(gs, routing.Group{})
		}
		gs[d.Priority-1], gs[d.Priority2-1] = gs[d.Priority2-1], gs[d.Priority-1]
	}
	return gs
}

func deepCopyGroups(gs routing.Groups) routing.Groups {
	out := make(routing.Groups, len(gs))
	for j, grp := range gs {
		es := make([]routing.Entry, len(grp.Entries))
		for i, e := range grp.Entries {
			es[i] = routing.Entry{Out: e.Out, Ops: append(routing.Ops(nil), e.Ops...)}
		}
		out[j].Entries = es
	}
	return out
}

// Verify runs one query against the current overlay, with translation
// served from the session's incremental cache.
func (s *Session) Verify(ctx context.Context, queryText string, opts engine.Options) (engine.Result, error) {
	rs := s.VerifyBatch(ctx, []string{queryText}, batch.Options{Workers: 1, Engine: opts})
	return rs[0].Res, rs[0].Err
}

// VerifyBatch runs a batch of queries against the current overlay on the
// session's shared runner (bounded worker pool, results in input order).
func (s *Session) VerifyBatch(ctx context.Context, queries []string, opts batch.Options) []batch.Result {
	rs, _ := s.VerifyBatchSnapshot(ctx, queries, opts)
	return rs
}

// VerifyBatchSnapshot is VerifyBatch returning also the overlay network
// the whole batch was pinned to. Callers rendering the results (witness
// traces reference the network's links and headers) must render from the
// returned overlay: a delta applied concurrently with the verification
// swaps Overlay() underneath, while the runs stay on the snapshot taken
// here.
func (s *Session) VerifyBatchSnapshot(ctx context.Context, queries []string, opts batch.Options) ([]batch.Result, *network.Network) {
	overlay := s.Overlay()
	return s.runner.VerifyOn(ctx, overlay, queries, opts), overlay
}

// CacheStats reports the session translation cache's assembled-system
// counters.
func (s *Session) CacheStats() translate.CacheStats { return s.cache.Stats() }

// BlockStats reports cumulative rule-block reuse across the session's
// incremental translations.
func (s *Session) BlockStats() translate.BuildStats { return s.cache.BlockStats() }

// FNV-1a, chained per record with a separator so delta boundaries matter.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	h ^= 0x1e // record separator
	h *= fnvPrime
	return h
}
