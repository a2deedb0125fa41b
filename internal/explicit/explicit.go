// Package explicit implements the strawman the paper's symbolic approach is
// measured against conceptually: an explicit-state reachability checker
// that enumerates (link, header) states directly instead of representing
// header languages symbolically as pushdown configurations.
//
// Because MPLS headers are unbounded, the explicit search must bound the
// header height; it is therefore only sound for queries whose witnesses
// stay under the bound, and its state space grows exponentially with the
// bound (|L|^h states for height h) — this is precisely the "exponential
// speedup compared to the direct encoding of all possible sequences of
// header symbols" claim of §1, reproduced by BenchmarkExplicitBlowup.
package explicit

import (
	"errors"
	"strings"

	"aalwines/internal/labels"
	"aalwines/internal/network"
	"aalwines/internal/nfa"
	"aalwines/internal/query"
	"aalwines/internal/routing"
	"aalwines/internal/topology"
)

// Options bound the explicit search.
type Options struct {
	// MaxHeight caps the header height explored (≥ 1). Default 4.
	MaxHeight int
	// MaxStates aborts the search beyond this many visited states
	// (default 5,000,000) — the explicit analogue of a timeout.
	MaxStates int
}

// ErrStateBudget is returned when the explicit state space exceeds
// Options.MaxStates.
var ErrStateBudget = errors.New("explicit: state budget exhausted")

// Result of an explicit check.
type Result struct {
	// Satisfied reports whether a witness within the height bound exists
	// for some failed set chosen per-step (over-approximately, like the
	// pushdown over-approximation; feasibility is NOT validated here —
	// the explicit baseline reproduces only the reachability core).
	Satisfied bool
	// Trace is a witness when satisfied.
	Trace network.Trace
	// VisitedStates counts distinct (link, header, NFA-state) tuples.
	VisitedStates int
	// HitHeightBound reports whether the bound pruned any successor; if
	// true and the query is unsatisfied the answer is unsound (a taller
	// witness may exist).
	HitHeightBound bool
}

// state is one explicit search node.
type state struct {
	link topology.LinkID
	bq   int    // path-NFA state
	hdr  string // packed header
}

// Verify runs the explicit-state search for a query under the
// over-approximate failure semantics (any priority group whose prefix
// failure set has size ≤ k may be chosen at each router independently).
func Verify(net *network.Network, q *query.Query, opts Options) (Result, error) {
	if opts.MaxHeight <= 0 {
		opts.MaxHeight = 4
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = 5_000_000
	}
	res := Result{}
	pre := q.PreNFA
	path := q.PathNFA
	post := q.PostNFA
	k := q.MaxFailures

	// Enumerate initial headers in Lang(a) up to the height bound. This is
	// the exponential step: |L|^h candidate headers.
	headers := enumerateHeaders(net.Labels, pre, opts.MaxHeight, &res)

	type qitem struct {
		st   state
		prev int // index into the trail, -1 for roots
	}
	var trail []qitem
	seen := map[state]bool{}
	var queue []int

	pushRoot := func(e topology.LinkID, bq int, h labels.Header) {
		st := state{e, bq, pack(h)}
		if !seen[st] {
			seen[st] = true
			trail = append(trail, qitem{st, -1})
			queue = append(queue, len(trail)-1)
		}
	}

	// Roots: every link × B-transition from start × every initial header.
	for _, arc := range path.Arcs(path.Start()) {
		arc := arc
		arc.Set.Each(func(sym nfa.Sym) bool {
			for _, h := range headers {
				pushRoot(topology.LinkID(sym), arc.To, h)
			}
			return true
		})
	}

	accepts := func(st state) bool {
		if !path.Accepting(st.bq) {
			return false
		}
		return post.Accepts(headerSyms(unpack(st.hdr)))
	}

	rebuild := func(i int) network.Trace {
		var rev []network.Step
		for ; i >= 0; i = trail[i].prev {
			rev = append(rev, network.Step{Link: trail[i].st.link, Header: unpack(trail[i].st.hdr)})
		}
		tr := make(network.Trace, len(rev))
		for j := range rev {
			tr[j] = rev[len(rev)-1-j]
		}
		return tr
	}

	for qi := 0; qi < len(queue); qi++ {
		if len(seen) > opts.MaxStates {
			res.VisitedStates = len(seen)
			return res, ErrStateBudget
		}
		idx := queue[qi]
		cur := trail[idx].st
		if accepts(cur) {
			res.Satisfied = true
			res.Trace = rebuild(idx)
			res.VisitedStates = len(seen)
			return res, nil
		}
		h := unpack(cur.hdr)
		if len(h) == 0 {
			continue
		}
		gs := net.Routing.Lookup(cur.link, h.Top())
		for j := range gs {
			if gs.PrefixFailures(j) > k {
				break
			}
			for _, entry := range gs[j].Entries {
				nh, err := routing.Rewrite(net.Labels, h, entry.Ops)
				if err != nil {
					continue
				}
				if len(nh) > opts.MaxHeight {
					res.HitHeightBound = true
					continue
				}
				for _, arc := range path.Arcs(cur.bq) {
					if !arc.Set.Has(nfa.Sym(entry.Out)) {
						continue
					}
					st := state{entry.Out, arc.To, pack(nh)}
					if !seen[st] {
						seen[st] = true
						trail = append(trail, qitem{st, idx})
						queue = append(queue, len(trail)-1)
					}
				}
			}
		}
	}
	res.VisitedStates = len(seen)
	return res, nil
}

// enumerateHeaders lists every valid header accepted by the label NFA up to
// the height bound, by depth-first product of the NFA with the height
// counter. The count is exponential in maxH for permissive expressions.
func enumerateHeaders(lt *labels.Table, a *nfa.NFA, maxH int, res *Result) []labels.Header {
	var out []labels.Header
	var walk func(states []int, h labels.Header)
	walk = func(states []int, h labels.Header) {
		if len(h) > 0 && h.Valid(lt) {
			for _, s := range states {
				if a.Accepting(s) {
					out = append(out, h.Clone())
					break
				}
			}
		}
		if len(h) == maxH {
			res.HitHeightBound = true
			return
		}
		// Group successors by next label.
		for sym := nfa.Sym(0); int(sym) < lt.Len(); sym++ {
			next := a.Step(states, sym)
			if len(next) == 0 {
				continue
			}
			walk(next, append(h, labels.ID(sym+1)))
		}
	}
	walk(a.EpsClosure(a.Start()), nil)
	return out
}

func pack(h labels.Header) string {
	var b strings.Builder
	b.Grow(len(h) * 4)
	for _, id := range h {
		b.WriteByte(byte(id))
		b.WriteByte(byte(id >> 8))
		b.WriteByte(byte(id >> 16))
		b.WriteByte(byte(id >> 24))
	}
	return b.String()
}

func unpack(s string) labels.Header {
	h := make(labels.Header, len(s)/4)
	for i := range h {
		h[i] = labels.ID(s[4*i]) | labels.ID(s[4*i+1])<<8 | labels.ID(s[4*i+2])<<16 | labels.ID(s[4*i+3])<<24
	}
	return h
}

func headerSyms(h labels.Header) []nfa.Sym {
	out := make([]nfa.Sym, len(h))
	for i, id := range h {
		out[i] = query.LabelSym(id)
	}
	return out
}
