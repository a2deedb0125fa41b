package nfa

import (
	"fmt"
	"strconv"
	"strings"
)

// MaxStates bounds the automata compiled from query text: Thompson
// construction (rex.Compile) and subset construction (Determinize) stop
// once an automaton would grow past it. Every generated, test and golden
// query compiles to a few dozen states. Without the bound a short query
// could ask for a quadratic (bounded repetition) or exponential (subset
// construction) amount of work before anything looks at its context.
const MaxStates = 512

// ErrTooManyStates reports an automaton that would exceed MaxStates.
var ErrTooManyStates = fmt.Errorf("automaton exceeds the %d-state bound", MaxStates)

// MaxArcs bounds the arcs of the ε-free automata compiled from query text:
// EpsFree and Product stop once their result would have more. Within
// MaxStates, ε-elimination alone can ask for quadratically many arcs
// (`(x?){n}` gives each state the arcs of every later one), and every
// later step (Product, Minterms, subset construction and, for header
// expressions, the per-arc set work over the whole label table) pays per
// arc. The generator and Table 1 query families keep at most ten.
const MaxArcs = 512

// ErrTooManyArcs reports an automaton that would exceed MaxArcs.
var ErrTooManyArcs = fmt.Errorf("automaton exceeds the %d-arc bound", MaxArcs)

// Minterms computes the atomic partition of the universe induced by the
// distinct arc sets of the automaton: the coarsest partition such that each
// arc set is a union of blocks. Subset construction can then treat every
// block as a single alphabet symbol. The result always covers the whole
// universe (symbols mentioned by no arc end up in a "rest" block).
//
// Each distinct arc set splits only the blocks it cuts: a block disjoint
// from the set or contained in it stays as it is, so a header naming many
// single labels does not clone two universe-sized sets per block and arc.
// A cut block is replaced by its part inside the set, then its part
// outside, which keeps the blocks and their order those of splitting every
// block.
func (a *NFA) Minterms() []*Set {
	blocks := []*Set{FullSet(a.universe)}
	seen := map[string]bool{}
	var next []*Set
	for s := range a.arcs {
		for _, arc := range a.arcs[s] {
			k := arc.Set.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			next = next[:0]
			for _, b := range blocks {
				if !b.Intersects(arc.Set) || b.subsetOf(arc.Set) {
					next = append(next, b)
					continue
				}
				next = append(next, b.Inter(arc.Set), b.Minus(arc.Set))
			}
			blocks, next = next, blocks
		}
	}
	return blocks
}

// Determinize performs subset construction over the minterm alphabet and
// returns a complete deterministic automaton (every state has exactly one
// successor per minterm; a non-accepting sink absorbs missing transitions).
// The result has no epsilon transitions and deterministic, disjoint arc
// sets per state. Construction stops with ErrTooManyStates as soon as the
// result would have more than MaxStates states.
func (a *NFA) Determinize() (*NFA, error) {
	minterms := a.Minterms()
	out := New(a.universe)
	// out's state 0 is the DFA start.
	type key = string
	idx := map[key]State{}
	mkKey := func(states []State) key {
		parts := make([]string, len(states))
		for i, s := range states {
			parts[i] = strconv.Itoa(s)
		}
		return strings.Join(parts, ",")
	}
	startSet := a.EpsClosure(a.start)
	idx[mkKey(startSet)] = out.Start()
	setAccept := func(d State, states []State) {
		for _, s := range states {
			if a.accept[s] {
				out.SetAccept(d, true)
				return
			}
		}
	}
	setAccept(out.Start(), startSet)
	type item struct {
		d      State
		states []State
	}
	queue := []item{{out.Start(), startSet}}
	sink := State(-1)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, mt := range minterms {
			// All symbols of a minterm behave identically; step on any one.
			x, ok := mt.First()
			var succ []State
			if ok {
				succ = a.Step(cur.states, x)
			}
			if len(succ) == 0 {
				if sink < 0 {
					if out.NumStates() == MaxStates {
						return nil, ErrTooManyStates
					}
					sink = out.AddState()
					for _, mt := range minterms {
						out.AddArc(sink, mt, sink)
					}
				}
				out.AddArc(cur.d, mt, sink)
				continue
			}
			k := mkKey(succ)
			d, ok2 := idx[k]
			if !ok2 {
				if out.NumStates() == MaxStates {
					return nil, ErrTooManyStates
				}
				d = out.AddState()
				idx[k] = d
				setAccept(d, succ)
				queue = append(queue, item{d, succ})
			}
			out.AddArc(cur.d, mt, d)
		}
	}
	return out, nil
}

// Complement returns an automaton accepting exactly the words the receiver
// rejects. The receiver may be any NFA; it is determinized first, so it
// fails as Determinize does.
func (a *NFA) Complement() (*NFA, error) {
	d, err := a.Determinize()
	if err != nil {
		return nil, err
	}
	for s := range d.accept {
		d.accept[s] = !d.accept[s]
	}
	return d, nil
}

// Product returns an automaton for the intersection of two languages over
// the same universe, built as the synchronous product of the epsilon-free
// forms. It fails with ErrTooManyArcs when either form or the product
// would have more than MaxArcs arcs.
func Product(a, b *NFA) (*NFA, error) {
	af, err := a.EpsFree()
	if err != nil {
		return nil, err
	}
	bf, err := b.EpsFree()
	if err != nil {
		return nil, err
	}
	out := New(a.universe)
	arcs := 0
	type pair struct{ x, y State }
	idx := map[pair]State{}
	get := func(p pair) State {
		if s, ok := idx[p]; ok {
			return s
		}
		var s State
		if len(idx) == 0 {
			s = out.Start()
		} else {
			s = out.AddState()
		}
		idx[p] = s
		out.SetAccept(s, af.Accepting(p.x) && bf.Accepting(p.y))
		return s
	}
	startP := pair{af.Start(), bf.Start()}
	get(startP)
	queue := []pair{startP}
	done := map[pair]bool{startP: true}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		ps := idx[p]
		for _, ax := range af.Arcs(p.x) {
			for _, bx := range bf.Arcs(p.y) {
				inter := ax.Set.Inter(bx.Set)
				if inter.IsEmpty() {
					continue
				}
				if arcs++; arcs > MaxArcs {
					return nil, ErrTooManyArcs
				}
				np := pair{ax.To, bx.To}
				ns := get(np)
				out.AddArc(ps, inter, ns)
				if !done[np] {
					done[np] = true
					queue = append(queue, np)
				}
			}
		}
	}
	return out, nil
}
