package nfa

import "fmt"

// State is an automaton state index.
type State = int

// Arc is a transition consuming any symbol in Set.
type Arc struct {
	Set *Set
	To  State
}

// NFA is a nondeterministic finite automaton with symbol-set transitions
// and epsilon moves. States are dense indices. The zero value is not
// usable; construct with New.
type NFA struct {
	universe int
	arcs     [][]Arc
	eps      [][]State
	start    State
	accept   []bool
}

// New returns an NFA over the given symbol universe with a single
// non-accepting start state.
func New(universe int) *NFA {
	a := &NFA{universe: universe}
	a.start = a.AddState()
	return a
}

// Universe returns the symbol universe size.
func (a *NFA) Universe() int { return a.universe }

// AddState adds a fresh non-accepting state and returns its index.
func (a *NFA) AddState() State {
	a.arcs = append(a.arcs, nil)
	a.eps = append(a.eps, nil)
	a.accept = append(a.accept, false)
	return len(a.arcs) - 1
}

// NumStates returns the number of states.
func (a *NFA) NumStates() int { return len(a.arcs) }

// Start returns the start state.
func (a *NFA) Start() State { return a.start }

// SetAccept marks or unmarks a state as accepting.
func (a *NFA) SetAccept(s State, v bool) { a.accept[s] = v }

// Accepting reports whether s is accepting.
func (a *NFA) Accepting(s State) bool { return a.accept[s] }

// AddArc adds a transition from p to q consuming any symbol in set. Empty
// sets are dropped.
func (a *NFA) AddArc(p State, set *Set, q State) {
	if set.Universe() != a.universe {
		panic(fmt.Sprintf("nfa: arc set universe %d != automaton universe %d", set.Universe(), a.universe))
	}
	if set.IsEmpty() {
		return
	}
	a.arcs[p] = append(a.arcs[p], Arc{Set: set, To: q})
}

// AddEps adds an epsilon transition from p to q.
func (a *NFA) AddEps(p, q State) {
	if p != q {
		a.eps[p] = append(a.eps[p], q)
	}
}

// Arcs returns the outgoing symbol transitions of s. The slice is shared;
// callers must not modify it.
func (a *NFA) Arcs(s State) []Arc { return a.arcs[s] }

// EpsClosure returns the epsilon closure of the given states as a sorted,
// deduplicated slice.
func (a *NFA) EpsClosure(states ...State) []State {
	seen := make(map[State]bool, len(states))
	var stack []State
	for _, s := range states {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range a.eps[s] {
			if !seen[q] {
				seen[q] = true
				stack = append(stack, q)
			}
		}
	}
	out := make([]State, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sortStates(out)
	return out
}

// Step returns the set of states reachable from the given states by
// consuming symbol x (including epsilon closure of the result).
func (a *NFA) Step(states []State, x Sym) []State {
	var next []State
	seen := make(map[State]bool)
	for _, s := range states {
		for _, arc := range a.arcs[s] {
			if arc.Set.Has(x) && !seen[arc.To] {
				seen[arc.To] = true
				next = append(next, arc.To)
			}
		}
	}
	if next == nil {
		return nil
	}
	return a.EpsClosure(next...)
}

// Accepts simulates the automaton on a word.
func (a *NFA) Accepts(word []Sym) bool {
	cur := a.EpsClosure(a.start)
	for _, x := range word {
		cur = a.Step(cur, x)
		if len(cur) == 0 {
			return false
		}
	}
	for _, s := range cur {
		if a.accept[s] {
			return true
		}
	}
	return false
}

// Empty reports whether the automaton's language is empty, i.e. no
// accepting state is reachable from the start over non-empty arc sets.
func (a *NFA) Empty() bool {
	seen := make([]bool, len(a.arcs))
	stack := []State{a.start}
	seen[a.start] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a.accept[s] {
			return false
		}
		for _, q := range a.eps[s] {
			if !seen[q] {
				seen[q] = true
				stack = append(stack, q)
			}
		}
		for _, arc := range a.arcs[s] {
			if !arc.Set.IsEmpty() && !seen[arc.To] {
				seen[arc.To] = true
				stack = append(stack, arc.To)
			}
		}
	}
	return true
}

// NumArcs returns the number of symbol transitions.
func (a *NFA) NumArcs() int {
	n := 0
	for _, arcs := range a.arcs {
		n += len(arcs)
	}
	return n
}

// EpsFree returns an equivalent automaton without epsilon transitions.
// State indices are preserved (plus no new states are added): each state
// gains the arcs of its epsilon closure, and becomes accepting if its
// closure contains an accepting state. A state's closure can hold every
// other state, so the result can have quadratically many arcs; EpsFree
// stops with ErrTooManyArcs once it would have more than MaxArcs.
func (a *NFA) EpsFree() (*NFA, error) {
	out := &NFA{
		universe: a.universe,
		arcs:     make([][]Arc, len(a.arcs)),
		eps:      make([][]State, len(a.arcs)),
		start:    a.start,
		accept:   make([]bool, len(a.accept)),
	}
	n := 0
	for s := range a.arcs {
		for _, c := range a.EpsClosure(s) {
			if a.accept[c] {
				out.accept[s] = true
			}
			out.arcs[s] = append(out.arcs[s], a.arcs[c]...)
			if n += len(a.arcs[c]); n > MaxArcs {
				return nil, ErrTooManyArcs
			}
		}
	}
	return out, nil
}

func sortStates(s []State) {
	// insertion sort: closures are small
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
