// Package rex defines the regular expression AST shared by the two halves
// of the AalWiNes query language — label expressions over L and link
// expressions over E — and compiles it to the symbol-set NFAs of
// internal/nfa via Thompson's construction. Complement (the ^ operator of
// the query language) is compiled by determinising the operand.
package rex

import (
	"fmt"
	"strings"

	"aalwines/internal/nfa"
)

// Node is a regular expression tree node.
type Node interface {
	fmt.Stringer
	isNode()
}

// Empty denotes the empty language ∅.
type Empty struct{}

// Eps denotes the language {ε}.
type Eps struct{}

// Atom matches exactly one symbol from Set. Name is the surface syntax that
// produced the atom; it is used only for diagnostics.
type Atom struct {
	Set  *nfa.Set
	Name string
}

// Concat matches the concatenation of its parts.
type Concat struct{ Parts []Node }

// Union matches the union (alternation) of its parts.
type Union struct{ Parts []Node }

// Star matches zero or more repetitions of X.
type Star struct{ X Node }

// Plus matches one or more repetitions of X.
type Plus struct{ X Node }

// Opt matches zero or one occurrence of X.
type Opt struct{ X Node }

// Not matches the complement of X's language over the full universe.
type Not struct{ X Node }

// Repeat matches between Min and Max repetitions of X; Max < 0 means
// unbounded ("{n,}"). It extends the paper's query language (listed there
// as future work on expressiveness).
type Repeat struct {
	X        Node
	Min, Max int
}

func (Empty) isNode()  {}
func (Eps) isNode()    {}
func (Atom) isNode()   {}
func (Concat) isNode() {}
func (Union) isNode()  {}
func (Star) isNode()   {}
func (Plus) isNode()   {}
func (Opt) isNode()    {}
func (Not) isNode()    {}
func (Repeat) isNode() {}

func (Empty) String() string { return "∅" }
func (Eps) String() string   { return "ε" }
func (a Atom) String() string {
	if a.Name != "" {
		return a.Name
	}
	return fmt.Sprintf("{%d syms}", a.Set.Len())
}
func (c Concat) String() string { return joinNodes(c.Parts, " ") }
func (u Union) String() string  { return "(" + joinNodes(u.Parts, "|") + ")" }
func (s Star) String() string   { return group(s.X) + "*" }
func (p Plus) String() string   { return group(p.X) + "+" }
func (o Opt) String() string    { return group(o.X) + "?" }
func (n Not) String() string    { return "^" + group(n.X) }
func (r Repeat) String() string {
	if r.Max < 0 {
		return fmt.Sprintf("%s{%d,}", group(r.X), r.Min)
	}
	if r.Min == r.Max {
		return fmt.Sprintf("%s{%d}", group(r.X), r.Min)
	}
	return fmt.Sprintf("%s{%d,%d}", group(r.X), r.Min, r.Max)
}

func joinNodes(ns []Node, sep string) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = n.String()
	}
	return strings.Join(parts, sep)
}

func group(n Node) string {
	switch n.(type) {
	case Atom, Eps, Empty:
		return n.String()
	default:
		return "(" + n.String() + ")"
	}
}

// Compile translates a regular expression into an NFA over the given symbol
// universe using Thompson's construction; Not subtrees are compiled by
// determinisation and complementation, then spliced in. Compilation stops
// with nfa.ErrTooManyStates once the automaton would have more than
// nfa.MaxStates states, so a bounded repetition cannot ask for more.
func Compile(n Node, universe int) (*nfa.NFA, error) {
	a := nfa.New(universe)
	fin := a.AddState()
	if err := compileInto(n, a, a.Start(), fin, universe); err != nil {
		return nil, err
	}
	a.SetAccept(fin, true)
	return a, nil
}

// addState adds a state to a unless a already has nfa.MaxStates.
func addState(a *nfa.NFA) (nfa.State, error) {
	if a.NumStates() >= nfa.MaxStates {
		return 0, nfa.ErrTooManyStates
	}
	return a.AddState(), nil
}

// compileInto builds n between states from and to of a.
func compileInto(n Node, a *nfa.NFA, from, to nfa.State, universe int) error {
	switch x := n.(type) {
	case Empty:
		// no transition: dead
	case Eps:
		a.AddEps(from, to)
	case Atom:
		a.AddArc(from, x.Set, to)
	case Concat:
		return compileSeq(len(x.Parts), func(i int) Node { return x.Parts[i] }, a, from, to, universe)
	case Union:
		// An empty union is ∅: no transition.
		for _, p := range x.Parts {
			if err := compileInto(p, a, from, to, universe); err != nil {
				return err
			}
		}
	case Star:
		mid, err := addState(a)
		if err != nil {
			return err
		}
		a.AddEps(from, mid)
		a.AddEps(mid, to)
		inner, err := addState(a)
		if err != nil {
			return err
		}
		a.AddEps(mid, inner)
		return compileInto(x.X, a, inner, mid, universe)
	case Plus:
		return compileInto(Concat{Parts: []Node{x.X, Star{X: x.X}}}, a, from, to, universe)
	case Opt:
		a.AddEps(from, to)
		return compileInto(x.X, a, from, to, universe)
	case Repeat:
		// Min copies of X, then X* or Max−Min copies of X?, in sequence.
		// The parts are made as they are compiled, so a count far past
		// the state bound costs no more than one at it.
		parts := x.Min
		if x.Max < 0 {
			parts++
		} else if x.Max > x.Min {
			parts = x.Max
		}
		return compileSeq(parts, func(i int) Node {
			switch {
			case i < x.Min:
				return x.X
			case x.Max < 0:
				return Star{X: x.X}
			default:
				return Opt{X: x.X}
			}
		}, a, from, to, universe)
	case Not:
		sub, err := Compile(x.X, universe)
		if err != nil {
			return err
		}
		if sub, err = sub.Complement(); err != nil {
			return err
		}
		return splice(sub, a, from, to)
	default:
		panic(fmt.Sprintf("rex: unknown node type %T", n))
	}
	return nil
}

// compileSeq builds the concatenation of n parts between from and to,
// with a fresh state between consecutive parts; no parts is ε.
func compileSeq(n int, part func(int) Node, a *nfa.NFA, from, to nfa.State, universe int) error {
	if n <= 0 {
		a.AddEps(from, to)
		return nil
	}
	cur := from
	for i := 0; i < n; i++ {
		next := to
		if i < n-1 {
			var err error
			if next, err = addState(a); err != nil {
				return err
			}
		}
		if err := compileInto(part(i), a, cur, next, universe); err != nil {
			return err
		}
		cur = next
	}
	return nil
}

// splice copies automaton sub into a, identifying sub's start with from and
// routing acceptance to to via epsilon transitions.
func splice(sub *nfa.NFA, a *nfa.NFA, from, to nfa.State) error {
	m := make([]nfa.State, sub.NumStates())
	for s := 0; s < sub.NumStates(); s++ {
		if s == sub.Start() {
			m[s] = from
			continue
		}
		var err error
		if m[s], err = addState(a); err != nil {
			return err
		}
	}
	for s := 0; s < sub.NumStates(); s++ {
		for _, arc := range sub.Arcs(s) {
			a.AddArc(m[s], arc.Set, m[arc.To])
		}
		if sub.Accepting(s) {
			a.AddEps(m[s], to)
		}
	}
	return nil
}

// AnyAtom returns an atom matching every symbol of the universe (the "."
// of the query language).
func AnyAtom(universe int) Atom {
	return Atom{Set: nfa.FullSet(universe), Name: "."}
}
