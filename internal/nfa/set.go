// Package nfa implements nondeterministic and deterministic finite automata
// over a finite symbol universe, with transitions labelled by symbol *sets*
// rather than single symbols. This keeps query automata small even when the
// label or link universe is large (the NORDUnet snapshot has hundreds of
// thousands of labels): an atom like the query abbreviation "smpls" is one
// transition carrying the set of all bottom-of-stack labels.
//
// The package provides Thompson-style construction, epsilon elimination,
// subset construction via minterm partitioning, completion, complementation
// and product intersection — everything the query compiler (internal/query)
// and the pushdown translation (internal/translate) need.
package nfa

import (
	"fmt"
	"math/bits"
	"strings"
)

// Sym is a symbol of the universe: a dense identifier such as a label ID or
// a link ID, in the range [0, universe).
type Sym = uint32

// Set is a fixed-universe bitset of symbols.
type Set struct {
	words []uint64
	n     int
}

// NewSet returns an empty set over a universe of n symbols.
func NewSet(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// FullSet returns the set containing every symbol of the universe.
func FullSet(n int) *Set {
	s := NewSet(n)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
	return s
}

// SetOf returns the set containing exactly the given symbols.
func SetOf(n int, syms ...Sym) *Set {
	s := NewSet(n)
	for _, x := range syms {
		s.Add(x)
	}
	return s
}

func (s *Set) trim() {
	if rem := s.n % 64; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Universe returns the universe size the set was created with.
func (s *Set) Universe() int { return s.n }

// Add inserts a symbol; out-of-range symbols panic (a programming error).
func (s *Set) Add(x Sym) {
	if int(x) >= s.n {
		panic(fmt.Sprintf("nfa: symbol %d outside universe %d", x, s.n))
	}
	s.words[x/64] |= 1 << (x % 64)
}

// Has reports membership.
func (s *Set) Has(x Sym) bool {
	if int(x) >= s.n {
		return false
	}
	return s.words[x/64]&(1<<(x%64)) != 0
}

// IsEmpty reports whether the set has no members.
func (s *Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of members.
func (s *Set) Len() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	out := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(out.words, s.words)
	return out
}

// Union returns s ∪ o as a new set.
func (s *Set) Union(o *Set) *Set {
	out := s.Clone()
	for i, w := range o.words {
		out.words[i] |= w
	}
	return out
}

// Inter returns s ∩ o as a new set.
func (s *Set) Inter(o *Set) *Set {
	out := s.Clone()
	for i, w := range o.words {
		out.words[i] &= w
	}
	return out
}

// Intersects reports whether s ∩ o is non-empty without allocating the
// intersection; hot in the saturation early-accept check.
func (s *Set) Intersects(o *Set) bool {
	w := s.words
	if len(o.words) < len(w) {
		w = w[:len(o.words)]
	}
	for i := range w {
		if w[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// FirstInter returns the smallest member of s ∩ o without allocating the
// intersection; ok is false when the sets are disjoint. It equals
// s.Inter(o).First() and serves the witness search, which needs one
// concrete symbol per set edge.
func (s *Set) FirstInter(o *Set) (Sym, bool) {
	w := s.words
	if len(o.words) < len(w) {
		w = w[:len(o.words)]
	}
	for i := range w {
		if x := w[i] & o.words[i]; x != 0 {
			return Sym(i*64 + bits.TrailingZeros64(x)), true
		}
	}
	return 0, false
}

// subsetOf reports whether every member of s is in o, a set over the same
// universe.
func (s *Set) subsetOf(o *Set) bool {
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Minus returns s \ o as a new set.
func (s *Set) Minus(o *Set) *Set {
	out := s.Clone()
	for i, w := range o.words {
		out.words[i] &^= w
	}
	return out
}

// Complement returns the universe minus s as a new set.
func (s *Set) Complement() *Set {
	out := &Set{words: make([]uint64, len(s.words)), n: s.n}
	for i, w := range s.words {
		out.words[i] = ^w
	}
	out.trim()
	return out
}

// Equal reports whether two sets over the same universe are equal.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Key returns a map key uniquely identifying the set's contents.
func (s *Set) Key() string {
	var b strings.Builder
	b.Grow(len(s.words) * 8)
	for _, w := range s.words {
		for i := 0; i < 8; i++ {
			b.WriteByte(byte(w >> (8 * i)))
		}
	}
	return b.String()
}

// Each calls f for every member in ascending order; f returning false stops
// the iteration.
func (s *Set) Each(f func(Sym) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(Sym(wi*64 + b)) {
				return
			}
			w &= w - 1
		}
	}
}

// Members returns all members in ascending order.
func (s *Set) Members() []Sym {
	out := make([]Sym, 0, s.Len())
	s.Each(func(x Sym) bool { out = append(out, x); return true })
	return out
}

// First returns the smallest member; ok is false when the set is empty.
func (s *Set) First() (Sym, bool) {
	for wi, w := range s.words {
		if w != 0 {
			return Sym(wi*64 + bits.TrailingZeros64(w)), true
		}
	}
	return 0, false
}
