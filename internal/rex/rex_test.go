package rex

import (
	"errors"
	"testing"
	"testing/quick"

	"aalwines/internal/nfa"
)

// Universe {0,1,2} with handy atoms.
const U = 3

func atom(syms ...nfa.Sym) Atom { return Atom{Set: nfa.SetOf(U, syms...), Name: "a"} }

func compile(t *testing.T, n Node) *nfa.NFA {
	t.Helper()
	a, err := Compile(n, U)
	if err != nil {
		t.Fatalf("Compile(%s): %v", n, err)
	}
	return a
}

func accepts(t *testing.T, n Node, w []nfa.Sym) bool {
	t.Helper()
	return compile(t, n).Accepts(w)
}

func TestAtom(t *testing.T) {
	n := atom(1)
	if !accepts(t, n, []nfa.Sym{1}) {
		t.Error("atom rejects its symbol")
	}
	if accepts(t, n, []nfa.Sym{0}) || accepts(t, n, nil) || accepts(t, n, []nfa.Sym{1, 1}) {
		t.Error("atom accepts wrong words")
	}
}

func TestEpsAndEmpty(t *testing.T) {
	if !accepts(t, Eps{}, nil) || accepts(t, Eps{}, []nfa.Sym{0}) {
		t.Error("Eps wrong")
	}
	if accepts(t, Empty{}, nil) || accepts(t, Empty{}, []nfa.Sym{0}) {
		t.Error("Empty accepts something")
	}
}

func TestConcatUnion(t *testing.T) {
	n := Concat{Parts: []Node{atom(0), Union{Parts: []Node{atom(1), atom(2)}}}}
	for _, c := range []struct {
		w    []nfa.Sym
		want bool
	}{
		{[]nfa.Sym{0, 1}, true},
		{[]nfa.Sym{0, 2}, true},
		{[]nfa.Sym{0, 0}, false},
		{[]nfa.Sym{1}, false},
		{[]nfa.Sym{0, 1, 2}, false},
	} {
		if got := accepts(t, n, c.w); got != c.want {
			t.Errorf("Accepts(%v) = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestStarPlusOpt(t *testing.T) {
	star := Star{X: atom(0)}
	plus := Plus{X: atom(0)}
	opt := Opt{X: atom(0)}
	type tc struct {
		n    Node
		w    []nfa.Sym
		want bool
	}
	for _, c := range []tc{
		{star, nil, true},
		{star, []nfa.Sym{0, 0, 0}, true},
		{star, []nfa.Sym{1}, false},
		{plus, nil, false},
		{plus, []nfa.Sym{0}, true},
		{plus, []nfa.Sym{0, 0}, true},
		{opt, nil, true},
		{opt, []nfa.Sym{0}, true},
		{opt, []nfa.Sym{0, 0}, false},
	} {
		if got := accepts(t, c.n, c.w); got != c.want {
			t.Errorf("%s on %v = %v, want %v", c.n, c.w, got, c.want)
		}
	}
}

func TestNotSingleSymbol(t *testing.T) {
	// ^a over one-symbol words: in the query language ^[v#u] is used as
	// "any single link except"; here Not complements the whole language, so
	// combine with a length-1 constraint: Not(atom(0)) accepts ε, "1", "00"…
	n := Not{X: atom(0)}
	if accepts(t, n, []nfa.Sym{0}) {
		t.Error("Not accepts excluded word")
	}
	for _, w := range [][]nfa.Sym{nil, {1}, {2}, {0, 0}, {1, 0}} {
		if !accepts(t, n, w) {
			t.Errorf("Not rejects %v", w)
		}
	}
}

func TestNotComposes(t *testing.T) {
	// (^a)* where ^ is complement-within-length-1 is how the parser builds
	// [^x#y]*; here emulate via Atom complement set.
	notA := Atom{Set: nfa.SetOf(U, 0).Complement()}
	n := Star{X: notA}
	if !accepts(t, n, []nfa.Sym{1, 2, 1}) {
		t.Error("rejects word without 0")
	}
	if accepts(t, n, []nfa.Sym{1, 0}) {
		t.Error("accepts word containing 0")
	}
}

func TestNestedNot(t *testing.T) {
	// ^(^(a)) == language of a.
	n := Not{X: Not{X: atom(0)}}
	if !accepts(t, n, []nfa.Sym{0}) {
		t.Error("double Not rejects a")
	}
	if accepts(t, n, []nfa.Sym{1}) || accepts(t, n, nil) {
		t.Error("double Not accepts non-a")
	}
}

func TestNotInsideConcat(t *testing.T) {
	// a (^(b)) : second component is any word except exactly "1".
	n := Concat{Parts: []Node{atom(0), Not{X: atom(1)}}}
	if !accepts(t, n, []nfa.Sym{0}) { // "" after a: ok, ε ≠ "1"
		t.Error("rejects a·ε")
	}
	if !accepts(t, n, []nfa.Sym{0, 2}) || !accepts(t, n, []nfa.Sym{0, 1, 1}) {
		t.Error("rejects allowed suffixes")
	}
	if accepts(t, n, []nfa.Sym{0, 1}) {
		t.Error("accepts excluded suffix")
	}
}

func TestEmptyConcatIsEps(t *testing.T) {
	if !accepts(t, Concat{}, nil) {
		t.Error("empty Concat rejects ε")
	}
	if accepts(t, Union{}, nil) {
		t.Error("empty Union accepts ε")
	}
}

func TestAnyAtom(t *testing.T) {
	n := AnyAtom(U)
	for s := nfa.Sym(0); s < U; s++ {
		if !accepts(t, n, []nfa.Sym{s}) {
			t.Errorf("AnyAtom rejects %d", s)
		}
	}
	if accepts(t, n, nil) {
		t.Error("AnyAtom accepts ε")
	}
	if n.String() != "." {
		t.Errorf("AnyAtom String = %q", n.String())
	}
}

func TestStrings(t *testing.T) {
	n := Concat{Parts: []Node{
		Atom{Set: nfa.SetOf(U, 0), Name: "a"},
		Star{X: Atom{Set: nfa.SetOf(U, 1), Name: "b"}},
		Not{X: Atom{Set: nfa.SetOf(U, 2), Name: "c"}},
	}}
	if got := n.String(); got != "a b* ^c" {
		t.Errorf("String = %q", got)
	}
	if (Union{Parts: []Node{Eps{}, Empty{}}}).String() != "(ε|∅)" {
		t.Error("Union String wrong")
	}
}

// Property: Star idempotence (w ∈ L((x*)*) ⇔ w ∈ L(x*)) on random words.
func TestStarIdempotentProperty(t *testing.T) {
	inner := Union{Parts: []Node{atom(0), Concat{Parts: []Node{atom(1), atom(2)}}}}
	a1 := compile(t, Star{X: inner})
	a2 := compile(t, Star{X: Star{X: inner}})
	f := func(raw []uint8) bool {
		w := make([]nfa.Sym, len(raw))
		for i, r := range raw {
			w[i] = nfa.Sym(r) % U
		}
		return a1.Accepts(w) == a2.Accepts(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: complement really is language complement on random words.
func TestNotIsComplementProperty(t *testing.T) {
	inner := Concat{Parts: []Node{atom(0), Star{X: atom(1)}}}
	pos := compile(t, inner)
	neg := compile(t, Not{X: inner})
	f := func(raw []uint8) bool {
		w := make([]nfa.Sym, len(raw))
		for i, r := range raw {
			w[i] = nfa.Sym(r) % U
		}
		return pos.Accepts(w) != neg.Accepts(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestRepeat(t *testing.T) {
	type tc struct {
		n    Node
		w    []nfa.Sym
		want bool
	}
	r12 := Repeat{X: atom(0), Min: 1, Max: 2}
	r2u := Repeat{X: atom(0), Min: 2, Max: -1}
	r0 := Repeat{X: atom(0), Min: 0, Max: 0}
	for _, c := range []tc{
		{r12, nil, false},
		{r12, []nfa.Sym{0}, true},
		{r12, []nfa.Sym{0, 0}, true},
		{r12, []nfa.Sym{0, 0, 0}, false},
		{r2u, []nfa.Sym{0}, false},
		{r2u, []nfa.Sym{0, 0}, true},
		{r2u, []nfa.Sym{0, 0, 0, 0}, true},
		{r0, nil, true},
		{r0, []nfa.Sym{0}, false},
	} {
		if got := accepts(t, c.n, c.w); got != c.want {
			t.Errorf("%s on %v = %v, want %v", c.n, c.w, got, c.want)
		}
	}
	if r12.String() != "a{1,2}" || r2u.String() != "a{2,}" ||
		(Repeat{X: atom(0), Min: 3, Max: 3}).String() != "a{3}" {
		t.Errorf("Repeat String: %s %s", r12, r2u)
	}
}

// TestCompileStopsAtMaxStates: a bounded repetition compiles to one state
// per copy, so X{n} over an atom needs n+1 states (start, final and the
// n−1 states between copies). Compile builds it up to nfa.MaxStates and
// refuses one copy more, nested repetitions included.
func TestCompileStopsAtMaxStates(t *testing.T) {
	n := nfa.MaxStates - 1
	a := compile(t, Repeat{X: atom(0), Min: n, Max: n})
	if a.NumStates() != nfa.MaxStates {
		t.Fatalf("a{%d} has %d states, want %d", n, a.NumStates(), nfa.MaxStates)
	}
	for _, c := range []Node{
		Repeat{X: atom(0), Min: n + 1, Max: n + 1},
		Repeat{X: atom(0), Min: 0, Max: n + 1},
		Repeat{X: Repeat{X: atom(0), Min: 30, Max: 30}, Min: 30, Max: 30},
		Concat{Parts: []Node{atom(1), Repeat{X: atom(0), Min: n, Max: -1}}},
		Not{X: Repeat{X: atom(0), Min: n + 1, Max: n + 1}},
	} {
		if _, err := Compile(c, U); !errors.Is(err, nfa.ErrTooManyStates) {
			t.Errorf("Compile(%s) = %v, want nfa.ErrTooManyStates", c, err)
		}
	}
}
