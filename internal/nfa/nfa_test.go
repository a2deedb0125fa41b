package nfa

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(130)
	if !s.IsEmpty() || s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(0)
	s.Add(64)
	s.Add(129)
	if s.Len() != 3 || !s.Has(0) || !s.Has(64) || !s.Has(129) || s.Has(1) {
		t.Fatalf("membership broken: %v", s.Members())
	}
	if s.Has(1000) {
		t.Fatal("Has out of range returned true")
	}
}

func TestSetAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSet(4).Add(4)
}

func TestSetOps(t *testing.T) {
	a := SetOf(100, 1, 2, 3)
	b := SetOf(100, 3, 4)
	if got := a.Union(b).Members(); len(got) != 4 {
		t.Errorf("Union = %v", got)
	}
	if got := a.Inter(b).Members(); len(got) != 1 || got[0] != 3 {
		t.Errorf("Inter = %v", got)
	}
	if got := a.Minus(b).Members(); len(got) != 2 {
		t.Errorf("Minus = %v", got)
	}
	c := a.Complement()
	if c.Has(1) || !c.Has(0) || !c.Has(99) || c.Len() != 97 {
		t.Errorf("Complement wrong: len=%d", c.Len())
	}
}

func TestFullSetTrimmed(t *testing.T) {
	f := FullSet(70)
	if f.Len() != 70 {
		t.Fatalf("FullSet(70).Len = %d", f.Len())
	}
	if f.Has(70) || f.Has(127) {
		t.Fatal("FullSet contains out-of-universe symbols")
	}
	// Complement of full is empty even in the partial last word.
	if !f.Complement().IsEmpty() {
		t.Fatal("Complement(Full) not empty")
	}
}

// Property: set algebra laws via random membership vectors.
func TestSetAlgebraProperty(t *testing.T) {
	const n = 80
	mk := func(xs []uint16) *Set {
		s := NewSet(n)
		for _, x := range xs {
			s.Add(Sym(x) % n)
		}
		return s
	}
	f := func(xs, ys []uint16) bool {
		a, b := mk(xs), mk(ys)
		// De Morgan: ¬(a ∪ b) == ¬a ∩ ¬b
		if !a.Union(b).Complement().Equal(a.Complement().Inter(b.Complement())) {
			return false
		}
		// a \ b == a ∩ ¬b
		if !a.Minus(b).Equal(a.Inter(b.Complement())) {
			return false
		}
		// Double complement
		if !a.Complement().Complement().Equal(a) {
			return false
		}
		// Key equality coincides with Equal
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetEachEarlyStopAndFirst(t *testing.T) {
	s := SetOf(100, 5, 10, 15)
	count := 0
	s.Each(func(Sym) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("Each visited %d, want 2", count)
	}
	if x, ok := s.First(); !ok || x != 5 {
		t.Fatalf("First = %d,%v", x, ok)
	}
	if _, ok := NewSet(10).First(); ok {
		t.Fatal("First on empty reported ok")
	}
}

// buildAB returns an NFA over universe {0,1} accepting the language a*b
// (0=a, 1=b).
func buildAB() *NFA {
	a := New(2)
	fin := a.AddState()
	a.AddArc(a.Start(), SetOf(2, 0), a.Start())
	a.AddArc(a.Start(), SetOf(2, 1), fin)
	a.SetAccept(fin, true)
	return a
}

func TestNFAAccepts(t *testing.T) {
	a := buildAB()
	cases := []struct {
		w    []Sym
		want bool
	}{
		{[]Sym{1}, true},
		{[]Sym{0, 1}, true},
		{[]Sym{0, 0, 0, 1}, true},
		{[]Sym{}, false},
		{[]Sym{0}, false},
		{[]Sym{1, 0}, false},
		{[]Sym{1, 1}, false},
	}
	for _, c := range cases {
		if got := a.Accepts(c.w); got != c.want {
			t.Errorf("Accepts(%v) = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestEpsClosureAndEpsFree(t *testing.T) {
	a := New(2)
	s1 := a.AddState()
	s2 := a.AddState()
	a.AddEps(a.Start(), s1)
	a.AddEps(s1, s2)
	a.AddArc(s2, SetOf(2, 1), s2)
	a.SetAccept(s2, true)
	cl := a.EpsClosure(a.Start())
	if len(cl) != 3 {
		t.Fatalf("closure = %v", cl)
	}
	f := epsFree(t, a)
	if !f.Accepting(f.Start()) {
		t.Error("EpsFree lost acceptance via closure")
	}
	if !f.Accepts([]Sym{1, 1}) || f.Accepts([]Sym{0}) {
		t.Error("EpsFree changed the language")
	}
}

func TestEmpty(t *testing.T) {
	a := New(2)
	if !a.Empty() {
		t.Error("no-accept automaton not Empty")
	}
	fin := a.AddState()
	a.AddArc(a.Start(), SetOf(2, 0), fin)
	a.SetAccept(fin, true)
	if a.Empty() {
		t.Error("reachable accept reported Empty")
	}
	// Unreachable accepting state.
	b := New(2)
	orphan := b.AddState()
	b.SetAccept(orphan, true)
	if !b.Empty() {
		t.Error("unreachable accept not Empty")
	}
}

func TestMintermsPartitionUniverse(t *testing.T) {
	a := New(10)
	fin := a.AddState()
	a.AddArc(a.Start(), SetOf(10, 1, 2, 3), fin)
	a.AddArc(a.Start(), SetOf(10, 3, 4), fin)
	a.SetAccept(fin, true)
	mts := a.Minterms()
	// Blocks must be disjoint and cover the universe.
	cover := NewSet(10)
	for i, m := range mts {
		for j := i + 1; j < len(mts); j++ {
			if !m.Inter(mts[j]).IsEmpty() {
				t.Fatalf("minterms %d and %d overlap", i, j)
			}
		}
		cover = cover.Union(m)
	}
	if !cover.Equal(FullSet(10)) {
		t.Fatal("minterms do not cover the universe")
	}
	// {1,2}, {3}, {4}, rest = 4 blocks.
	if len(mts) != 4 {
		t.Fatalf("got %d minterms, want 4", len(mts))
	}
}

func TestDeterminizePreservesLanguage(t *testing.T) {
	a := buildAB()
	d := determinize(t, a)
	words := [][]Sym{{}, {0}, {1}, {0, 1}, {1, 0}, {0, 0, 1}, {1, 1}, {0, 1, 1}}
	for _, w := range words {
		if a.Accepts(w) != d.Accepts(w) {
			t.Errorf("DFA differs from NFA on %v", w)
		}
	}
}

func TestDeterminizeIsDeterministicAndComplete(t *testing.T) {
	a := buildAB()
	d := determinize(t, a)
	for s := 0; s < d.NumStates(); s++ {
		cover := NewSet(2)
		for _, arc := range d.Arcs(s) {
			if !cover.Inter(arc.Set).IsEmpty() {
				t.Fatalf("state %d has overlapping arcs", s)
			}
			cover = cover.Union(arc.Set)
		}
		if !cover.Equal(FullSet(2)) {
			t.Fatalf("state %d is not complete", s)
		}
	}
}

func TestComplement(t *testing.T) {
	a := buildAB()
	c := complement(t, a)
	words := [][]Sym{{}, {0}, {1}, {0, 1}, {1, 0}, {0, 0, 1}, {1, 1}}
	for _, w := range words {
		if a.Accepts(w) == c.Accepts(w) {
			t.Errorf("complement agrees with original on %v", w)
		}
	}
}

func TestProduct(t *testing.T) {
	// L1 = a*b, L2 = words of length exactly 2 => intersection = {ab}.
	l1 := buildAB()
	l2 := New(2)
	m := l2.AddState()
	fin := l2.AddState()
	l2.AddArc(l2.Start(), FullSet(2), m)
	l2.AddArc(m, FullSet(2), fin)
	l2.SetAccept(fin, true)
	p := product(t, l1, l2)
	if !p.Accepts([]Sym{0, 1}) {
		t.Error("product rejects ab")
	}
	for _, w := range [][]Sym{{1}, {0, 0}, {1, 1}, {0, 0, 1}} {
		if p.Accepts(w) {
			t.Errorf("product accepts %v", w)
		}
	}
}

func TestProductEmptyIntersection(t *testing.T) {
	onlyA := New(2)
	fa := onlyA.AddState()
	onlyA.AddArc(onlyA.Start(), SetOf(2, 0), fa)
	onlyA.SetAccept(fa, true)
	onlyB := New(2)
	fb := onlyB.AddState()
	onlyB.AddArc(onlyB.Start(), SetOf(2, 1), fb)
	onlyB.SetAccept(fb, true)
	if p := product(t, onlyA, onlyB); !p.Empty() {
		t.Error("intersection of {a} and {b} not empty")
	}
}

// Property: determinize+complement twice gives back the original language
// on random short words.
func TestDoubleComplementProperty(t *testing.T) {
	a := buildAB()
	cc := complement(t, complement(t, a))
	f := func(w []bool) bool {
		word := make([]Sym, len(w))
		for i, b := range w {
			if b {
				word[i] = 1
			}
		}
		return a.Accepts(word) == cc.Accepts(word)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMinimizePreservesLanguage(t *testing.T) {
	a := buildAB()
	m := minimize(t, a)
	words := [][]Sym{{}, {0}, {1}, {0, 1}, {1, 0}, {0, 0, 1}, {1, 1}, {0, 1, 1}, {0, 0, 0, 1}}
	for _, w := range words {
		if a.Accepts(w) != m.Accepts(w) {
			t.Errorf("minimized automaton differs on %v", w)
		}
	}
}

func TestMinimizeReducesRedundantStates(t *testing.T) {
	// Build a bloated automaton for the language {a}: several duplicated
	// accepting states reachable on 'a'.
	a := New(2)
	for i := 0; i < 5; i++ {
		f := a.AddState()
		a.AddArc(a.Start(), SetOf(2, 0), f)
		a.SetAccept(f, true)
	}
	m := minimize(t, a)
	// Minimal complete DFA for {a} over a 2-symbol alphabet: start, accept,
	// sink = 3 states.
	if m.NumStates() > 3 {
		t.Fatalf("minimized to %d states, want ≤ 3", m.NumStates())
	}
	if !m.Accepts([]Sym{0}) || m.Accepts([]Sym{1}) || m.Accepts([]Sym{0, 0}) {
		t.Fatal("language changed")
	}
}

// Property: minimization is idempotent and preserves the language on random
// words.
func TestMinimizeProperty(t *testing.T) {
	inner := product(t, complement(t, buildAB()), complement(t, determinize(t, buildAB())))
	m1 := minimize(t, inner)
	m2 := minimize(t, m1)
	if m2.NumStates() != m1.NumStates() {
		t.Fatalf("not idempotent: %d -> %d states", m1.NumStates(), m2.NumStates())
	}
	f := func(raw []bool) bool {
		w := make([]Sym, len(raw))
		for i, b := range raw {
			if b {
				w[i] = 1
			}
		}
		return inner.Accepts(w) == m1.Accepts(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func epsFree(t *testing.T, a *NFA) *NFA {
	t.Helper()
	f, err := a.EpsFree()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func product(t *testing.T, a, b *NFA) *NFA {
	t.Helper()
	p, err := Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func determinize(t *testing.T, a *NFA) *NFA {
	t.Helper()
	d, err := a.Determinize()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func complement(t *testing.T, a *NFA) *NFA {
	t.Helper()
	c, err := a.Complement()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func minimize(t *testing.T, a *NFA) *NFA {
	t.Helper()
	m, err := a.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// kthFromEnd accepts the words over {0,1} whose k-th symbol from the end
// is 0. The NFA has k+1 states; its DFA needs 2^k.
func kthFromEnd(k int) *NFA {
	a := New(2)
	a.AddArc(a.Start(), FullSet(2), a.Start())
	cur := a.AddState()
	a.AddArc(a.Start(), SetOf(2, 0), cur)
	for i := 1; i < k; i++ {
		next := a.AddState()
		a.AddArc(cur, FullSet(2), next)
		cur = next
	}
	a.SetAccept(cur, true)
	return a
}

// TestDeterminizeStopsAtMaxStates: subset construction may build exactly
// MaxStates states and fails as soon as it needs one more.
func TestDeterminizeStopsAtMaxStates(t *testing.T) {
	if MaxStates != 1<<9 {
		t.Fatalf("MaxStates = %d; retune the k below to sit at the bound", MaxStates)
	}
	d := determinize(t, kthFromEnd(9))
	if d.NumStates() != MaxStates {
		t.Fatalf("DFA for k=9 has %d states, want %d", d.NumStates(), MaxStates)
	}
	for _, w := range [][]Sym{{0, 1, 1, 1, 1, 1, 1, 1, 1}, {1, 0, 1, 1, 1, 1, 1, 1, 1, 1}} {
		if !d.Accepts(w) {
			t.Errorf("DFA rejects %v", w)
		}
	}
	if d.Accepts([]Sym{1, 1, 1, 1, 1, 1, 1, 1, 1}) {
		t.Error("DFA accepts 1^9")
	}
	a := kthFromEnd(10)
	if _, err := a.Determinize(); !errors.Is(err, ErrTooManyStates) {
		t.Fatalf("Determinize(k=10) = %v, want ErrTooManyStates", err)
	}
	if _, err := a.Minimize(); !errors.Is(err, ErrTooManyStates) {
		t.Fatalf("Minimize(k=10) = %v, want ErrTooManyStates", err)
	}
	if _, err := a.Complement(); !errors.Is(err, ErrTooManyStates) {
		t.Fatalf("Complement(k=10) = %v, want ErrTooManyStates", err)
	}
}

// optionalChain is (0?){n}: states 0..n in a line, each with an arc and an
// ε-move to the next. State i's ε-closure reaches every later state, so
// its ε-free form has n(n+1)/2 arcs.
func optionalChain(n int) *NFA {
	a := New(1)
	cur := a.Start()
	for i := 0; i < n; i++ {
		next := a.AddState()
		a.AddArc(cur, FullSet(1), next)
		a.AddEps(cur, next)
		cur = next
	}
	a.SetAccept(cur, true)
	return a
}

// TestEpsFreeStopsAtMaxArcs: (0?){31} has 496 ε-free arcs and (0?){32}
// 528, one side of MaxArcs each.
func TestEpsFreeStopsAtMaxArcs(t *testing.T) {
	if MaxArcs != 512 {
		t.Fatalf("MaxArcs = %d; retune the chain lengths below to sit at the bound", MaxArcs)
	}
	f := epsFree(t, optionalChain(31))
	if f.NumArcs() != 31*32/2 {
		t.Fatalf("(0?){31}: %d ε-free arcs, want %d", f.NumArcs(), 31*32/2)
	}
	if !f.Accepts(nil) || !f.Accepts(make([]Sym, 31)) || f.Accepts(make([]Sym, 32)) {
		t.Error("(0?){31}: EpsFree changed the language")
	}
	if _, err := optionalChain(32).EpsFree(); !errors.Is(err, ErrTooManyArcs) {
		t.Fatalf("(0?){32}: EpsFree = %v, want ErrTooManyArcs", err)
	}
	if _, err := Product(optionalChain(32), optionalChain(1)); !errors.Is(err, ErrTooManyArcs) {
		t.Fatalf("Product of (0?){32}: %v, want ErrTooManyArcs", err)
	}
}

// TestProductStopsAtMaxArcs intersects a line of n arcs with a two-state
// automaton whose every state has two full arcs: the product has 4n−2
// arcs, 510 for n = 128 and 514 for n = 129.
func TestProductStopsAtMaxArcs(t *testing.T) {
	line := func(n int) *NFA {
		a := New(1)
		cur := a.Start()
		for i := 0; i < n; i++ {
			next := a.AddState()
			a.AddArc(cur, FullSet(1), next)
			cur = next
		}
		a.SetAccept(cur, true)
		return a
	}
	two := New(1)
	s1 := two.AddState()
	for _, from := range []State{two.Start(), s1} {
		two.AddArc(from, FullSet(1), two.Start())
		two.AddArc(from, FullSet(1), s1)
	}
	two.SetAccept(s1, true)
	p := product(t, line(128), two)
	if p.NumArcs() != 4*128-2 {
		t.Fatalf("product of 128 arcs: %d arcs, want %d", p.NumArcs(), 4*128-2)
	}
	if !p.Accepts(make([]Sym, 128)) || p.Accepts(make([]Sym, 127)) {
		t.Error("product language changed")
	}
	if _, err := Product(line(129), two); !errors.Is(err, ErrTooManyArcs) {
		t.Fatalf("product of 129 arcs: %v, want ErrTooManyArcs", err)
	}
}

// TestFirstInterMatchesInterFirst holds the allocation-free FirstInter to
// Inter(...).First() on random sets over one universe, including the
// sparse and disjoint cases the witness search meets.
func TestFirstInterMatchesInterFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(300)
		a, b := NewSet(n), NewSet(n)
		for _, s := range []*Set{a, b} {
			for k := rng.Intn(1 + rng.Intn(n)); k > 0; k-- {
				s.Add(Sym(rng.Intn(n)))
			}
		}
		want, wantOK := a.Inter(b).First()
		got, ok := a.FirstInter(b)
		if got != want || ok != wantOK {
			t.Fatalf("FirstInter(%v, %v) = %d,%v; Inter.First = %d,%v", a.Members(), b.Members(), got, ok, want, wantOK)
		}
	}
}

// splitAllMinterms is the partition loop Minterms used before it split
// only the blocks an arc set cuts: every block is intersected with and
// subtracted from every distinct arc set. It is the oracle for the blocks
// and their order.
func splitAllMinterms(a *NFA) []*Set {
	blocks := []*Set{FullSet(a.universe)}
	seen := map[string]bool{}
	for s := range a.arcs {
		for _, arc := range a.arcs[s] {
			k := arc.Set.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			var next []*Set
			for _, b := range blocks {
				in := b.Inter(arc.Set)
				out := b.Minus(arc.Set)
				if !in.IsEmpty() {
					next = append(next, in)
				}
				if !out.IsEmpty() {
					next = append(next, out)
				}
			}
			blocks = next
		}
	}
	return blocks
}

// TestMintermsMatchesSplitAll compares Minterms with the split-every-block
// oracle on random NFAs: the same blocks in the same order.
func TestMintermsMatchesSplitAll(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(150)
		a := New(n)
		states := []State{a.Start()}
		for k := rng.Intn(4); k > 0; k-- {
			states = append(states, a.AddState())
		}
		for k := rng.Intn(12); k > 0; k-- {
			set := NewSet(n)
			switch rng.Intn(4) {
			case 0: // one label
				set.Add(Sym(rng.Intn(n)))
			case 1: // everything
				set = FullSet(n)
			default:
				for j := rng.Intn(n + 1); j > 0; j-- {
					set.Add(Sym(rng.Intn(n)))
				}
			}
			a.AddArc(states[rng.Intn(len(states))], set, states[rng.Intn(len(states))])
		}
		got, want := a.Minterms(), splitAllMinterms(a)
		if len(got) != len(want) {
			t.Fatalf("case %d: %d blocks, oracle %d", i, len(got), len(want))
		}
		for j := range got {
			if !got[j].Equal(want[j]) {
				t.Fatalf("case %d: block %d is %v, oracle %v", i, j, got[j].Members(), want[j].Members())
			}
		}
	}
}

// TestMintermsSplitOnlyAllocs bounds the allocations of the header shape
// that made query parsing quadratic: 500 single-label arcs over a
// 202,257-label universe, the label table of the paper-scale network.
// Splitting every block with every arc made 505,970 allocations; splitting
// only the blocks an arc cuts makes about 3,000.
func TestMintermsSplitOnlyAllocs(t *testing.T) {
	const universe, arcs = 202257, 500
	a := New(universe)
	fin := a.AddState()
	a.SetAccept(fin, true)
	for i := 0; i < arcs; i++ {
		a.AddArc(a.Start(), SetOf(universe, Sym(i*401)), fin)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mts := a.Minterms()
	runtime.ReadMemStats(&after)
	if len(mts) != arcs+1 {
		t.Fatalf("%d blocks, want %d", len(mts), arcs+1)
	}
	n := after.Mallocs - before.Mallocs
	t.Logf("%d allocations, %d bytes", n, after.TotalAlloc-before.TotalAlloc)
	if n > 10000 {
		t.Errorf("Minterms made %d allocations for %d single-label arcs, want at most 10000", n, arcs)
	}
}
