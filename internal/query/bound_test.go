package query_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/nfa"
	"aalwines/internal/query"
	"aalwines/internal/topology"
)

// dots returns n space-separated "." link atoms.
func dots(n int) string {
	return strings.TrimSpace(strings.Repeat(". ", n))
}

// wantBound checks that err is the automaton state bound, named in its
// text.
func wantBound(t *testing.T, text string, err error) {
	t.Helper()
	if !errors.Is(err, nfa.ErrTooManyStates) {
		t.Fatalf("Parse(%.60q) = %v, want nfa.ErrTooManyStates", text, err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("%d-state bound", nfa.MaxStates)) {
		t.Errorf("error %q does not name the %d-state bound", err, nfa.MaxStates)
	}
}

// wantArcBound checks that err is the automaton arc bound, named in its
// text.
func wantArcBound(t *testing.T, text string, err error) {
	t.Helper()
	if !errors.Is(err, nfa.ErrTooManyArcs) {
		t.Fatalf("Parse(%.60q) = %v, want nfa.ErrTooManyArcs", text, err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("%d-arc bound", nfa.MaxArcs)) {
		t.Errorf("error %q does not name the %d-arc bound", err, nfa.MaxArcs)
	}
}

// TestParseBoundsRepetition: the path [.#v0] .{n} compiles to n+2 states
// (start, final, the state after [.#v0] and one between each two copies
// of .) and n+1 ε-free arcs, so n = MaxStates−2 is the longest repetition
// that parses, and one copy more — or a nested repetition past the bound
// — is a parse error that names it.
func TestParseBoundsRepetition(t *testing.T) {
	net := gen.RunningExample().Network
	n := nfa.MaxStates - 2
	at := fmt.Sprintf("<ip> [.#v0] .{%d} <ip> 0", n)
	q, err := query.Parse(at, net)
	if err != nil {
		t.Fatalf("Parse at the bound: %v", err)
	}
	if got := q.PathNFA.NumStates(); got != nfa.MaxStates {
		t.Errorf("path automaton at the bound has %d states, want %d", got, nfa.MaxStates)
	}
	if got := q.PathNFA.NumArcs(); got != n+1 {
		t.Errorf("path automaton at the bound has %d arcs, want %d", got, n+1)
	}
	for _, text := range []string{
		fmt.Sprintf("<ip> [.#v0] .{%d} <ip> 0", n+1),
		fmt.Sprintf("<ip> [.#v0] .{0,%d} <ip> 0", n+1),
		"<ip> [.#v0] (.{30}){30} <ip> 0",
		fmt.Sprintf("<mpls{%d} smpls ip> .* <ip> 0", nfa.MaxStates),
	} {
		_, err := query.Parse(text, net)
		wantBound(t, text, err)
	}
	// 201 states compiled, but about six arcs per copy of . once
	// intersected with the valid headers.
	text := "<.{200}> .* <ip> 0"
	_, err = query.Parse(text, net)
	wantArcBound(t, text, err)
	// Counts are read without overflow: a 20-digit count is an error of
	// its own, not a count wrapped into range.
	if _, err := query.Parse("<ip> .{99999999999999999999} <ip> 0", net); err == nil || !strings.Contains(err.Error(), "more than 9 digits") {
		t.Errorf("20-digit repetition count: err = %v", err)
	}
}

// TestParseBoundsArcs: an optional part repeated n times gives each state
// the arcs of every later copy once ε-moves are removed, so (x?){n} has
// about n²/2 ε-free arcs. These three shapes have 521,221, 130,306 and
// 125,752 of them and are refused; the largest (.?){n} path and
// (mpls?){n} header under MaxArcs parse with 497 arcs, and one copy more
// is refused.
func TestParseBoundsArcs(t *testing.T) {
	net := gen.RunningExample().Network
	for _, text := range []string{
		"<ip> [.#v0] ((.|[v0#v1]|[v1#v2]|[v2#v3]|[.#v2])?){510} <ip> 0",
		"<ip> [.#v0] (.?){510} <ip> 0",
		"<(mpls?){500} smpls ip> .* <ip> 0",
		"<ip> [.#v0] (.?){32} <ip> 0",
		"<(mpls?){31} smpls ip> .* <ip> 0",
	} {
		_, err := query.Parse(text, net)
		wantArcBound(t, text, err)
	}
	q, err := query.Parse("<(mpls?){30} smpls ip> [.#v0] (.?){31} <ip> 0", net)
	if err != nil {
		t.Fatalf("Parse under the arc bound: %v", err)
	}
	if got := q.PathNFA.NumArcs(); got != 497 {
		t.Errorf("(.?){31} path automaton has %d arcs, want 497", got)
	}
	if got := q.PreNFA.NumArcs(); got > nfa.MaxArcs {
		t.Errorf("(mpls?){30} header automaton has %d arcs, over the %d-arc bound", got, nfa.MaxArcs)
	}
}

// TestParseBoundsSubsetConstruction: the path .* [.#v2] followed by n
// dots has an ε-free automaton of n+5 states, but its DFA has 2^(n+1)+1
// (with 8 dots, one more than the bound). Past the bound, minimisation gives up and the query keeps the
// ε-free automaton, which is what it keeps below the bound too (the DFA is
// never smaller); a complement, which needs the DFA, is a parse error.
func TestParseBoundsSubsetConstruction(t *testing.T) {
	net := gen.RunningExample().Network
	v2 := net.Topo.RouterByName("v2")
	var intoV2 nfa.Sym
	for l, lk := range net.Topo.Links {
		if lk.To == v2 && lk.From != v2 {
			intoV2 = query.LinkSym(topology.LinkID(l))
			break
		}
	}
	for _, n := range []int{4, 8, 12} {
		text := fmt.Sprintf("<ip> .* [.#v2] %s <ip> 0", dots(n))
		q, err := query.Parse(text, net)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		if got := q.PathNFA.NumStates(); got != n+5 {
			t.Errorf("%d dots: path automaton has %d states, want %d", n, got, n+5)
		}
		d, err := q.PathNFA.Determinize()
		if want := 1<<(n+1) + 1; want <= nfa.MaxStates {
			if err != nil || d.NumStates() != want {
				t.Errorf("%d dots: Determinize = %v, want %d states", n, err, want)
			}
		} else if !errors.Is(err, nfa.ErrTooManyStates) {
			t.Errorf("%d dots: Determinize = %v, want nfa.ErrTooManyStates", n, err)
		}
		// A link into v2 followed by n more links is in the language; with
		// n−1 more it is not.
		word := make([]nfa.Sym, n+1)
		for i := range word {
			word[i] = intoV2
		}
		if !q.PathNFA.Accepts(word) || q.PathNFA.Accepts(word[1:]) {
			t.Errorf("%d dots: path language changed", n)
		}
	}
	text := fmt.Sprintf("<ip> ^(.* [.#v2] %s) <ip> 0", dots(12))
	_, err := query.Parse(text, net)
	wantBound(t, text, err)
	if _, err := query.Parse(fmt.Sprintf("<ip> ^(.* [.#v2] %s) <ip> 0", dots(4)), net); err != nil {
		t.Errorf("complement below the bound: %v", err)
	}
}
