package query_test

import (
	"fmt"
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/nfa"
	"aalwines/internal/query"
)

// FuzzQueryParse parses arbitrary query text against the running example.
// Parse must never panic, and every query it accepts must have initial
// header, final header and path automata within nfa.MaxStates states and
// nfa.MaxArcs arcs. The seeds are the Table 1 and generator query shapes
// on the running example's routers, and the shapes whose automata grow
// past a bound: a long bounded repetition, a path whose subset
// construction doubles with every dot, and repeated optional parts, whose
// ε-free arcs grow with the square of the count.
func FuzzQueryParse(f *testing.F) {
	net := gen.RunningExample().Network
	for i := 0; i <= 4; i++ {
		f.Add(phi(i))
	}
	for _, s := range []string{
		// Table 1.
		"<smpls ip> [.#v1] .* [.#v3] <smpls ip> 1",
		"<smpls ip> [.#v1] .* [.#v4] <(mpls* smpls)? ip> 1",
		"<ip> [.#v0] .* [.#v3] <ip> 0",
		"<[s40] ip> [.#v0] .* [.#v2] .* [.#v3] <. ip> 0",
		"<[s40] ip> [.#v0] .* [.#v2] .* [.#v3] <. ip> 1",
		"<smpls? ip> .* <. smpls ip> 0",
		// Generator families.
		"<smpls ip> [.#v1] .* [v2#.] <mpls+ smpls ip> 2",
		"<smpls? ip> .* [v1#v3] .* [v2#v4] .* <. ip> 2",
		"<ip> [.#v0] .{3,} [v3#.] <ip> 1",
		"<mpls{1,2} smpls ip> ^([.#v2]) .* <.> 0",
		// Past the bound.
		fmt.Sprintf("<ip> [.#v0] .{%d} <ip> 0", nfa.MaxStates-1),
		"<ip> [.#v0] (.{30}){30} <ip> 0",
		fmt.Sprintf("<ip> .* [.#v2] %s <ip> 0", dots(12)),
		fmt.Sprintf("<ip> ^(.* [.#v2] %s) <ip> 0", dots(12)),
		"<ip> [.#v0] ((.|[v0#v1]|[v1#v2]|[v2#v3]|[.#v2])?){510} <ip> 0",
		"<ip> [.#v0] (.?){510} <ip> 0",
		"<(mpls?){500} smpls ip> .* <ip> 0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		q, err := query.Parse(text, net)
		if err != nil {
			return
		}
		for _, a := range []*nfa.NFA{q.PreNFA, q.PostNFA, q.PathNFA} {
			if a.NumStates() > nfa.MaxStates {
				t.Fatalf("Parse(%q) kept an automaton of %d states, over the %d-state bound", text, a.NumStates(), nfa.MaxStates)
			}
			if a.NumArcs() > nfa.MaxArcs {
				t.Fatalf("Parse(%q) kept an automaton of %d arcs, over the %d-arc bound", text, a.NumArcs(), nfa.MaxArcs)
			}
		}
	})
}
