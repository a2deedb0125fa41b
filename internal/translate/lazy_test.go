package translate

import (
	"fmt"
	"strings"
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/nfa"
	"aalwines/internal/pds"
	"aalwines/internal/query"
	"aalwines/internal/weight"
)

// renderChains renders the rules headed at from, in order, each followed
// by the chain below it, with chain states unnamed and weights read from
// wts: the form in which an eager and an on-the-fly head must agree. Tags
// are rendered raw, since both products number routing entries.
func renderChains(b *strings.Builder, sys *System, rules []pds.Rule, wts pds.Weights, from pds.State, depth int) {
	for _, r := range rules {
		if r.FromState != from {
			continue
		}
		fmt.Fprintf(b, "%*s<%d> kind=%d sym1=%d sym2=%d w=%v tag=%d", depth, "", r.FromSym, r.Kind, r.Sym1, r.Sym2, wts.Of(&r), r.Tag)
		if _, _, _, ok := sys.DecodeState(r.ToState); ok {
			fmt.Fprintf(b, " to=%d\n", r.ToState)
			continue
		}
		b.WriteString(" to=chain\n")
		renderChains(b, sys, rules, wts, r.ToState, depth+2)
	}
}

// TestHeadMatchesEager checks the generator head by head: for every head
// of the unreduced eager product, Head returns the same rules in the same
// order with the same chains below them, and Heads lists every eager head
// of a state in ascending order.
func TestHeadMatchesEager(t *testing.T) {
	spec := weight.Spec{{{Coeff: 1, Q: weight.Failures}}, {{Coeff: 1, Q: weight.Hops}}}
	re := gen.RunningExample().Network
	zoo := gen.Zoo(gen.ZooOpts{Routers: 12, Seed: 4, Protection: true})
	cases := map[string][]string{}
	for _, text := range []string{
		"<ip> [.#v0] .* [v3#.] <ip> 2",
		"<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
		"<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
	} {
		cases["re"] = append(cases["re"], text)
	}
	for _, q := range zoo.Queries(4, 9) {
		cases["zoo"] = append(cases["zoo"], q.Text)
	}
	for name, texts := range cases {
		net := re
		if name == "zoo" {
			net = zoo.Net
		}
		for _, text := range texts {
			q, err := query.Parse(text, net)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []Mode{Over, Under} {
				for _, sp := range []weight.Spec{nil, spec} {
					eager := Build(net, q, Options{Mode: mode, Spec: sp, NoReductions: true})
					lazy := Build(net, q, Options{Mode: mode, Spec: sp, Slice: true})
					gen := lazy.PDS.Gen
					next := pds.State(1 << 24)
					newState := func() pds.State { next++; return next }
					heads := map[pds.State][]pds.Sym{}
					seen := map[[2]uint32]bool{}
					for _, r := range eager.PDS.Rules {
						k := [2]uint32{uint32(r.FromState), uint32(r.FromSym)}
						if _, _, _, ok := eager.DecodeState(r.FromState); !ok || seen[k] {
							continue
						}
						seen[k] = true
						heads[r.FromState] = append(heads[r.FromState], r.FromSym)
						var want, got strings.Builder
						var own []pds.Rule
						for _, er := range eager.PDS.Rules {
							if er.FromState != r.FromState || er.FromSym == r.FromSym {
								own = append(own, er)
							}
						}
						renderChains(&want, eager, own, eager.PDS.Weights, r.FromState, 0)
						var wts pds.Weights
						renderChains(&got, lazy, gen.Head(nil, &wts, r.FromState, r.FromSym, newState), wts, r.FromState, 0)
						if want.String() != got.String() {
							t.Fatalf("%s %q mode=%d weighted=%v head <%d,%d>:\neager:\n%s\non the fly:\n%s",
								name, text, mode, sp != nil, r.FromState, r.FromSym, want.String(), got.String())
						}
					}
					all := nfa.NewSet(net.Labels.Len() + 1)
					for l := 0; l <= net.Labels.Len(); l++ {
						all.Add(nfa.Sym(l))
					}
					// Heads may list symbols whose head has no rules, but
					// must list every eager head, ascending.
					for s, syms := range heads {
						var ruled []pds.Sym
						listed := gen.Heads(nil, s, all)
						for i, g := range listed {
							if i > 0 && g <= listed[i-1] {
								t.Fatalf("%s %q mode=%d: Heads(%d) not ascending", name, text, mode, s)
							}
							if len(gen.Head(nil, new(pds.Weights), s, g, newState)) > 0 {
								ruled = append(ruled, g)
							}
						}
						if fmt.Sprint(ruled) != fmt.Sprint(syms) {
							t.Fatalf("%s %q mode=%d: Heads(%d) with rules %v, eager heads %v", name, text, mode, s, ruled, syms)
						}
					}
				}
			}
		}
	}
}
