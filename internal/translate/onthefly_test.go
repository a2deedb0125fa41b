package translate_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/network"
	"aalwines/internal/pds"
	"aalwines/internal/translate"
	"aalwines/internal/weight"
)

// The on-the-fly contract: saturating the product a head at a time
// yields the automaton the eager, reduced product saturates to — same
// transitions, same edge order, same weights — up to the numbering of the
// chain and saturation states, which the two forms allocate in different
// orders.

// satDump saturates a system and renders its automaton canonically.
// Base control states keep their index (both forms share the encoding);
// every other state is named by its discovery order in a depth-first walk
// from the base states that follows each state's edges in order. Two
// systems with equal dumps saturate to isomorphic automata with identical
// edge order — everything a verdict, witness or weight can observe.
func satDump(t *testing.T, sys *translate.System) string {
	t.Helper()
	init := sys.InitAuto()
	init.NormalizeWeights(sys.Dim)
	res, err := pds.PoststarOpts(sys.PDS, init, pds.SatOptions{Dim: sys.Dim})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Auto
	isBase := func(s pds.State) bool { _, _, _, ok := sys.DecodeState(s); return ok }
	canon := map[pds.State]string{}
	var order []pds.State
	var visit func(s pds.State) string
	visit = func(s pds.State) string {
		if isBase(s) {
			return fmt.Sprintf("b%d", s)
		}
		if n, ok := canon[s]; ok {
			return n
		}
		n := fmt.Sprintf("x%d", len(canon))
		canon[s] = n
		order = append(order, s)
		for _, e := range a.Out(s) {
			visit(e.To)
		}
		return n
	}
	var b strings.Builder
	dump := func(s pds.State) {
		out := a.Out(s)
		if len(out) == 0 && !a.Accepting(s) {
			return
		}
		fmt.Fprintf(&b, "%s accept=%v\n", visit(s), a.Accepting(s))
		for i, e := range out {
			fmt.Fprintf(&b, "  e%d sym=%d to=%s w=%v\n", i, e.Sym, visit(e.To), e.Weight)
		}
	}
	for s := pds.State(0); isBase(s); s++ {
		dump(s)
	}
	for i := 0; i < len(order); i++ {
		dump(order[i])
	}
	return b.String()
}

func onTheFlyNets(t *testing.T) map[string]*gen.Synth {
	t.Helper()
	return map[string]*gen.Synth{
		"running-example": {Net: gen.RunningExample().Network},
		"zoo":             gen.Zoo(gen.ZooOpts{Routers: 16, Seed: 3, Protection: true}),
	}
}

// TestSliceByteIdenticalSaturation compares the on-the-fly product
// (Options.Slice) against the eager one, unweighted and weighted, in both
// approximation directions.
func TestSliceByteIdenticalSaturation(t *testing.T) {
	spec := weight.Spec{{{Coeff: 1, Q: weight.Failures}}, {{Coeff: 1, Q: weight.Hops}}}
	for name, s := range onTheFlyNets(t) {
		t.Run(name, func(t *testing.T) {
			var texts []string
			if name == "running-example" {
				texts = []string{
					"<ip> [.#v0] .* [v3#.] <ip> 0",
					"<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2",
					"<ip> [.#v0] .* [v2#v4] .* [v3#.] <ip> 1",
					"<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
				}
			} else {
				for _, q := range s.Queries(4, 5) {
					texts = append(texts, q.Text)
				}
			}
			for _, text := range texts {
				q := mustParse(t, text, s.Net)
				for _, mode := range []translate.Mode{translate.Over, translate.Under} {
					for _, sp := range []weight.Spec{nil, spec} {
						eager := translate.Build(s.Net, q, translate.Options{Mode: mode, Spec: sp})
						lazy := translate.Build(s.Net, q, translate.Options{Mode: mode, Spec: sp, Slice: true})
						if lazy.PDS.Gen == nil || len(lazy.PDS.Rules) != 0 {
							t.Fatalf("%q mode=%d: Slice build is not on the fly", text, mode)
						}
						if want, got := satDump(t, eager), satDump(t, lazy); got != want {
							t.Fatalf("%q mode=%d weighted=%v: on-the-fly saturation diverges from eager\neager:\n%s\non the fly:\n%s",
								text, mode, sp != nil, want, got)
						}
						if lazy.Generated() > eager.RulesBeforeReduction {
							t.Fatalf("%q mode=%d: generated %d rules, eager emits %d",
								text, mode, lazy.Generated(), eager.RulesBeforeReduction)
						}
					}
				}
			}
		})
	}
}

// TestSliceEffectiveness checks the point of the exercise: on an operator-
// scale network, an endpoint-anchored query generates fewer rules than the
// eager product emits.
func TestSliceEffectiveness(t *testing.T) {
	s := gen.Nordunet(gen.NordOpts{Services: 2, EdgeRouters: 10, Seed: 1})
	var shrunk bool
	for _, tq := range s.Table1Queries()[:3] {
		q := mustParse(t, tq.Text, s.Net)
		eager := translate.Build(s.Net, q, translate.Options{Mode: translate.Over, NoReductions: true})
		lazy := translate.Build(s.Net, q, translate.Options{Mode: translate.Over, Slice: true})
		if _, err := pds.PoststarOpts(lazy.PDS, lazy.InitAuto(), pds.SatOptions{}); err != nil {
			t.Fatal(err)
		}
		t.Logf("%.60s: eager %d rules, generated %d", tq.Text, len(eager.PDS.Rules), lazy.Generated())
		if lazy.Generated() < len(eager.PDS.Rules) {
			shrunk = true
		}
	}
	if !shrunk {
		t.Fatal("the on-the-fly product generated every rule on every anchored nordunet query")
	}
}

// TestSliceCacheKeyed checks that a Cache keeps on-the-fly and eager
// systems in separate entries, shares an eager System as is and hands out
// a private copy of an on-the-fly one over the same generator.
func TestSliceCacheKeyed(t *testing.T) {
	re := gen.RunningExample()
	q := mustParse(t, "<ip> [.#v0] .* [v3#.] <ip> 0", re.Network)
	c := translate.NewCache(re.Network)
	lazy1, _ := c.Get(q, translate.Options{Slice: true})
	lazy2, _ := c.Get(q, translate.Options{Slice: true})
	eager1, _ := c.Get(q, translate.Options{})
	eager2, _ := c.Get(q, translate.Options{})
	if lazy1.PDS.Gen == nil || eager1.PDS.Gen != nil {
		t.Fatal("cache conflated on-the-fly and eager builds")
	}
	if lazy1 == lazy2 || lazy1.PDS == lazy2.PDS {
		t.Fatal("on-the-fly gets share one rule store")
	}
	if !reflect.DeepEqual(lazy1.PDS.Gen, lazy2.PDS.Gen) {
		t.Fatal("on-the-fly gets do not share the generator")
	}
	if eager1 != eager2 {
		t.Fatal("eager gets did not share the built system")
	}
	if st := c.Stats(); st.Entries != 2 || st.Gets != 4 || st.Misses != 2 {
		t.Fatalf("cache stats %+v, want 2 entries, 4 gets, 2 misses", st)
	}
}

// TestSessionCacheIgnoresSlice pins the incremental fallback rule: a
// SessionCache serves scenario overlays through per-key block reuse, which
// only the eager product has — so it always builds eagerly, even when
// asked for the on-the-fly product.
func TestSessionCacheIgnoresSlice(t *testing.T) {
	re := gen.RunningExample()
	q := mustParse(t, "<ip> [.#v0] .* [v3#.] <ip> 0", re.Network)
	sc := translate.NewSessionCache(re.Network)
	sys, _ := sc.Get(q, translate.Options{Slice: true})
	if sys.PDS.Gen != nil {
		t.Fatal("session cache produced an on-the-fly build")
	}
	plain := translate.Build(re.Network, q, translate.Options{})
	if !reflect.DeepEqual(sys.PDS.Rules, plain.PDS.Rules) {
		t.Fatalf("session build has %d rules, eager build %d", len(sys.PDS.Rules), len(plain.PDS.Rules))
	}
}

// decodeWitness saturates sys from init to the fixed point and decodes
// the cheapest witness, as the engine does.
func decodeWitness(t *testing.T, sys *translate.System, init *pds.Auto) network.Trace {
	t.Helper()
	res, err := pds.PoststarOpts(sys.PDS, init, pds.SatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	acc, ok := res.FindAccepting(sys.FinalStates, sys.FinalSpec)
	if !ok {
		t.Fatal("no accepting configuration")
	}
	cfg, rules, err := res.Reconstruct(acc)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sys.DecodeTrace(cfg, rules)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestOnTheFlyResaturation saturates one on-the-fly System twice, the
// second time from another build's initial automaton, as the engine and
// the benchmark's re-drive do on an early-accept fallback: each run keeps
// its own rule store, and decoding reads the latest one. Beside it,
// goroutines saturate copies of one cached on-the-fly entry; run under
// -race, this checks that the shared generator stays read-only.
func TestOnTheFlyResaturation(t *testing.T) {
	net := gen.RunningExample().Network
	text := "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1"
	q := mustParse(t, text, net)
	eager := translate.Build(net, q, translate.Options{})
	want := decodeWitness(t, eager, eager.InitAuto()).Format(net)

	c := translate.NewCache(net)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				sys, init := c.Get(q, translate.Options{Slice: true})
				if got := decodeWitness(t, sys, init).Format(net); got != want {
					t.Errorf("cached on-the-fly witness %s, eager %s", got, want)
				}
			}
		}()
	}

	sys := translate.Build(net, q, translate.Options{Slice: true})
	first, err := pds.PoststarOpts(sys.PDS, sys.InitAuto(), pds.SatOptions{
		EarlyAccept: true, FinalStates: sys.FinalStates, FinalSpec: sys.FinalSpec,
	})
	if err != nil {
		t.Fatal(err)
	}
	n1 := sys.Generated()
	other := translate.Build(net, q, translate.Options{Slice: true})
	if got := decodeWitness(t, sys, other.InitAuto()).Format(net); got != want {
		t.Errorf("re-saturated witness %s, eager %s", got, want)
	}
	if len(first.PDS.Rules) != n1 {
		t.Errorf("first result holds %d rules, its run generated %d", len(first.PDS.Rules), n1)
	}
	if other.Generated() != 0 {
		t.Error("saturating sys generated rules into the other build")
	}
	wg.Wait()
}
