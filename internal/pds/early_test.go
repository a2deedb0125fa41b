package pds_test

import (
	"fmt"
	"sort"
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/network"
	"aalwines/internal/nfa"
	"aalwines/internal/pds"
	"aalwines/internal/query"
	"aalwines/internal/translate"
)

// probeOracle answers the early-accept question from scratch: a DFS over
// the product of a and spec from starts × ε-closure(spec start), with the
// probe's edge semantics. It reports whether an accepting product node is
// reachable, the nodes it reached (every reachable node when the answer
// is no) and the out-edges it stepped over.
func probeOracle(a *pds.Auto, starts []pds.State, spec *nfa.NFA) (ok bool, reached [][2]int, followed int64) {
	ns := spec.NumStates()
	seen := make([]bool, a.NumStates()*ns)
	var stack [][2]int
	visit := func(s pds.State, n int) {
		if i := int(s)*ns + n; !seen[i] {
			seen[i] = true
			stack = append(stack, [2]int{int(s), n})
			reached = append(reached, [2]int{int(s), n})
		}
	}
	for _, p := range starts {
		for _, n0 := range spec.EpsClosure(spec.Start()) {
			visit(p, n0)
		}
	}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s, n := pds.State(nd[0]), nd[1]
		if a.Accepting(s) && spec.Accepting(n) {
			return true, reached, followed
		}
		for _, e := range a.Out(s) {
			followed++
			if e.Sym == pds.Eps {
				continue
			}
			set := a.SymSet(e.Sym)
			for _, arc := range spec.Arcs(n) {
				if set != nil {
					if !set.Intersects(arc.Set) {
						continue
					}
				} else if !arc.Set.Has(nfa.Sym(e.Sym)) {
					continue
				}
				visit(e.To, arc.To)
			}
		}
	}
	return false, reached, followed
}

// probeNet is a network with the queries the differential test runs on it.
type probeNet struct {
	name    string
	net     *network.Network
	queries []string
}

// probeNets are the differential test's systems: the running example
// with its quickstart queries and a row-6 shape, and Table 1's six query
// shapes on a zoo net and a small NORDUnet.
func probeNets() []probeNet {
	re := gen.RunningExample()
	zoo := gen.Zoo(gen.ZooOpts{Routers: 12, Seed: 3, Protection: true})
	nord := gen.Nordunet(gen.NordOpts{Services: 1, EdgeRouters: 4, Seed: 1})
	table1 := func(s *gen.Synth) []string {
		var out []string
		for _, q := range s.Table1Queries() {
			out = append(out, q.Text)
		}
		return out
	}
	return []probeNet{
		{"running-example", re.Network, []string{
			"<ip> [.#v0] .* [v3#.] <ip> 0",
			"<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2",
			"<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
			"<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
			"<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
			"<smpls? ip> .* <. smpls ip> 0",
		}},
		{"zoo", zoo.Net, table1(zoo)},
		{"nordunet", nord.Net, table1(nord)},
	}
}

// TestEarlyProbeMatchesOracle drives post* runs pop by pop and probes
// after every pop, not only at the run's cadence. Each incremental answer
// must equal the from-scratch DFS on the same automaton, and while the
// answer is no, the nodes the walk has reached must be exactly the
// reachable ones. Over a whole run the walk must follow each out-edge at
// most once per reached node.
func TestEarlyProbeMatchesOracle(t *testing.T) {
	for _, c := range probeNets() {
		for _, text := range c.queries {
			q, err := query.Parse(text, c.net)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			for _, fly := range []bool{false, true} {
				sys := translate.Build(c.net, q, translate.Options{Mode: translate.Over, Slice: fly})
				name := fmt.Sprintf("%s %q (on the fly %v)", c.name, text, fly)
				checkProbe(t, name, sys.PDS, sys.InitAuto(), sys.FinalStates, sys.FinalSpec)
			}
		}
	}
	// A start node that accepts at once: ⟨0, ε⟩ is in the initial
	// automaton and the spec accepts ε.
	p := pds.New(1, 1)
	p.AddRule(pds.Rule{FromState: 0, FromSym: 0, ToState: 0, Kind: pds.PopRule})
	init := pds.NewAuto(p, 0)
	s1 := init.AddState()
	init.AddEdge(0, 0, s1)
	init.SetAccept(0, true)
	init.SetAccept(s1, true)
	spec := nfa.New(1)
	spec.SetAccept(spec.Start(), true)
	checkProbe(t, "accepting start", p, init, []pds.State{0}, spec)
}

// checkProbe saturates init under p one pop at a time and compares the
// incremental probe with probeOracle after every pop.
func checkProbe(t *testing.T, name string, p *pds.PDS, init *pds.Auto, starts []pds.State, spec *nfa.NFA) {
	t.Helper()
	run, err := pds.NewStepRun(p, init, pds.SatOptions{EarlyAccept: true, FinalStates: starts, FinalSpec: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	var pops, probes int
	var oracleFollowed int64
	first := -1 // the pop count of the first yes
	for {
		got := run.Probe()
		want, reached, followed := probeOracle(run.Auto(), starts, spec)
		probes++
		oracleFollowed += followed
		if got != want {
			t.Fatalf("%s: after %d pops the probe says %v, the oracle %v", name, pops, got, want)
		}
		if !got && !sameNodes(run.Reached(), reached) {
			t.Fatalf("%s: after %d pops the probe reached %d nodes, the oracle %d",
				name, pops, len(run.Reached()), len(reached))
		}
		if got && first < 0 {
			first = pops
		}
		if !run.Step() {
			break
		}
		pops++
	}
	var bound int64
	for _, nd := range run.Reached() {
		bound += int64(len(run.Auto().Out(pds.State(nd[0]))))
	}
	if run.Followed() > bound {
		t.Errorf("%s: the probe followed %d edges, more than the %d out-edges of its %d reached nodes",
			name, run.Followed(), bound, len(run.Reached()))
	}
	t.Logf("%s: %d pops, first yes after %d, %d probes: %d edges followed (from scratch %d)",
		name, pops, first, probes, run.Followed(), oracleFollowed)
}

// sameNodes reports whether two node lists hold the same set of nodes.
func sameNodes(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	sorted := func(x [][2]int) [][2]int {
		y := append([][2]int(nil), x...)
		sort.Slice(y, func(i, j int) bool {
			if y[i][0] != y[j][0] {
				return y[i][0] < y[j][0]
			}
			return y[i][1] < y[j][1]
		})
		return y
	}
	sa, sb := sorted(a), sorted(b)
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}
