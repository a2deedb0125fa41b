package pds_test

// Saturation benchmarks over translated workloads from the benchmark
// ladder (see README, "Performance"): the running example (Figure 1), a
// Topology-Zoo-scale synthetic WAN and a NORDUnet-scale operator network.
// These are the numbers behind the paper's "answers in a matter of
// seconds" claim — BenchmarkPoststarZoo is the canonical regression gate
// for the saturation hot path (ns/op and allocs/op both matter; the
// indexed automaton and the per-run scratch reuse are sized against it).

import (
	"fmt"
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/pds"
	"aalwines/internal/query"
	"aalwines/internal/translate"
)

// satCase is one (pushdown system, initial automaton) saturation input,
// pre-built once so the benchmark loop measures saturation alone (plus the
// per-run Clone every real caller pays — the cache hands out clones).
type satCase struct {
	name string
	sys  *translate.System
	init *pds.Auto
}

// buildCases translates the network's benchmark queries: the eager,
// reduced product, or with slice the on-the-fly one.
func buildCases(tb testing.TB, netName string, slice bool) []satCase {
	tb.Helper()
	var s *gen.Synth
	var texts []string
	switch netName {
	case "running-example":
		re := gen.RunningExample()
		s = &gen.Synth{Net: re.Network}
		texts = []string{
			"<ip> [.#v0] .* [v3#.] <ip> 0",
			"<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2",
			"<ip> [.#v0] .* [v2#v4] .* [v3#.] <ip> 1",
		}
	case "zoo":
		s = gen.Zoo(gen.ZooOpts{Routers: 84, Seed: 2, Protection: true})
		for _, q := range s.Queries(6, 7) {
			texts = append(texts, q.Text)
		}
	case "nordunet":
		s = gen.Nordunet(gen.NordOpts{Services: 4, EdgeRouters: 16, Seed: 1})
		for _, q := range s.Table1Queries()[:3] {
			texts = append(texts, q.Text)
		}
	default:
		tb.Fatalf("unknown bench network %q", netName)
	}
	var cases []satCase
	for i, text := range texts {
		q, err := query.Parse(text, s.Net)
		if err != nil {
			tb.Fatalf("%q: %v", text, err)
		}
		sys := translate.Build(s.Net, q, translate.Options{Mode: translate.Over, Slice: slice})
		sys.PDS.Freeze()
		init := sys.InitAuto()
		init.NormalizeWeights(sys.Dim)
		cases = append(cases, satCase{name: fmt.Sprintf("q%d", i), sys: sys, init: init})
	}
	return cases
}

func benchPoststar(b *testing.B, netName string, slice bool) {
	cases := buildCases(b, netName, slice)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			res, err := pds.PoststarOpts(c.sys.PDS, c.init.Clone(), pds.SatOptions{Dim: c.sys.Dim})
			if err != nil {
				b.Fatal(err)
			}
			if res.Auto.NumTrans() == 0 {
				b.Fatal("empty saturation result")
			}
		}
	}
}

// BenchmarkPoststarZoo is the canonical hot-path benchmark: full post*
// saturation of the over-approximation for a query set on the 84-router
// Topology-Zoo-scale synthetic WAN.
func BenchmarkPoststarZoo(b *testing.B) { benchPoststar(b, "zoo", false) }

// BenchmarkPoststarRunningExample saturates the paper's Figure 1 network.
func BenchmarkPoststarRunningExample(b *testing.B) { benchPoststar(b, "running-example", false) }

// BenchmarkPoststarNordunet saturates Table 1 queries on the NORDUnet-scale
// operator network.
func BenchmarkPoststarNordunet(b *testing.B) { benchPoststar(b, "nordunet", false) }

// BenchmarkPoststarOnTheFly saturates the same Table 1 queries through the
// on-the-fly product, as one-shot verification runs them: post* generates
// a head's rules when it first reaches the head, keeps them in its own
// rule store and adds their chain states to the automaton. Run it with
// -benchmem; bytes per op follow the stores DESIGN.md §8 sizes.
func BenchmarkPoststarOnTheFly(b *testing.B) { benchPoststar(b, "nordunet", true) }

// BenchmarkPoststarEarlyAccept saturates Table 1's last query, the
// any-tunnel shape <smpls? ip> .* <. smpls ip> 0, on the NORDUnet-scale
// network with the early-accept probe on, as the engine runs its
// over-approximation: through the on-the-fly product, so the run fills
// its own rule pages and chain states. The probe fires at the run's
// cadence until an accepting configuration is reachable, so this measures
// the probe's share of a real run.
func BenchmarkPoststarEarlyAccept(b *testing.B) {
	s := gen.Nordunet(gen.NordOpts{Services: 4, EdgeRouters: 16, Seed: 1})
	text := s.Table1Queries()[5].Text
	q, err := query.Parse(text, s.Net)
	if err != nil {
		b.Fatalf("%q: %v", text, err)
	}
	sys := translate.Build(s.Net, q, translate.Options{Mode: translate.Over, Slice: true})
	init := sys.InitAuto()
	o := pds.SatOptions{EarlyAccept: true, FinalStates: sys.FinalStates, FinalSpec: sys.FinalSpec}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pds.PoststarOpts(sys.PDS, init.Clone(), o)
		if err != nil {
			b.Fatal(err)
		}
		if !res.EarlyAccepted {
			b.Fatal("the any-tunnel query did not accept early")
		}
	}
}
