package translate_test

import (
	"slices"
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/pds"
	"aalwines/internal/query"
	"aalwines/internal/scenario"
	"aalwines/internal/topology"
	"aalwines/internal/translate"
)

// sweepSystems returns unreduced eager products of the kind a depth-2
// resilience sweep of the protected 18-router zoo assembles per scenario:
// one reachability and one tunnel invariant with failure bound 1, over
// and under, on the unfailed network and on 8 single and 8 double link
// failures.
func sweepSystems(tb testing.TB) []*translate.System {
	tb.Helper()
	syn := gen.Zoo(gen.ZooOpts{Routers: 18, Protection: true, Seed: 1})
	net := syn.Net
	var invs []string
	for _, kind := range []gen.QueryKind{gen.QReach, gen.QTunnelReach} {
		for seed := int64(1000); len(invs) < 2 && seed < 2000; seed++ {
			i := slices.IndexFunc(syn.Queries(5, seed), func(q gen.GenQuery) bool { return q.Kind == kind && q.K == 1 })
			if i >= 0 {
				invs = append(invs, syn.Queries(5, seed)[i].Text)
				break
			}
		}
	}
	if len(invs) != 2 {
		tb.Fatalf("found invariants %q, want 2", invs)
	}
	fail := func(ls ...int) []scenario.Delta {
		var ds []scenario.Delta
		for _, l := range ls {
			ds = append(ds, scenario.Delta{Kind: scenario.FailLink, Link: net.Topo.LinkName(topology.LinkID(l))})
		}
		return ds
	}
	stacks := [][]scenario.Delta{nil}
	for l := 0; l < 8; l++ {
		stacks = append(stacks, fail(l), fail(l, net.Topo.NumLinks()-1-l))
	}
	sess := scenario.NewSession(net)
	var out []*translate.System
	for _, st := range stacks {
		if _, err := sess.SetStack(st); err != nil {
			tb.Fatal(err)
		}
		ov := sess.Overlay()
		for _, text := range invs {
			q, err := query.Parse(text, ov)
			if err != nil {
				tb.Fatal(err)
			}
			for _, mode := range []translate.Mode{translate.Over, translate.Under} {
				out = append(out, translate.Build(ov, q, translate.Options{Mode: mode, NoReductions: true}))
			}
		}
	}
	return out
}

// BenchmarkReduce times the top-of-stack reduction alone over sweep-sized
// session systems, by the worklist and by the round-robin oracle it
// replaced; ns/reduction is the time per system.
func BenchmarkReduce(b *testing.B) {
	systems := sweepSystems(b)
	for _, bc := range []struct {
		name   string
		reduce func(*translate.System, []pds.Rule) []pds.Rule
	}{{"worklist", translate.ReduceRules}, {"round-robin", translate.OracleReduceRules}} {
		b.Run(bc.name, func(b *testing.B) {
			var rules []pds.Rule
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, sys := range systems {
					rules = append(rules[:0], sys.PDS.Rules...)
					bc.reduce(sys, rules)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(systems)), "ns/reduction")
		})
	}
}
