package pds_test

import (
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/pds"
	"aalwines/internal/query"
	"aalwines/internal/translate"
)

// TestOnTheFlyCrossesStoreChunks saturates small networks on the fly far
// enough that the rule store fills more than one page and the state table
// more than one chunk, and checks that the run still decodes the witness
// the eager product decodes: the rule indexes in its witness records
// address the right page slots, and the chain states past the first chunk
// carry their rules.
func TestOnTheFlyCrossesStoreChunks(t *testing.T) {
	s := gen.Zoo(gen.ZooOpts{Routers: 16, Seed: 3, Protection: true})
	var crossed bool
	for _, gq := range s.Queries(6, 5) {
		q, err := query.Parse(gq.Text, s.Net)
		if err != nil {
			t.Fatalf("%q: %v", gq.Text, err)
		}
		eager := translate.Build(s.Net, q, translate.Options{Mode: translate.Over})
		lazy := translate.Build(s.Net, q, translate.Options{Mode: translate.Over, Slice: true})
		want, wok, _ := witness(t, eager)
		got, gok, a := witness(t, lazy)
		if wok != gok || got != want {
			t.Fatalf("%q: on the fly decodes %q (%v), eager %q (%v)", gq.Text, got, gok, want, wok)
		}
		t.Logf("%q: %d rule pages, %d state chunks", gq.Text, pds.RulePages(lazy.PDS), pds.StateChunks(a))
		if pds.RulePages(lazy.PDS) > 1 && pds.StateChunks(a) > 1 {
			crossed = true
		}
	}
	if !crossed {
		t.Fatal("no run crossed both a rule page and a state chunk")
	}
}

// witness saturates sys to the fixed point and renders the cheapest
// witness trace, as the engine decodes it, beside the saturated automaton.
func witness(t *testing.T, sys *translate.System) (string, bool, *pds.Auto) {
	t.Helper()
	res, err := pds.PoststarOpts(sys.PDS, sys.InitAuto(), pds.SatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	acc, ok := res.FindAccepting(sys.FinalStates, sys.FinalSpec)
	if !ok {
		return "", false, res.Auto
	}
	cfg, rules, err := res.Reconstruct(acc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Replay(cfg, rules); err != nil {
		t.Fatal(err)
	}
	tr, err := sys.DecodeTrace(cfg, rules)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Format(sys.Net), true, res.Auto
}
