package moped_test

import (
	"testing"

	"aalwines/internal/engine"
	"aalwines/internal/gen"
	"aalwines/internal/moped"
	"aalwines/internal/pds"
)

// TestMopedAgreesWithDual: the baseline backend must return the same
// verdicts as the optimised engine on the running example queries.
func TestMopedAgreesWithDual(t *testing.T) {
	re := gen.RunningExample()
	queries := []string{
		"<ip> [.#v0] .* [v3#.] <ip> 0",
		"<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2",
		"<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
		"<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
		"<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
		"<ip> [.#v0] .* [v2#v4] .* [v3#.] <ip> 1",
	}
	for _, qt := range queries {
		dual, err := engine.VerifyText(re.Network, qt, engine.Options{})
		if err != nil {
			t.Fatalf("%s: dual: %v", qt, err)
		}
		base, err := engine.VerifyText(re.Network, qt, engine.Options{Saturate: moped.Poststar})
		if err != nil {
			t.Fatalf("%s: moped: %v", qt, err)
		}
		if dual.Verdict != base.Verdict {
			t.Errorf("%s: dual=%v moped=%v", qt, dual.Verdict, base.Verdict)
		}
	}
}

func TestMopedRejectsWeighted(t *testing.T) {
	p := pds.New(1, 2)
	a := pds.NewAuto(p, 0)
	if _, err := moped.Poststar(p, a, 1, 0); err == nil {
		t.Fatal("expected error for weighted system")
	}
}

func TestMopedBudget(t *testing.T) {
	re := gen.RunningExample()
	_, err := engine.VerifyText(re.Network, "<ip> [.#v0] .* [v3#.] <ip> 0",
		engine.Options{Saturate: moped.Poststar, Budget: 1})
	if err == nil {
		t.Fatal("expected budget error")
	}
}
