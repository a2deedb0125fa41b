package moped_test

import (
	"bytes"
	"math/rand"
	"strings"
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

// TestFormatRoundTrip: WritePDS then ReadPDS reproduces the rule set.
func TestFormatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := pds.New(5, 4)
	for i := 0; i < 40; i++ {
		r := pds.Rule{
			FromState: pds.State(rng.Intn(5)),
			FromSym:   pds.Sym(rng.Intn(4)),
			ToState:   pds.State(rng.Intn(5)),
			Kind:      pds.RuleKind(rng.Intn(3)),
		}
		if r.Kind != pds.PopRule {
			r.Sym1 = pds.Sym(rng.Intn(4))
		}
		if r.Kind == pds.PushRule {
			r.Sym2 = pds.Sym(rng.Intn(4))
		}
		p.AddRule(r)
	}
	var buf bytes.Buffer
	if err := moped.WritePDS(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := moped.ReadPDS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumStates != p.NumStates || got.NumSyms != p.NumSyms {
		t.Fatalf("dims: got (%d,%d) want (%d,%d)", got.NumStates, got.NumSyms, p.NumStates, p.NumSyms)
	}
	// Compare as sorted canonical rule lists (the writer sorts; duplicates
	// survive round-tripping).
	want := append([]pds.Rule(nil), p.Rules...)
	pds.SortRulesDeterministic(want)
	have := append([]pds.Rule(nil), got.Rules...)
	pds.SortRulesDeterministic(have)
	if len(want) != len(have) {
		t.Fatalf("rule count: got %d want %d", len(have), len(want))
	}
	for i := range want {
		w, h := want[i], have[i]
		if w.String() != h.String() {
			t.Fatalf("rule %d: got %v want %v", i, h, w)
		}
	}
}

func TestReadPDSErrors(t *testing.T) {
	bad := []string{
		"",
		"p0 g0 --> p1\n",               // rule before header
		"(1)\n",                        // short header
		"(x y)\n",                      // non-numeric header
		"(2 2)\np0 g0 p1\n",            // missing arrow
		"(2 2)\np0 --> p1\n",           // short lhs
		"(2 2)\nq0 g0 --> p1\n",        // bad prefix
		"(2 2)\np0 g0 --> p1 g0 g0 g0", // long rhs
	}
	for _, s := range bad {
		if _, err := moped.ReadPDS(strings.NewReader(s)); err == nil {
			t.Errorf("ReadPDS(%q) succeeded, want error", s)
		}
	}
}

func TestWriteIncludesHeaderAndComment(t *testing.T) {
	p := pds.New(2, 2)
	p.AddRule(pds.Rule{FromState: 0, FromSym: 1, ToState: 1, Kind: pds.PopRule})
	var buf bytes.Buffer
	if err := moped.WritePDS(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "(2 2)") || !strings.Contains(out, "p0 g1 --> p1") {
		t.Fatalf("output:\n%s", out)
	}
}
