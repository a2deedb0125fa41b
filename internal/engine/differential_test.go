package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"aalwines/internal/batch"
	"aalwines/internal/engine"
	"aalwines/internal/explicit"
	"aalwines/internal/gen"
	"aalwines/internal/network"
	"aalwines/internal/obs"
	"aalwines/internal/query"
	"aalwines/internal/weight"
)

// diffCase is one (network, query, k) combination of the differential
// harness.
type diffCase struct {
	net  *network.Network
	text string
	k    int
}

// withK rewrites the failure bound of a query text (the trailing integer).
func withK(text string, k int) string {
	i := strings.LastIndexByte(strings.TrimSpace(text), ' ')
	return strings.TrimSpace(text)[:i+1] + fmt.Sprint(k)
}

// diffCorpus builds the differential corpus: the running example plus a
// family of small synthesised zoo networks, each with generated queries
// replicated across every failure bound k ∈ {0,1,2}.
func diffCorpus(tb testing.TB) []diffCase {
	tb.Helper()
	type netQueries struct {
		net   *network.Network
		texts []string
	}
	var nets []netQueries
	nets = append(nets, netQueries{
		net: gen.RunningExample().Network,
		texts: []string{
			"<ip> [.#v0] .* [v3#.] <ip> 0",
			"<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 0",
			"<ip> [.#v0] .* [v2#v4] .* [v3#.] <ip> 0",
		},
	})
	for i, routers := range []int{8, 10, 12} {
		s := gen.Zoo(gen.ZooOpts{Routers: routers, Seed: int64(20 + i), Protection: true})
		nq := netQueries{net: s.Net}
		for _, q := range s.Queries(5, int64(100+i)) {
			nq.texts = append(nq.texts, q.Text)
		}
		nets = append(nets, nq)
	}
	var cases []diffCase
	for _, nq := range nets {
		for _, text := range nq.texts {
			for k := 0; k <= 2; k++ {
				cases = append(cases, diffCase{nq.net, withK(text, k), k})
			}
		}
	}
	return cases
}

// TestDifferentialExplicit cross-checks the symbolic pipeline against the
// explicit-state checker on every corpus combination. The explicit engine
// decides over-approximate reachability exactly within its height bound
// (no feasibility validation), so the sound comparisons are:
//
//   - explicit satisfied        ⟹ the engine is not Unsatisfied,
//   - engine Satisfied          ⟹ explicit found a witness, unless the
//     height bound pruned the search,
//   - engine Unsatisfied        ⟹ explicit found nothing.
func TestDifferentialExplicit(t *testing.T) {
	cases := diffCorpus(t)
	if len(cases) < 50 {
		t.Fatalf("corpus has %d combinations, want ≥ 50", len(cases))
	}
	checked := 0
	for _, c := range cases {
		q, err := query.Parse(c.text, c.net)
		if err != nil {
			t.Fatalf("%s %q: %v", c.net.Name, c.text, err)
		}
		res, err := engine.Verify(c.net, q, engine.Options{})
		if err != nil {
			t.Fatalf("%s %q: engine: %v", c.net.Name, c.text, err)
		}
		exp, err := explicit.Verify(c.net, q, explicit.Options{MaxHeight: 6})
		if errors.Is(err, explicit.ErrStateBudget) {
			continue // too large to enumerate; covered by other combos
		}
		if err != nil {
			t.Fatalf("%s %q: explicit: %v", c.net.Name, c.text, err)
		}
		checked++
		if exp.Satisfied && res.Verdict == engine.Unsatisfied {
			t.Errorf("%s %q (k=%d): engine unsatisfied, explicit witness: %s",
				c.net.Name, c.text, c.k, exp.Trace.Format(c.net))
		}
		if res.Verdict == engine.Satisfied && !exp.Satisfied && !exp.HitHeightBound {
			t.Errorf("%s %q (k=%d): engine satisfied, exhaustive explicit search found nothing; witness: %s",
				c.net.Name, c.text, c.k, res.Trace.Format(c.net))
		}
		if res.Verdict == engine.Unsatisfied && exp.Satisfied {
			t.Errorf("%s %q (k=%d): engine unsatisfied but explicit satisfied", c.net.Name, c.text, c.k)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d combinations fully checked, want ≥ 50", checked)
	}
	t.Logf("%d/%d combinations checked against the explicit engine", checked, len(cases))
}

// diffEssence is the serialisation the batch determinism check compares:
// every semantically meaningful result field, excluding timings.
type diffEssence struct {
	Verdict string
	Trace   network.Trace
	Failed  []int
	Weight  []uint64
}

func marshalResult(tb testing.TB, r engine.Result) []byte {
	tb.Helper()
	b, err := json.Marshal(diffEssence{
		Verdict: r.Verdict.String(),
		Trace:   r.Trace,
		Failed:  failedInts(r.Failed),
		Weight:  r.Weight,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func failedInts(f network.FailedSet) []int {
	var out []int
	for _, l := range f.Sorted() {
		out = append(out, int(l))
	}
	return out
}

// TestDifferentialEarlyAccept cross-checks early-accept termination
// against full saturation on the whole corpus: verdicts and witness
// weights must be identical with the fast path on and off, both
// unweighted and weighted (where early accept is disabled by dimension
// and the runs must be byte-identical outright). The corpus must
// actually exercise the fast path: the pds_early_accept_total counter
// has to move over the run.
func TestDifferentialEarlyAccept(t *testing.T) {
	cases := diffCorpus(t)
	spec := weight.Spec{{{Coeff: 1, Q: weight.Hops}}}
	early0 := obs.GetCounter("pds_early_accept_total").Value()
	for _, c := range cases {
		q, err := query.Parse(c.text, c.net)
		if err != nil {
			t.Fatalf("%s %q: %v", c.net.Name, c.text, err)
		}
		on, err := engine.Verify(c.net, q, engine.Options{})
		if err != nil {
			t.Fatalf("%s %q: early on: %v", c.net.Name, c.text, err)
		}
		off, err := engine.Verify(c.net, q, engine.Options{NoEarlyAccept: true})
		if err != nil {
			t.Fatalf("%s %q: early off: %v", c.net.Name, c.text, err)
		}
		if on.Verdict != off.Verdict {
			t.Errorf("%s %q (k=%d): verdict early=%v full=%v",
				c.net.Name, c.text, c.k, on.Verdict, off.Verdict)
		}
		if !reflect.DeepEqual(on.Weight, off.Weight) {
			t.Errorf("%s %q (k=%d): weight early=%v full=%v",
				c.net.Name, c.text, c.k, on.Weight, off.Weight)
		}
		won, err := engine.Verify(c.net, q, engine.Options{Spec: spec})
		if err != nil {
			t.Fatalf("%s %q: weighted: %v", c.net.Name, c.text, err)
		}
		if won.Stats.EarlyAccepted {
			t.Errorf("%s %q: weighted run reported early accept", c.net.Name, c.text)
		}
		woff, err := engine.Verify(c.net, q, engine.Options{Spec: spec, NoEarlyAccept: true})
		if err != nil {
			t.Fatalf("%s %q: weighted, early off: %v", c.net.Name, c.text, err)
		}
		if got, want := marshalResult(t, won), marshalResult(t, woff); !bytes.Equal(got, want) {
			t.Errorf("%s %q (k=%d): weighted results differ\non:  %s\noff: %s",
				c.net.Name, c.text, c.k, got, want)
		}
	}
	if d := obs.GetCounter("pds_early_accept_total").Value() - early0; d == 0 {
		t.Error("pds_early_accept_total did not move: corpus never exercised the fast path")
	} else {
		t.Logf("early accept fired %d times across %d combinations", d, len(cases))
	}
}

// TestDifferentialSlice runs the whole corpus with query-scoped slicing on
// (the default) and off, demanding byte-identical serialised results. The
// slice counters must move to prove slicing actually engaged.
func TestDifferentialSlice(t *testing.T) {
	cases := diffCorpus(t)
	kept0 := obs.GetCounter("translate_slice_routers_kept_total").Value()
	for _, c := range cases {
		q, err := query.Parse(c.text, c.net)
		if err != nil {
			t.Fatalf("%s %q: %v", c.net.Name, c.text, err)
		}
		sliced, err := engine.Verify(c.net, q, engine.Options{})
		if err != nil {
			t.Fatalf("%s %q: sliced: %v", c.net.Name, c.text, err)
		}
		full, err := engine.Verify(c.net, q, engine.Options{NoSlice: true})
		if err != nil {
			t.Fatalf("%s %q: unsliced: %v", c.net.Name, c.text, err)
		}
		if got, want := marshalResult(t, sliced), marshalResult(t, full); !bytes.Equal(got, want) {
			t.Errorf("%s %q (k=%d): sliced result differs from unsliced\nsliced: %s\nfull:   %s",
				c.net.Name, c.text, c.k, got, want)
		}
		if !sliced.Stats.Slice.Active {
			t.Errorf("%s %q: default run reports inactive slice", c.net.Name, c.text)
		}
		if full.Stats.Slice.Active {
			t.Errorf("%s %q: NoSlice run reports an active slice", c.net.Name, c.text)
		}
		if got, want := sliced.Stats.OverRules, full.Stats.OverRules; got > want {
			t.Errorf("%s %q: sliced build has more rules (%d > %d)", c.net.Name, c.text, got, want)
		}
	}
	if obs.GetCounter("translate_slice_routers_kept_total").Value() == kept0 {
		t.Error("translate_slice_routers_kept_total did not move")
	}
}

// TestDifferentialBatchSerial runs the whole corpus through the batch
// engine at several worker counts and demands byte-identical serialised
// results against fresh serial runs.
func TestDifferentialBatchSerial(t *testing.T) {
	cases := diffCorpus(t)
	byNet := map[*network.Network][]string{}
	var order []*network.Network
	for _, c := range cases {
		if _, ok := byNet[c.net]; !ok {
			order = append(order, c.net)
		}
		byNet[c.net] = append(byNet[c.net], c.text)
	}
	for _, net := range order {
		texts := byNet[net]
		serial := make([][]byte, len(texts))
		for i, text := range texts {
			res, err := engine.VerifyText(net, text, engine.Options{})
			if err != nil {
				t.Fatalf("%s %q: %v", net.Name, text, err)
			}
			serial[i] = marshalResult(t, res)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			results := batch.Verify(context.Background(), net, texts, batch.Options{Workers: workers})
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("%s workers=%d %q: %v", net.Name, workers, r.Query, r.Err)
				}
				if got := marshalResult(t, r.Res); !bytes.Equal(got, serial[i]) {
					t.Errorf("%s workers=%d %q: batch result differs from serial\nbatch:  %s\nserial: %s",
						net.Name, workers, r.Query, got, serial[i])
				}
			}
		}
	}
}

// TestDifferentialPaperScale extends the differential harness to one
// paper-scale input: the >250k-rule NORDUnet service configuration behind
// the nordunet-svc-250k ladder rung. Query-scoped slicing promises
// byte-identity, so the sliced run must serialise identically to the
// unsliced one on a dataplane of this size, where index packing and arena
// reuse actually engage. Two of the six Table 1 queries keep the
// runtime test-suite-friendly; the bench ladder covers the full set.
func TestDifferentialPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale differential in -short mode")
	}
	s := gen.Nordunet(gen.NordOpts{Services: 70, EdgeRouters: 31, Seed: 1})
	if n := s.Net.Routing.NumRules(); n <= 250_000 {
		t.Fatalf("paper-scale network has %d rules, want > 250000", n)
	}
	qs := s.Table1Queries()
	for _, i := range []int{2, 5} {
		text := qs[i].Text
		base, err := engine.VerifyText(s.Net, text, engine.Options{NoSlice: true})
		if err != nil {
			t.Fatalf("%q: unsliced: %v", text, err)
		}
		want := marshalResult(t, base)
		sliced, err := engine.VerifyText(s.Net, text, engine.Options{})
		if err != nil {
			t.Fatalf("%q: sliced: %v", text, err)
		}
		if !sliced.Stats.Slice.Active {
			t.Errorf("%q: default run reports inactive slice", text)
		}
		if got := marshalResult(t, sliced); !bytes.Equal(got, want) {
			t.Errorf("%q: sliced result differs from unsliced at paper scale", text)
		}
	}
}
