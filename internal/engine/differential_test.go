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
	"aalwines/internal/cli"
	"aalwines/internal/engine"
	"aalwines/internal/explicit"
	"aalwines/internal/gen"
	"aalwines/internal/network"
	"aalwines/internal/obs"
	"aalwines/internal/query"
	"aalwines/internal/scenario"
	"aalwines/internal/translate"
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

// TestDifferentialSlice runs the whole corpus on the on-the-fly product
// (the default) and on the eager one (NoSlice), demanding byte-identical
// serialised results. The on-the-fly runs must actually generate rules,
// and the eager ones none.
func TestDifferentialSlice(t *testing.T) {
	cases := diffCorpus(t)
	for _, c := range cases {
		q, err := query.Parse(c.text, c.net)
		if err != nil {
			t.Fatalf("%s %q: %v", c.net.Name, c.text, err)
		}
		lazy, err := engine.Verify(c.net, q, engine.Options{})
		if err != nil {
			t.Fatalf("%s %q: on the fly: %v", c.net.Name, c.text, err)
		}
		eager, err := engine.Verify(c.net, q, engine.Options{NoSlice: true})
		if err != nil {
			t.Fatalf("%s %q: eager: %v", c.net.Name, c.text, err)
		}
		if got, want := marshalResult(t, lazy), marshalResult(t, eager); !bytes.Equal(got, want) {
			t.Errorf("%s %q (k=%d): on-the-fly result differs from eager\non the fly: %s\neager:      %s",
				c.net.Name, c.text, c.k, got, want)
		}
		if lazy.Stats.OverRules != 0 || lazy.Stats.OverRulesGenerated == 0 {
			t.Errorf("%s %q: on-the-fly run built %d rules, generated %d",
				c.net.Name, c.text, lazy.Stats.OverRules, lazy.Stats.OverRulesGenerated)
		}
		if eager.Stats.OverRules == 0 || eager.Stats.OverRulesGenerated != 0 {
			t.Errorf("%s %q: eager run built %d rules, generated %d",
				c.net.Name, c.text, eager.Stats.OverRules, eager.Stats.OverRulesGenerated)
		}
	}
}

// satCounters are the saturation work counters the on-the-fly product
// must move exactly as the eager one does.
var satCounters = []string{
	"pds_worklist_pops_total",
	"pds_worklist_pushes_total",
	"pds_trans_inserted_total",
	"pds_early_accept_total",
}

// counterDeltas runs f and returns how far it moved each of the
// saturation counters and the index-probe counter, summed over labels.
func counterDeltas(f func()) (sat []int64, probes int64) {
	sum := func(prefix string) int64 {
		var n int64
		for name, v := range obs.Default.Snapshot().Counters {
			if strings.HasPrefix(name, prefix) {
				n += v
			}
		}
		return n
	}
	pre := make([]int64, len(satCounters))
	for i, name := range satCounters {
		pre[i] = sum(name)
	}
	p0 := sum("pds_index_probes_total")
	f()
	sat = make([]int64, len(satCounters))
	for i, name := range satCounters {
		sat[i] = sum(name) - pre[i]
	}
	return sat, sum("pds_index_probes_total") - p0
}

// checkCounterIdentity verifies one query on the default (on-the-fly) and
// the NoSlice (eager) product and demands equal saturation work. Index
// probes may differ — an on-the-fly set-edge probe counts only the rules
// the set admits — so their deltas are logged.
func checkCounterIdentity(t *testing.T, net *network.Network, text string) {
	t.Helper()
	var lazyErr, eagerErr error
	lazy, lazyProbes := counterDeltas(func() { _, lazyErr = engine.VerifyText(net, text, engine.Options{}) })
	eager, eagerProbes := counterDeltas(func() { _, eagerErr = engine.VerifyText(net, text, engine.Options{NoSlice: true}) })
	if lazyErr != nil || eagerErr != nil {
		t.Fatalf("%s %q: on the fly %v, eager %v", net.Name, text, lazyErr, eagerErr)
	}
	for i, name := range satCounters {
		if lazy[i] != eager[i] {
			t.Errorf("%s %q: %s moved %d on the fly, %d eager", net.Name, text, name, lazy[i], eager[i])
		}
	}
	if lazyProbes != eagerProbes {
		t.Logf("%s %.50q: index probes %d on the fly, %d eager", net.Name, text, lazyProbes, eagerProbes)
	}
}

// TestDifferentialCounterIdentity pins the strongest form of the
// on-the-fly contract on the differential corpus: not just equal results,
// equal saturation work. Outside -short it also covers Table 1 rows 3 and
// 6 on the >250k-rule NORDUnet configuration.
func TestDifferentialCounterIdentity(t *testing.T) {
	for _, c := range diffCorpus(t) {
		checkCounterIdentity(t, c.net, c.text)
	}
	if testing.Short() {
		return
	}
	s := gen.Nordunet(gen.NordOpts{Services: 70, EdgeRouters: 31, Seed: 1})
	qs := s.Table1Queries()
	for _, i := range []int{2, 5} {
		checkCounterIdentity(t, s.Net, qs[i].Text)
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
// the nordunet-svc-250k ladder rung. The on-the-fly product promises
// byte-identity, so its run must serialise identically to the eager one on
// a dataplane of this size, where index packing and arena reuse actually
// engage. Two of the six Table 1 queries keep the runtime
// test-suite-friendly; the bench ladder covers the full set.
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
			t.Fatalf("%q: eager: %v", text, err)
		}
		want := marshalResult(t, base)
		lazy, err := engine.VerifyText(s.Net, text, engine.Options{})
		if err != nil {
			t.Fatalf("%q: on the fly: %v", text, err)
		}
		if got := marshalResult(t, lazy); !bytes.Equal(got, want) {
			t.Errorf("%q: on-the-fly result differs from eager at paper scale", text)
		}
		t.Logf("%.50q: eager %d rules, generated %d", text, base.Stats.OverRules, lazy.Stats.OverRulesGenerated)
	}
}

// TestSessionCacheVerifiesRequestedOverlay verifies one scenario overlay
// through a session cache last used for another overlay of the same base:
// the cache must translate the overlay it is asked for, so each run renders
// exactly what a cache-less eager verify of that overlay renders (timings
// aside), and matches the default on-the-fly verify in every stable field.
func TestSessionCacheVerifiesRequestedOverlay(t *testing.T) {
	re := gen.RunningExample()
	overlay := func(cmd string) *network.Network {
		s := scenario.NewSession(re.Network)
		defer s.Close()
		if _, err := s.ApplyText(cmd); err != nil {
			t.Fatal(err)
		}
		return s.Overlay()
	}
	nets := []*network.Network{overlay("fail v2.oe4#v3.ie4"), overlay("fail v0.oe1#v2.ie1")}
	for i := 0; i < 5; i++ {
		qt := phi(i)
		// One compiled query, so every cached run hits the same entry.
		q, err := query.Parse(qt, re.Network)
		if err != nil {
			t.Fatal(err)
		}
		render := func(net *network.Network, opts engine.Options) cli.ResultJSON {
			t.Helper()
			res, err := engine.Verify(net, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			rj := cli.ToJSON(net, qt, res)
			rj.TimingMS = cli.Timings{}
			return rj
		}
		cache := translate.NewSessionCache(re.Network)
		for _, n := range []int{1, 0, 1, 0} {
			got := render(nets[n], engine.Options{Cache: cache})
			eager := render(nets[n], engine.Options{NoSlice: true})
			if !reflect.DeepEqual(got, eager) {
				t.Errorf("φ%d on overlay %d: cached %+v, cache-less eager %+v", i, n, got, eager)
			}
			if lazy := render(nets[n], engine.Options{}); !reflect.DeepEqual(got.Stable(), lazy.Stable()) {
				t.Errorf("φ%d on overlay %d: cached %+v, cache-less %+v", i, n, got, lazy)
			}
		}
		if st := cache.Stats(); st.Entries == 0 || st.Hits != 0 {
			t.Errorf("φ%d: cache stats %+v, want entries and no hits across alternating overlays", i, st)
		}
	}
}
