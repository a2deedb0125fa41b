package scenario

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"aalwines/internal/batch"
	"aalwines/internal/engine"
	"aalwines/internal/gen"
	"aalwines/internal/obs"
	"aalwines/internal/query"
	"aalwines/internal/routing"
	"aalwines/internal/topology"
)

func TestParseDeltaRoundTrip(t *testing.T) {
	cmds := []string{
		"fail v0.oe1#v2.ie1",
		"restore v0.oe1#v2.ie1",
		"drain v2",
		"undrain v2",
		"add-entry v0.oe1#v2.ie1 s40 2 v2.oe5#v4.ie5 swap(s43);push(30)",
		"add-entry v0.oe1#v2.ie1 s40 1 v2.oe4#v3.ie4",
		"remove-entry v0.oe1#v2.ie1 s40 2 v2.oe5#v4.ie5",
		"swap-priority v0.oe1#v2.ie1 s40 1 2",
	}
	for _, cmd := range cmds {
		d, err := ParseDelta(cmd)
		if err != nil {
			t.Fatalf("ParseDelta(%q): %v", cmd, err)
		}
		if d.Canon() != cmd {
			t.Errorf("Canon round trip: %q -> %q", cmd, d.Canon())
		}
		d2, err := ParseDelta(d.Canon())
		if err != nil || d2 != d {
			t.Errorf("reparse of %q: %+v err %v", cmd, d2, err)
		}
	}
	for _, bad := range []string{
		"", "explode v0", "fail", "add-entry a b c",
		"add-entry a b 0 c", "add-entry a b 1 c frobnicate(x)",
		"swap-priority a b 1 x",
	} {
		if _, err := ParseDelta(bad); err == nil {
			t.Errorf("ParseDelta(%q) succeeded, want error", bad)
		}
	}
}

func TestApplyValidates(t *testing.T) {
	re := gen.RunningExample()
	s := NewSession(re.Network)
	defer s.Close()
	for _, bad := range []string{
		"fail nosuch#link",
		"drain nowhere",
		"add-entry v0.oe1#v2.ie1 nolabel 1 v2.oe4#v3.ie4",
		"add-entry v0.oe1#v2.ie1 s40 1 v2.oe4#v3.ie4 swap(nolabel)",
		"swap-priority v0.oe1#v2.ie1 s40 2 2",
	} {
		if _, err := s.ApplyText(bad); err == nil {
			t.Errorf("ApplyText(%q) succeeded, want error", bad)
		}
	}
	if len(s.Deltas()) != 0 {
		t.Fatal("failed applies must not land on the stack")
	}
	seq, err := s.ApplyText("fail v2.oe4#v3.ie4")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Deltas(); len(got) != 1 || got[0].Seq != seq {
		t.Fatalf("stack = %+v", got)
	}
	if err := s.Undo(seq + 99); err == nil {
		t.Error("Undo of unknown seq succeeded")
	}
	if err := s.Undo(seq); err != nil {
		t.Fatal(err)
	}
	if s.Overlay() != re.Network {
		t.Error("empty stack must serve the base network itself")
	}
}

// TestPriorityBounds guards materialize against unvalidated priority
// slots: a directly constructed Delta with a zero priority must be
// rejected (not panic with index-out-of-range in applyEdit), and a huge
// priority must be rejected before the group list is padded out to it.
func TestPriorityBounds(t *testing.T) {
	re := gen.RunningExample()
	s := NewSession(re.Network)
	defer s.Close()

	for _, d := range []Delta{
		{Kind: AddEntry, In: "v0.oe1#v2.ie1", Top: "s40", Out: "v2.oe4#v3.ie4"}, // Priority left at 0
		{Kind: AddEntry, In: "v0.oe1#v2.ie1", Top: "s40", Priority: 2_000_000_000, Out: "v2.oe4#v3.ie4"},
		{Kind: RemoveEntry, In: "v0.oe1#v2.ie1", Top: "s40", Priority: MaxPriority + 1, Out: "v2.oe4#v3.ie4"},
		{Kind: SwapPriority, In: "v0.oe1#v2.ie1", Top: "s40", Priority: 1, Priority2: 1 << 30},
		{Kind: SwapPriority, In: "v0.oe1#v2.ie1", Top: "s40", Priority2: 2}, // Priority left at 0
	} {
		if _, err := s.Apply(d); err == nil {
			t.Errorf("Apply(%s) succeeded, want out-of-range error", d.Canon())
		}
	}
	if len(s.Deltas()) != 0 {
		t.Fatal("rejected deltas must not land on the stack")
	}
	for _, bad := range []string{
		"add-entry v0.oe1#v2.ie1 s40 2000000000 v2.oe4#v3.ie4",
		"swap-priority v0.oe1#v2.ie1 s40 1 2000000000",
	} {
		if _, err := ParseDelta(bad); err == nil {
			t.Errorf("ParseDelta(%q) succeeded, want error", bad)
		}
	}
	// The cap still leaves room for deep TE stacks.
	if _, err := s.Apply(Delta{Kind: AddEntry, In: "v0.oe1#v2.ie1", Top: "s40",
		Priority: MaxPriority, Out: "v2.oe4#v3.ie4"}); err != nil {
		t.Fatalf("Apply at MaxPriority: %v", err)
	}
}

// TestApplyAllAtomic checks the batch-apply contract: a batch with one
// invalid delta applies nothing and names the failing position, a valid
// batch applies everything, and the result is indistinguishable from
// sequential Apply calls.
func TestApplyAllAtomic(t *testing.T) {
	re := gen.RunningExample()
	s := NewSession(re.Network)
	defer s.Close()

	_, err := s.ApplyAllText([]string{"fail v2.oe4#v3.ie4", "drain nowhere"})
	if err == nil {
		t.Fatal("mixed batch succeeded, want error")
	}
	var ae *ApplyError
	if !errors.As(err, &ae) || ae.Index != 1 || ae.Cmd != "drain nowhere" {
		t.Fatalf("error = %v, want *ApplyError at index 1", err)
	}
	if len(s.Deltas()) != 0 || s.Overlay() != re.Network {
		t.Fatal("failed batch must leave the session untouched")
	}

	seqs, err := s.ApplyAllText([]string{"fail v2.oe4#v3.ie4", "drain v4"})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0]+1 != seqs[1] {
		t.Fatalf("seqs = %v", seqs)
	}
	s2 := NewSession(re.Network)
	defer s2.Close()
	for _, cmd := range []string{"fail v2.oe4#v3.ie4", "drain v4"} {
		if _, err := s2.ApplyText(cmd); err != nil {
			t.Fatal(err)
		}
	}
	if s.Fingerprint() != s2.Fingerprint() {
		t.Fatalf("batch fingerprint %x != sequential %x", s.Fingerprint(), s2.Fingerprint())
	}
}

// TestVerifySnapshotOverlay checks VerifyBatchSnapshot hands back the
// overlay the run was pinned to, agreeing with Verify at rest.
func TestVerifySnapshotOverlay(t *testing.T) {
	re := gen.RunningExample()
	s := NewSession(re.Network)
	defer s.Close()
	if _, err := s.ApplyText("fail v2.oe4#v3.ie4"); err != nil {
		t.Fatal(err)
	}
	const qt = "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 1"
	rs, overlay := s.VerifyBatchSnapshot(context.Background(), []string{qt}, batch.Options{})
	if rs[0].Err != nil {
		t.Fatal(rs[0].Err)
	}
	if overlay != s.Overlay() {
		t.Error("VerifyBatchSnapshot must return the overlay the run was pinned to")
	}
	want, err := s.Verify(context.Background(), qt, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameVerify(t, "snapshot vs verify", rs[0].Res, want)
}

// sameVerify asserts two engine results are byte-identical in everything
// the verdict contract covers: verdict, witness trace, failed set, weight.
func sameVerify(t *testing.T, ctx string, got, want engine.Result) {
	t.Helper()
	if got.Verdict != want.Verdict {
		t.Errorf("%s: verdict %v, want %v", ctx, got.Verdict, want.Verdict)
		return
	}
	if !reflect.DeepEqual(got.Trace, want.Trace) {
		t.Errorf("%s: traces differ:\n  got  %v\n  want %v", ctx, got.Trace, want.Trace)
	}
	if !reflect.DeepEqual(got.Failed, want.Failed) {
		t.Errorf("%s: failed sets differ: got %v want %v", ctx, got.Failed, want.Failed)
	}
	if !reflect.DeepEqual(got.Weight, want.Weight) {
		t.Errorf("%s: weights differ: got %v want %v", ctx, got.Weight, want.Weight)
	}
}

// checkDifferential verifies each query through the session and against a
// from-scratch build of the materialized network, early-accept both on and
// off, and requires byte-identical results.
func checkDifferential(t *testing.T, s *Session, queries []string) {
	t.Helper()
	fresh := s.MaterializeFresh()
	for _, qt := range queries {
		q, err := query.Parse(qt, fresh)
		if err != nil {
			t.Fatalf("parse %q: %v", qt, err)
		}
		for _, noEarly := range []bool{false, true} {
			opts := engine.Options{NoEarlyAccept: noEarly}
			got, gerr := s.Verify(context.Background(), qt, opts)
			want, werr := engine.Verify(fresh, q, opts)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%q noEarly=%v: err %v vs %v", qt, noEarly, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			sameVerify(t, qt, got, want)
		}
	}
}

func TestSessionDifferentialRunningExample(t *testing.T) {
	re := gen.RunningExample()
	queries := []string{
		"<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
		"<s40 ip> [.#v0] .* [v3#.] <smpls ip> 1",
		"<s40 ip> [.#v0] .* [v3#.] <smpls ip> 2",
		"<ip> [.#v0] .* [v3#.] <ip> 1",
	}
	stacks := [][]string{
		{},
		{"fail v2.oe4#v3.ie4"},
		{"fail v2.oe4#v3.ie4", "fail v2.oe5#v4.ie5"},
		{"drain v2"},
		{"drain v4", "undrain v4"},
		{"fail v0.oe2#v1.ie2", "restore v0.oe2#v1.ie2"},
		{"swap-priority v0.oe1#v2.ie1 s40 1 2"},
		{"remove-entry v0.oe1#v2.ie1 s40 1 v2.oe4#v3.ie4"},
		{"add-entry v0.oe1#v2.ie1 s40 1 v2.oe5#v4.ie5 swap(s43);push(30)"},
		{"fail v2.oe4#v3.ie4", "drain v1"},
	}
	for _, stack := range stacks {
		s := NewSession(re.Network)
		for _, cmd := range stack {
			if _, err := s.ApplyText(cmd); err != nil {
				t.Fatalf("apply %q: %v", cmd, err)
			}
		}
		checkDifferential(t, s, queries)
		// And after undoing the newest delta, if any.
		if ds := s.Deltas(); len(ds) > 0 {
			if err := s.Undo(ds[len(ds)-1].Seq); err != nil {
				t.Fatal(err)
			}
			checkDifferential(t, s, queries[:2])
		}
		s.Close()
	}
}

// TestSessionDifferentialRandomStacks drives randomly generated delta
// stacks over a synthesised zoo network and holds the same differential
// bar.
func TestSessionDifferentialRandomStacks(t *testing.T) {
	syn := gen.Zoo(gen.ZooOpts{Routers: 12, Seed: 3, Protection: true})
	var queries []string
	for _, gq := range syn.Queries(4, 3) {
		queries = append(queries, gq.Text)
	}
	g := syn.Net.Topo
	rng := rand.New(rand.NewSource(11))
	randLink := func() string {
		return g.LinkName(topology.LinkID(rng.Intn(g.NumLinks())))
	}
	randRouter := func() string {
		return g.Routers[rng.Intn(g.NumRouters())].Name
	}
	for trial := 0; trial < 8; trial++ {
		s := NewSession(syn.Net)
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			var cmd string
			switch rng.Intn(4) {
			case 0, 1:
				cmd = "fail " + randLink()
			case 2:
				cmd = "drain " + randRouter()
			default:
				cmd = "restore " + randLink()
			}
			if _, err := s.ApplyText(cmd); err != nil {
				t.Fatalf("apply %q: %v", cmd, err)
			}
		}
		checkDifferential(t, s, queries)
		s.Close()
	}
}

// TestCacheInvalidationUnderMutation checks rule-block reuse through the
// scenario obs counters: a verify after a delta rebuilds exactly the
// overlay keys whose groups differ from every version the session has
// translated before, undo rebuilds nothing, and repeat verifies are pure
// assembled-system hits with the block counters flat.
func TestCacheInvalidationUnderMutation(t *testing.T) {
	re := gen.RunningExample()
	qt := "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0"
	ctx := context.Background()

	cReused := obs.GetCounter("scenario_rule_blocks_reused_total")
	cRebuilt := obs.GetCounter("scenario_rule_blocks_rebuilt_total")
	cHits := obs.GetCounter("scenario_overlay_cache_hits_total")

	s := NewSession(re.Network)
	defer s.Close()

	// seen models the block store: every group version translated so far,
	// per key.
	seen := map[routing.Key][]routing.Groups{}
	// verify runs the query and checks the block counters moved by exactly
	// the model's rebuilt and reused counts.
	verify := func(label string) (rebuilt int) {
		t.Helper()
		overlay := s.Overlay()
		reused := 0
		for _, k := range overlay.Routing.Keys() {
			gs := overlay.Routing.Lookup(k.In, k.Top)
			hit := false
			for _, old := range seen[k] {
				hit = hit || old.Equal(gs)
			}
			if hit {
				reused++
			} else {
				rebuilt++
				seen[k] = append(seen[k], gs)
			}
		}
		re0, rb0 := cReused.Value(), cRebuilt.Value()
		res, err := s.Verify(ctx, qt, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.UnderUsed {
			t.Fatal("test query must be decided by the over-approximation alone")
		}
		if d := cRebuilt.Value() - rb0; d != int64(rebuilt) {
			t.Errorf("%s: rebuilt %d blocks, want %d", label, d, rebuilt)
		}
		if d := cReused.Value() - re0; d != int64(reused) {
			t.Errorf("%s: spliced %d blocks, want %d", label, d, reused)
		}
		t.Logf("%s: rebuilt %d, reused %d blocks", label, rebuilt, reused)
		return rebuilt
	}
	// repeat checks a second verify is a pure assembled-system hit.
	repeat := func(label string) {
		t.Helper()
		re0, rb0, h0 := cReused.Value(), cRebuilt.Value(), cHits.Value()
		if _, err := s.Verify(ctx, qt, engine.Options{}); err != nil {
			t.Fatal(err)
		}
		if cRebuilt.Value() != rb0 || cReused.Value() != re0 {
			t.Errorf("%s: repeat verify touched rule blocks", label)
		}
		if cHits.Value() != h0+1 {
			t.Errorf("%s: repeat verify was not an overlay cache hit", label)
		}
	}

	// Cold: every key's block is rebuilt.
	if n := verify("cold"); n != len(re.Network.Routing.Keys()) {
		t.Errorf("cold verify rebuilt %d blocks, want every key", n)
	}
	repeat("cold")

	// Each delta rebuilds at least the key it changes, and its undo returns
	// to groups the store still holds.
	for _, cmd := range []string{"fail " + re.Network.Topo.LinkName(re.Links["e4"]), "drain v2"} {
		seq, err := s.ApplyText(cmd)
		if err != nil {
			t.Fatal(err)
		}
		if n := verify(cmd); n == 0 {
			t.Errorf("%s: rebuilt no block", cmd)
		}
		repeat(cmd)
		if err := s.Undo(seq); err != nil {
			t.Fatal(err)
		}
		if n := verify("undo " + cmd); n != 0 {
			t.Errorf("undo %s: rebuilt %d blocks, want 0", cmd, n)
		}
		repeat("undo " + cmd)
	}
	if s.CacheStats().Hits < 4 {
		t.Errorf("session cache stats = %+v, want >= 4 hits", s.CacheStats())
	}
}

// TestMaterializeFreshIsDeepCopy guards the differential baseline: the
// fresh copy must not share routing structure with base or overlay.
func TestMaterializeFreshIsDeepCopy(t *testing.T) {
	re := gen.RunningExample()
	s := NewSession(re.Network)
	defer s.Close()
	if _, err := s.ApplyText("fail v2.oe4#v3.ie4"); err != nil {
		t.Fatal(err)
	}
	fresh := s.MaterializeFresh()
	overlay := s.Overlay()
	if fresh == overlay || fresh.Routing == overlay.Routing {
		t.Fatal("fresh materialization shares the overlay table")
	}
	ok, ob := fresh.Routing.Keys(), overlay.Routing.Keys()
	if !reflect.DeepEqual(ok, ob) {
		t.Fatalf("key sets differ: %v vs %v", ok, ob)
	}
	for _, k := range ok {
		fg := fresh.Routing.Lookup(k.In, k.Top)
		og := overlay.Routing.Lookup(k.In, k.Top)
		if !reflect.DeepEqual(fg, og) {
			t.Errorf("key %v: groups differ", k)
		}
	}
}

// TestSetStack checks the atomic stack replacement the resilience sweep
// steps with: any SetStack result must be indistinguishable (fingerprint,
// routing content, differential verify) from a fresh session that ApplyAll'd
// the same deltas, an empty stack serves the base network itself, and a
// stack with an invalid delta is rejected wholesale.
func TestSetStack(t *testing.T) {
	re := gen.RunningExample()
	queries := []string{
		"<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
		"<ip> [.#v0] .* [v3#.] <ip> 1",
	}
	stacks := [][]string{
		{"fail v2.oe4#v3.ie4"},
		{"fail v2.oe4#v3.ie4", "fail v2.oe5#v4.ie5"},
		{"fail v2.oe5#v4.ie5"}, // shares no delta with the previous stack
		{"drain v2"},
		{},
		{"fail v0.oe2#v1.ie2", "drain v4"},
	}
	s := NewSession(re.Network)
	defer s.Close()
	for _, stack := range stacks {
		ds := make([]Delta, len(stack))
		for i, cmd := range stack {
			d, err := ParseDelta(cmd)
			if err != nil {
				t.Fatal(err)
			}
			ds[i] = d
		}
		if _, err := s.SetStack(ds); err != nil {
			t.Fatalf("SetStack(%v): %v", stack, err)
		}
		if got := s.Deltas(); len(got) != len(ds) {
			t.Fatalf("stack depth %d after SetStack(%v)", len(got), stack)
		}
		ref := NewSession(re.Network)
		if _, err := ref.ApplyAll(ds); err != nil {
			t.Fatal(err)
		}
		if s.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("SetStack(%v) fingerprint %x, fresh ApplyAll %x",
				stack, s.Fingerprint(), ref.Fingerprint())
		}
		ref.Close()
		if len(ds) == 0 && s.Overlay() != re.Network {
			t.Fatal("empty SetStack must serve the base network itself")
		}
		checkDifferential(t, s, queries)
	}

	// Rejection is atomic: the whole stack is validated before anything is
	// dropped, so the session keeps its current stack on error.
	if _, err := s.SetStack([]Delta{{Kind: FailLink, Link: "v2.oe4#v3.ie4"}}); err != nil {
		t.Fatal(err)
	}
	fpBefore := s.Fingerprint()
	bad := []Delta{
		{Kind: FailLink, Link: "v2.oe5#v4.ie5"},
		{Kind: FailLink, Link: "nosuch#link"},
	}
	_, err := s.SetStack(bad)
	var ae *ApplyError
	if !errors.As(err, &ae) || ae.Index != 1 {
		t.Fatalf("SetStack with invalid delta: err %v, want *ApplyError at index 1", err)
	}
	if s.Fingerprint() != fpBefore || len(s.Deltas()) != 1 {
		t.Fatal("failed SetStack must leave the session unchanged")
	}
	checkDifferential(t, s, queries[:1])
}

// TestResolveLinkBuiltins resolves every link of each builtin network by
// its own LinkName: the first link in link order with that name.
func TestResolveLinkBuiltins(t *testing.T) {
	nets := map[string]*topology.Graph{
		"running-example": gen.RunningExample().Network.Topo,
		"zoo":             gen.Zoo(gen.ZooOpts{Routers: 16, Seed: 3, Protection: true}).Net.Topo,
		"nordunet":        gen.Nordunet(gen.NordOpts{Services: 1, EdgeRouters: 6, Seed: 2}).Net.Topo,
		"fattree":         gen.FatTree(gen.FatTreeOpts{K: 4, Seed: 1}).Net.Topo,
		"rings":           gen.RingOfRings(gen.RingOfRingsOpts{Rings: 3, Seed: 1}).Net.Topo,
		"backbone":        gen.Backbone(gen.BackboneOpts{Pops: 6, Seed: 1}).Net.Topo,
	}
	for name, g := range nets {
		first := map[string]topology.LinkID{}
		for l := 0; l < g.NumLinks(); l++ {
			if _, ok := first[g.LinkName(topology.LinkID(l))]; !ok {
				first[g.LinkName(topology.LinkID(l))] = topology.LinkID(l)
			}
		}
		for l := 0; l < g.NumLinks(); l++ {
			ln := g.LinkName(topology.LinkID(l))
			got, err := resolveLink(g, ln)
			if err != nil {
				t.Fatalf("%s: %q: %v", name, ln, err)
			}
			if got != first[ln] {
				t.Fatalf("%s: %q resolves to link %d, want %d", name, ln, got, first[ln])
			}
		}
	}
}
