package translate_test

import (
	"reflect"
	"sync"
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/network"
	"aalwines/internal/routing"
	"aalwines/internal/translate"
	"aalwines/internal/weight"
)

// sameSystem asserts that two builds of the same (network, query, options)
// produced byte-identical pushdown systems: rules in the same order with
// the same states, symbols, weights and tags, the same state count and
// final specification.
func sameSystem(t *testing.T, ctx string, got, want *translate.System) {
	t.Helper()
	if got.PDS.NumStates != want.PDS.NumStates {
		t.Errorf("%s: NumStates = %d, want %d", ctx, got.PDS.NumStates, want.PDS.NumStates)
	}
	if !reflect.DeepEqual(got.PDS.Rules, want.PDS.Rules) {
		t.Errorf("%s: rules differ (%d vs %d)", ctx, len(got.PDS.Rules), len(want.PDS.Rules))
	}
	if !reflect.DeepEqual(got.FinalStates, want.FinalStates) {
		t.Errorf("%s: final states differ", ctx)
	}
	if got.RulesBeforeReduction != want.RulesBeforeReduction {
		t.Errorf("%s: RulesBeforeReduction = %d, want %d",
			ctx, got.RulesBeforeReduction, want.RulesBeforeReduction)
	}
}

func optionMatrix() []translate.Options {
	spec := weight.Spec{{{Coeff: 1, Q: weight.Hops}}}
	return []translate.Options{
		{Mode: translate.Over},
		{Mode: translate.Under},
		{Mode: translate.Over, NoReductions: true},
		{Mode: translate.Over, Spec: spec},
		{Mode: translate.Under, Spec: spec},
	}
}

// TestBuildIncrementalMatchesBuild checks the incremental builder's core
// contract on both an all-rebuild (cold store) and an all-splice (warm
// store) pass: the assembled system is indistinguishable from a plain
// Build.
func TestBuildIncrementalMatchesBuild(t *testing.T) {
	re := gen.RunningExample()
	queries := []string{
		"<ip> [.#v0] .* [v3#.] <ip> 0",
		"<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
		"<ip> [.#v0] .* [v3#.] <ip> 2",
	}
	for _, qt := range queries {
		q := mustParse(t, qt, re.Network)
		for _, opts := range optionMatrix() {
			want := translate.Build(re.Network, q, opts)
			store := translate.NewBlockStore()

			cold, st := translate.BuildIncremental(re.Network, q, opts, store)
			nKeys := len(re.Network.Routing.Keys())
			if st.BlocksRebuilt != nKeys || st.BlocksReused != 0 {
				t.Errorf("cold build: stats = %+v, want %d rebuilt", st, nKeys)
			}
			sameSystem(t, "cold "+qt, cold, want)

			warm, st := translate.BuildIncremental(re.Network, q, opts, store)
			if st.BlocksReused != nKeys || st.BlocksRebuilt != 0 {
				t.Errorf("warm build: stats = %+v, want %d reused", st, nKeys)
			}
			sameSystem(t, "warm "+qt, warm, want)
		}
	}
}

// TestBuildIncrementalZoo repeats the equivalence check on a synthesised
// zoo network with protection tunnels — the workload the scenario bench
// measures.
func TestBuildIncrementalZoo(t *testing.T) {
	s := gen.Zoo(gen.ZooOpts{Routers: 16, Seed: 7, Protection: true})
	for _, gq := range s.Queries(6, 7) {
		q := mustParse(t, gq.Text, s.Net)
		opts := translate.Options{Mode: translate.Over}
		want := translate.Build(s.Net, q, opts)
		store := translate.NewBlockStore()
		cold, _ := translate.BuildIncremental(s.Net, q, opts, store)
		sameSystem(t, "cold "+gq.Text, cold, want)
		warm, st := translate.BuildIncremental(s.Net, q, opts, store)
		if st.BlocksRebuilt != 0 {
			t.Errorf("warm build rebuilt %d blocks", st.BlocksRebuilt)
		}
		sameSystem(t, "warm "+gq.Text, warm, want)
	}
}

// withGroups returns an overlay of base in which victim's groups are
// replaced by gs (nil removes the key). Every other key shares base's group
// slice, as a scenario overlay does.
func withGroups(base *network.Network, victim routing.Key, gs routing.Groups) *network.Network {
	ov := &network.Network{
		Name:    base.Name,
		Topo:    base.Topo,
		Labels:  base.Labels,
		Routing: routing.NewTable(),
	}
	for _, k := range base.Routing.Keys() {
		kgs := base.Routing.Lookup(k.In, k.Top)
		if k == victim {
			kgs = gs
		}
		ov.Routing.SetGroups(k.In, k.Top, kgs)
	}
	return ov
}

// dropBackup returns an overlay of net in which the first key with a
// backup group loses its lowest-priority group, as a delta removing a
// backup entry would, and that key.
func dropBackup(t *testing.T, net *network.Network) (*network.Network, routing.Key) {
	t.Helper()
	for _, k := range net.Routing.Keys() {
		if gs := net.Routing.Lookup(k.In, k.Top); len(gs) > 1 {
			return withGroups(net, k, gs[:len(gs)-1]), k
		}
	}
	t.Fatal("no routing key has a backup group")
	return nil, routing.Key{}
}

// TestBuildIncrementalPartialInvalidation mutates one routing key between
// builds and checks that (a) only that key's block is rebuilt and (b) the
// result matches a from-scratch build of the mutated network.
func TestBuildIncrementalPartialInvalidation(t *testing.T) {
	re := gen.RunningExample()
	q := mustParse(t, "<ip> [.#v0] .* [v3#.] <ip> 2", re.Network)
	opts := translate.Options{Mode: translate.Over}

	store := translate.NewBlockStore()
	translate.BuildIncremental(re.Network, q, opts, store)

	mutated, _ := dropBackup(t, re.Network)
	want := translate.Build(mutated, q, opts)
	got, st := translate.BuildIncremental(mutated, q, opts, store)
	sameSystem(t, "mutated", got, want)
	if st.BlocksRebuilt != 1 {
		t.Errorf("mutating one key rebuilt %d blocks, want 1", st.BlocksRebuilt)
	}
	if want := len(mutated.Routing.Keys()) - 1; st.BlocksReused != want {
		t.Errorf("reused %d blocks, want %d", st.BlocksReused, want)
	}

	// Undo: the original groups still match their retained blocks, so the
	// original network is a full-splice build.
	wantOrig := translate.Build(re.Network, q, opts)
	back, st := translate.BuildIncremental(re.Network, q, opts, store)
	if st.BlocksRebuilt != 0 {
		t.Errorf("undo rebuilt %d blocks, want 0", st.BlocksRebuilt)
	}
	sameSystem(t, "undo", back, wantOrig)
}

// TestSessionCacheGet exercises the assembled-system layer: repeated gets
// for one overlay hit, a get for another overlay reassembles
// incrementally, results always match a plain Build of the requested
// overlay, and a network with another topology is not served.
func TestSessionCacheGet(t *testing.T) {
	re := gen.RunningExample()
	q := mustParse(t, "<ip> [.#v0] .* [v3#.] <ip> 1", re.Network)
	opts := translate.Options{Mode: translate.Over}

	sc := translate.NewSessionCache(re.Network)
	sys1, init1, ok := sc.Get(re.Network, q, opts)
	if !ok {
		t.Fatal("session cache must serve its base network")
	}
	sameSystem(t, "base", sys1, translate.Build(re.Network, q, opts))
	if init1 == nil {
		t.Fatal("nil init automaton")
	}
	sys2, init2, _ := sc.Get(re.Network, q, opts)
	if sys2 != sys1 {
		t.Error("a get for the same overlay must return the shared system")
	}
	if init2 == init1 {
		t.Error("init automata must be private clones")
	}
	if st := sc.Stats(); st.Hits != 1 || st.Gets != 2 {
		t.Errorf("stats = %+v, want 1 hit of 2 gets", st)
	}

	// Another overlay with the same routing content (the degenerate delta)
	// reassembles entirely from the block store.
	same := *re.Network
	sys3, _, _ := sc.Get(&same, q, opts)
	if sys3.Net != &same {
		t.Error("reassembled system is not bound to the requested overlay")
	}
	sameSystem(t, "overlay", sys3, translate.Build(&same, q, opts))
	if bs := sc.BlockStats(); bs.BlocksReused != len(re.Network.Routing.Keys()) {
		t.Errorf("block stats = %+v, want every key reused", bs)
	}

	other := gen.Zoo(gen.ZooOpts{Routers: 6, Seed: 1}).Net
	if _, _, ok := sc.Get(other, q, opts); ok {
		t.Error("session cache served a network with another topology")
	}
}

// TestSessionCacheOverlaysInterleaved pins that a Get answers for the
// overlay it is asked for, whatever overlay the cache served last: gets
// for two overlays of one base, interleaved and concurrent (run under
// -race), each return a System bound to the requested overlay and
// identical to a fresh eager Build of it.
func TestSessionCacheOverlaysInterleaved(t *testing.T) {
	re := gen.RunningExample()
	q := mustParse(t, "<ip> [.#v0] .* [v3#.] <ip> 1", re.Network)
	opts := translate.Options{Mode: translate.Over}
	a, victim := dropBackup(t, re.Network)
	var b *network.Network
	for _, k := range re.Network.Routing.Keys() {
		if k != victim {
			b = withGroups(re.Network, k, nil) // a key vanishes
			break
		}
	}
	overlays := []*network.Network{a, b}
	want := []*translate.System{
		translate.Build(overlays[0], q, opts),
		translate.Build(overlays[1], q, opts),
	}
	sc := translate.NewSessionCache(re.Network)
	check := func(i int) {
		sys, init, ok := sc.Get(overlays[i], q, opts)
		if !ok || init == nil {
			t.Errorf("overlay %d not served", i)
			return
		}
		if sys.Net != overlays[i] {
			t.Errorf("get for overlay %d returned a system for another network", i)
		}
		sameSystem(t, "overlay "+string(rune('A'+i)), sys, want[i])
	}
	for round := 0; round < 4; round++ {
		check(round % 2)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				check((w + i) % 2)
			}
		}(w)
	}
	wg.Wait()
}
