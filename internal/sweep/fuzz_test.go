package sweep

import (
	"fmt"
	"reflect"
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/scenario"
	"aalwines/internal/topology"
)

// FuzzSweepEnumerate drives the enumeration over randomly generated zoo
// networks and failure-space restrictions, asserting the properties every
// sweep depends on: the scenario count is exactly C(n,1) (+ C(n,2) at
// depth 2) for n live links, and so is the count Run's MaxCells check
// takes from space before anything is allocated, no failure set appears
// twice, a second
// enumeration is structurally identical, and every emitted scenario
// compiles into a delta stack that applies cleanly — in particular no
// delta ever references an excluded (drained-router) or nonexistent link.
func FuzzSweepEnumerate(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(2), uint8(0))
	f.Add(int64(7), uint8(10), uint8(1), uint8(3))
	f.Add(int64(42), uint8(4), uint8(2), uint8(255))
	f.Add(int64(-3), uint8(15), uint8(1), uint8(1))

	f.Fuzz(func(t *testing.T, seed int64, routers, depth, drain uint8) {
		nr := 4 + int(routers%12)
		d := 1 + int(depth%2)
		syn := gen.Zoo(gen.ZooOpts{Routers: nr, Seed: seed, Protection: true})
		g := syn.Net.Topo

		// Odd drain selectors exclude one router's incident links, modelling
		// a sweep over a base what-if state where that router is drained.
		excluded := map[topology.LinkID]bool{}
		var exclude func(topology.LinkID) bool
		if drain%2 == 1 {
			dr := topology.RouterID(int(drain) % g.NumRouters())
			for _, l := range g.Routers[dr].Out() {
				excluded[l] = true
			}
			for _, l := range g.Routers[dr].In() {
				excluded[l] = true
			}
			exclude = func(l topology.LinkID) bool { return excluded[l] }
		}
		live := 0
		for l := 0; l < g.NumLinks(); l++ {
			if !excluded[topology.LinkID(l)] {
				live++
			}
		}

		scs, err := Enumerate(g, d, exclude)
		if err != nil {
			t.Fatal(err)
		}
		want := live
		if d == 2 {
			want += live * (live - 1) / 2
		}
		if len(scs) != want {
			t.Fatalf("%d scenarios for %d live links at depth %d, want %d", len(scs), live, d, want)
		}
		if _, total, err := space(g, d, exclude); err != nil || total != len(scs) {
			t.Fatalf("space counts %d scenarios (err %v), Enumerate lists %d", total, err, len(scs))
		}
		seen := map[string]bool{}
		for i, sc := range scs {
			if sc.ID != i {
				t.Fatalf("scenario %d carries ID %d", i, sc.ID)
			}
			for j, l := range sc.Links {
				if l < 0 || int(l) >= g.NumLinks() {
					t.Fatalf("scenario %d references nonexistent link %d", i, l)
				}
				if excluded[l] {
					t.Fatalf("scenario %d references excluded link %d", i, l)
				}
				if j > 0 && sc.Links[j-1] >= l {
					t.Fatalf("scenario %d links not strictly ascending: %v", i, sc.Links)
				}
			}
			k := fmt.Sprint(sc.Links)
			if seen[k] {
				t.Fatalf("duplicate failure set %v", sc.Links)
			}
			seen[k] = true
		}

		again, err := Enumerate(g, d, exclude)
		if err != nil || !reflect.DeepEqual(scs, again) {
			t.Fatalf("enumeration not deterministic (err %v)", err)
		}

		// A sample of scenarios must compile to delta stacks a session
		// accepts; SetStack validates every delta against the base network.
		s := scenario.NewSession(syn.Net)
		defer s.Close()
		step := len(scs)/64 + 1
		for i := 0; i < len(scs); i += step {
			if _, err := s.SetStack(scs[i].Deltas(g)); err != nil {
				t.Fatalf("scenario %v does not apply: %v", scs[i].Links, err)
			}
		}
	})
}
