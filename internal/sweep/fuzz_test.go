package sweep

import (
	"fmt"
	"reflect"
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/scenario"
)

// FuzzSweepEnumerate drives the enumeration over randomly generated zoo
// networks, asserting the properties every sweep depends on: the scenario
// count is exactly C(n,1) (+ C(n,2) at depth 2) for n links, and so is
// the count Run's MaxCells check takes from space before anything is
// allocated, no failure set appears twice, a second enumeration is
// structurally identical, and every emitted scenario compiles into a
// delta stack that applies cleanly — in particular no delta ever
// references a nonexistent link.
func FuzzSweepEnumerate(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(2))
	f.Add(int64(7), uint8(10), uint8(1))
	f.Add(int64(42), uint8(4), uint8(2))
	f.Add(int64(-3), uint8(15), uint8(1))

	f.Fuzz(func(t *testing.T, seed int64, routers, depth uint8) {
		nr := 4 + int(routers%12)
		d := 1 + int(depth%2)
		syn := gen.Zoo(gen.ZooOpts{Routers: nr, Seed: seed, Protection: true})
		g := syn.Net.Topo
		n := g.NumLinks()

		scs, err := Enumerate(g, d)
		if err != nil {
			t.Fatal(err)
		}
		want := n
		if d == 2 {
			want += n * (n - 1) / 2
		}
		if len(scs) != want {
			t.Fatalf("%d scenarios for %d links at depth %d, want %d", len(scs), n, d, want)
		}
		if _, total, err := space(g, d); err != nil || total != len(scs) {
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

		again, err := Enumerate(g, d)
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
