package topology

import (
	"testing"
)

// diamond builds a 4-router diamond: a -> b -> d, a -> c -> d, plus a
// parallel second link a -> b and a self-loop on d.
func diamond(t *testing.T) (*Graph, RouterID, RouterID, RouterID, RouterID) {
	t.Helper()
	g := New()
	a := g.AddRouter("a")
	b := g.AddRouter("b")
	c := g.AddRouter("c")
	d := g.AddRouter("d")
	g.MustAddLink(a, b, "eth0", "eth0", 1)
	g.MustAddLink(a, b, "eth1", "eth1", 5) // parallel
	g.MustAddLink(a, c, "eth2", "eth0", 1)
	g.MustAddLink(b, d, "eth2", "eth0", 1)
	g.MustAddLink(c, d, "eth1", "eth1", 10)
	g.MustAddLink(d, d, "lo", "lo", 0) // self loop
	return g, a, b, c, d
}

func TestAddRouterIdempotent(t *testing.T) {
	g := New()
	a := g.AddRouter("r1")
	b := g.AddRouter("r1")
	if a != b {
		t.Fatalf("duplicate AddRouter returned different IDs: %d vs %d", a, b)
	}
	if g.NumRouters() != 1 {
		t.Fatalf("NumRouters = %d, want 1", g.NumRouters())
	}
}

func TestMultigraphParallelLinks(t *testing.T) {
	g, a, b, _, _ := diamond(t)
	links := g.LinksBetween(a, b)
	if len(links) != 2 {
		t.Fatalf("LinksBetween(a,b) = %d links, want 2", len(links))
	}
}

func TestInterfaceLookup(t *testing.T) {
	g, a, b, _, _ := diamond(t)
	l := g.LinkOut(a, "eth0")
	if l == NoLink {
		t.Fatal("LinkOut(a, eth0) = NoLink")
	}
	if g.Target(l) != b {
		t.Fatalf("link target = %d, want %d", g.Target(l), b)
	}
	if got := g.LinkIn(b, "eth0"); got != l {
		t.Fatalf("LinkIn(b, eth0) = %d, want %d", got, l)
	}
	if got := g.LinkOut(a, "missing"); got != NoLink {
		t.Fatalf("LinkOut of unknown interface = %d, want NoLink", got)
	}
}

func TestDuplicateInterfaceRejected(t *testing.T) {
	g := New()
	a := g.AddRouter("a")
	b := g.AddRouter("b")
	g.MustAddLink(a, b, "e0", "e0", 1)
	if _, err := g.AddLink(a, b, "e0", "e9", 1); err == nil {
		t.Fatal("expected error on duplicate outgoing interface")
	}
	if _, err := g.AddLink(a, b, "e9", "e0", 1); err == nil {
		t.Fatal("expected error on duplicate incoming interface")
	}
}

func TestAddLinkUnknownRouter(t *testing.T) {
	g := New()
	a := g.AddRouter("a")
	if _, err := g.AddLink(a, RouterID(7), "", "", 1); err == nil {
		t.Fatal("expected error for unknown target router")
	}
}

func TestSelfLoop(t *testing.T) {
	g, _, _, _, d := diamond(t)
	loops := g.LinksBetween(d, d)
	if len(loops) != 1 || !g.Links[loops[0]].SelfLoop() {
		t.Fatalf("expected a self-loop on d, got %v", loops)
	}
}

func TestAdjacency(t *testing.T) {
	g, a, _, _, d := diamond(t)
	if got := len(g.Routers[a].Out()); got != 3 {
		t.Errorf("out-degree(a) = %d, want 3", got)
	}
	if got := len(g.Routers[d].In()); got != 3 { // b->d, c->d, d->d
		t.Errorf("in-degree(d) = %d, want 3", got)
	}
}

func TestShortestPathPrefersLowWeight(t *testing.T) {
	g, a, _, _, d := diamond(t)
	path := g.ShortestPathsFrom(a).To(d)
	if len(path) != 2 {
		t.Fatalf("path length = %d, want 2", len(path))
	}
	// Cheapest is a->b (w1) then b->d (w1), total 2; via c costs 11.
	if g.Links[path[0]].FromIfc != "eth0" {
		t.Errorf("first hop uses %s, want eth0 (the weight-1 parallel link)", g.Links[path[0]].FromIfc)
	}
	if g.Target(path[1]) != d {
		t.Errorf("path does not end at d")
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New()
	a := g.AddRouter("a")
	b := g.AddRouter("b")
	// b -> a only; a cannot reach b.
	g.MustAddLink(b, a, "", "", 1)
	if path := g.ShortestPathsFrom(a).To(b); path != nil {
		t.Fatalf("expected nil path, got %v", path)
	}
	pt := g.ShortestPathsFrom(a)
	if pt.Reachable(b) {
		t.Fatal("b reported reachable")
	}
}

func TestShortestPathToSelf(t *testing.T) {
	g, a, _, _, _ := diamond(t)
	if path := g.ShortestPathsFrom(a).To(a); path != nil {
		t.Fatalf("path to self = %v, want nil", path)
	}
	if d := g.ShortestPathsFrom(a).Dist(a); d != 0 {
		t.Fatalf("Dist(a,a) = %d, want 0", d)
	}
}

func TestShortestPathIgnoresSelfLoops(t *testing.T) {
	g, a, _, _, d := diamond(t)
	for _, l := range g.ShortestPathsFrom(a).To(d) {
		if g.Links[l].SelfLoop() {
			t.Fatal("shortest path uses a self-loop")
		}
	}
}

func TestLinkName(t *testing.T) {
	g, a, b, _, _ := diamond(t)
	l := g.LinksBetween(a, b)[0]
	if got := g.LinkName(l); got != "a.eth0#b.eth0" {
		t.Errorf("LinkName = %q", got)
	}
	g2 := New()
	x := g2.AddRouter("x")
	y := g2.AddRouter("y")
	l2 := g2.MustAddLink(x, y, "", "", 0)
	if got := g2.LinkName(l2); got != "x#y" {
		t.Errorf("LinkName (no ifc) = %q", got)
	}
}

func TestSetLocation(t *testing.T) {
	g := New()
	a := g.AddRouter("a")
	g.SetLocation(a, 46.5, 7.3)
	r := g.Routers[a]
	if !r.HasLoc || r.Lat != 46.5 || r.Lng != 7.3 {
		t.Errorf("location not recorded: %+v", r)
	}
}

func TestDistMonotoneAlongTree(t *testing.T) {
	g, a, _, _, _ := diamond(t)
	pt := g.ShortestPathsFrom(a)
	for r := range g.Routers {
		path := pt.To(RouterID(r))
		var sum uint64
		for _, l := range path {
			w := g.Links[l].Weight
			if w == 0 {
				w = 1
			}
			sum += w
		}
		if path != nil && sum != pt.Dist(RouterID(r)) {
			t.Errorf("router %d: path weight %d != Dist %d", r, sum, pt.Dist(RouterID(r)))
		}
	}
}

// TestHasLinkName checks HasLinkName against LinkName for every pair of
// links, with and without interface names, and against near misses.
func TestHasLinkName(t *testing.T) {
	g, a, b, c, _ := diamond(t)
	g.MustAddLink(b, a, "", "", 1)     // "b#a"
	g.MustAddLink(b, a, "", "", 1)     // parallel, the same name
	g.MustAddLink(c, a, "", "eth9", 1) // "c.#a.eth9"
	g.MustAddLink(a, c, "x.y", "", 1)  // "a.x.y#c."
	for l := range g.Links {
		name := g.LinkName(LinkID(l))
		for m := range g.Links {
			if got, want := g.HasLinkName(LinkID(m), name), g.LinkName(LinkID(m)) == name; got != want {
				t.Errorf("HasLinkName(%d, %q) = %v, want %v", m, name, got, want)
			}
		}
		for _, miss := range []string{"", name[1:], name[:len(name)-1], name + "#", "." + name, name + "."} {
			if g.HasLinkName(LinkID(l), miss) {
				t.Errorf("HasLinkName(%d, %q) = true for link %q", l, miss, name)
			}
		}
	}
}
