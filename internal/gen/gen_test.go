package gen

import (
	"testing"
	"time"

	"aalwines/internal/labels"
	"aalwines/internal/network"
	"aalwines/internal/topology"
)

func TestRunningExampleShape(t *testing.T) {
	re := RunningExample()
	if got := re.Topo.NumRouters(); got != 7 {
		t.Errorf("routers = %d, want 7 (5 core + 2 stubs)", got)
	}
	if got := re.Topo.NumLinks(); got != 8 {
		t.Errorf("links = %d, want 8", got)
	}
	if got := re.Routing.NumRules(); got != 13 {
		t.Errorf("rules = %d, want 13 (Figure 1b)", got)
	}
}

func TestSigmaTracesWellFormed(t *testing.T) {
	re := RunningExample()
	for i := 0; i <= 3; i++ {
		tr := re.Sigma(i)
		for j, s := range tr {
			if !s.Header.Valid(re.Labels) {
				t.Errorf("sigma%d step %d: invalid header", i, j)
			}
		}
	}
}

func TestZooDeterministic(t *testing.T) {
	a := Zoo(ZooOpts{Routers: 20, Seed: 5, Protection: true})
	b := Zoo(ZooOpts{Routers: 20, Seed: 5, Protection: true})
	if a.Net.Routing.NumRules() != b.Net.Routing.NumRules() {
		t.Fatalf("same seed, different rule counts: %d vs %d",
			a.Net.Routing.NumRules(), b.Net.Routing.NumRules())
	}
	if a.Net.Topo.NumLinks() != b.Net.Topo.NumLinks() {
		t.Fatal("same seed, different topologies")
	}
	c := Zoo(ZooOpts{Routers: 20, Seed: 6, Protection: true})
	if a.Net.Topo.NumLinks() == c.Net.Topo.NumLinks() &&
		a.Net.Routing.NumRules() == c.Net.Routing.NumRules() {
		t.Log("seeds 5 and 6 coincide in size (unlikely but possible)")
	}
}

func TestZooConnectivityAndLSPs(t *testing.T) {
	s := Zoo(ZooOpts{Routers: 30, Seed: 1, Protection: true})
	g := s.Net.Topo
	// Every ordered edge pair must have an LSP: ingress rule present.
	for _, src := range s.Edge {
		for _, dst := range s.Edge {
			if src == dst {
				continue
			}
			gs := s.Net.Routing.Lookup(s.ExtIn[src], s.IPLabel[dst])
			if len(gs) == 0 {
				t.Fatalf("no ingress rule %s -> %s",
					g.Routers[src].Name, g.Routers[dst].Name)
			}
		}
	}
}

func TestZooProtectionAddsPriority2(t *testing.T) {
	prot := Zoo(ZooOpts{Routers: 30, Seed: 2, Protection: true})
	flat := Zoo(ZooOpts{Routers: 30, Seed: 2, Protection: false})
	if prot.Net.Routing.NumRules() <= flat.Net.Routing.NumRules() {
		t.Fatalf("protection did not add rules: %d vs %d",
			prot.Net.Routing.NumRules(), flat.Net.Routing.NumRules())
	}
	// At least one key must have a priority-2 group.
	found := false
	for _, key := range prot.Net.Routing.Keys() {
		if len(prot.Net.Routing.Lookup(key.In, key.Top)) > 1 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no priority-2 group anywhere")
	}
}

// TestZooForwardingSimulation injects a packet at an ingress and checks it
// reaches the egress stub with the bare IP label.
func TestZooForwardingSimulation(t *testing.T) {
	s := Zoo(ZooOpts{Routers: 24, Seed: 3, Protection: true})
	src, dst := s.Edge[0], s.Edge[1]
	h := labels.Header{s.IPLabel[dst]}
	delivered := false
	s.Net.Enumerate(s.ExtIn[src], h, nil, 16, func(tr network.Trace) bool {
		last := tr[len(tr)-1]
		if last.Link == s.ExtOut[dst] && len(last.Header) == 1 &&
			last.Header[0] == s.IPLabel[dst] {
			delivered = true
			return false
		}
		return true
	})
	if !delivered {
		t.Fatal("packet not delivered to egress stub")
	}
}

// TestZooFailoverSimulation fails the first primary link of an LSP and
// checks the packet still arrives via the bypass tunnel.
func TestZooFailoverSimulation(t *testing.T) {
	s := Zoo(ZooOpts{Routers: 24, Seed: 3, Protection: true})
	src, dst := s.Edge[0], s.Edge[1]
	// Find the primary first link.
	gs := s.Net.Routing.Lookup(s.ExtIn[src], s.IPLabel[dst])
	if len(gs) < 2 || len(gs[1].Entries) == 0 {
		t.Skip("ingress hop has no protection on this seed")
	}
	primary := gs[0].Entries[0].Out
	f := network.FailedSet{primary: true}
	h := labels.Header{s.IPLabel[dst]}
	delivered := false
	s.Net.Enumerate(s.ExtIn[src], h, f, 20, func(tr network.Trace) bool {
		last := tr[len(tr)-1]
		if last.Link == s.ExtOut[dst] && len(last.Header) == 1 {
			delivered = true
			return false
		}
		return true
	})
	if !delivered {
		t.Fatal("failover did not deliver the packet")
	}
}

func TestNordunetShape(t *testing.T) {
	s := Nordunet(NordOpts{Services: 2, Seed: 1})
	if got := len(nordCities); got != 31 {
		t.Fatalf("city table has %d entries, want 31", got)
	}
	// 31 core routers + 12 stubs.
	if got := s.Net.Topo.NumRouters(); got != 31+12 {
		t.Errorf("routers = %d, want 43", got)
	}
	if len(s.ServiceIn) == 0 {
		t.Error("no service labels recorded")
	}
	// Every router must have a location for the GUI/Distance metric.
	for i := 0; i < 31; i++ {
		if !s.Net.Topo.Routers[i].HasLoc {
			t.Errorf("router %d has no location", i)
		}
	}
}

// TestNordunetRuleScaling checks that the Services knob reaches the paper's
// >250k rule regime.
func TestNordunetRuleScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("rule-scaling check skipped in -short mode")
	}
	small := Nordunet(NordOpts{Services: 1, Seed: 1})
	big := Nordunet(NordOpts{Services: 70, EdgeRouters: 31, Seed: 1})
	if big.Net.Routing.NumRules() <= small.Net.Routing.NumRules() {
		t.Fatal("Services knob does not scale rules")
	}
	if big.Net.Routing.NumRules() < 250000 {
		t.Errorf("Services=70/Edge=31 yields %d rules; want >250k (adjust knob)",
			big.Net.Routing.NumRules())
	}
}

func TestQueriesGeneration(t *testing.T) {
	s := Nordunet(NordOpts{Services: 1, Seed: 1})
	qs := s.Queries(25, 7)
	if len(qs) != 25 {
		t.Fatalf("got %d queries", len(qs))
	}
	kinds := map[QueryKind]int{}
	for _, q := range qs {
		kinds[q.Kind]++
		if q.Text == "" {
			t.Fatal("empty query text")
		}
	}
	if len(kinds) != int(numQueryKinds) {
		t.Errorf("only %d kinds generated", len(kinds))
	}
	// Determinism.
	qs2 := s.Queries(25, 7)
	for i := range qs {
		if qs[i].Text != qs2[i].Text {
			t.Fatal("query generation not deterministic")
		}
	}
}

// TestQueriesUnprotected checks that a network without fast-reroute
// backups, where the double-backup family has no hops to draw, still gets
// count queries from the remaining families instead of looping forever.
func TestQueriesUnprotected(t *testing.T) {
	s := Zoo(ZooOpts{Routers: 18, Seed: 1})
	done := make(chan []GenQuery, 1)
	go func() { done <- s.Queries(12, 1) }()
	var qs []GenQuery
	select {
	case qs = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Queries(12, 1) did not return on an unprotected network")
	}
	if len(qs) != 12 {
		t.Fatalf("got %d queries, want 12", len(qs))
	}
	for i, q := range qs {
		if q.Kind == QDoubleBackup {
			t.Errorf("query %d is %v on a network without backup hops: %s", i, q.Kind, q.Text)
		}
	}
}

func TestTable1Queries(t *testing.T) {
	s := Nordunet(NordOpts{Services: 1, Seed: 1})
	qs := s.Table1Queries()
	if len(qs) != 6 {
		t.Fatalf("got %d table-1 queries, want 6", len(qs))
	}
	for i, q := range qs {
		if q.Text == "" {
			t.Errorf("query %d empty", i)
		}
	}
}

func TestZooSizes(t *testing.T) {
	sizes := ZooSizes(50, 42)
	if len(sizes) != 50 {
		t.Fatal("wrong count")
	}
	sum, max := 0, 0
	for _, s := range sizes {
		if s < 10 || s > 240 {
			t.Fatalf("size %d out of range", s)
		}
		sum += s
		if s > max {
			max = s
		}
	}
	mean := sum / len(sizes)
	if mean < 40 || mean > 140 {
		t.Errorf("mean size %d far from the paper's ≈84", mean)
	}
	if max != 240 {
		t.Errorf("max size %d, want 240", max)
	}
}

func TestBypassAvoidsProtectedLink(t *testing.T) {
	s := Zoo(ZooOpts{Routers: 20, Seed: 9, Protection: true})
	g := s.Net.Topo
	// For every priority-2 entry, simulate the bypass label chain and check
	// it never traverses the protected link.
	for _, key := range s.Net.Routing.Keys() {
		gs := s.Net.Routing.Lookup(key.In, key.Top)
		if len(gs) < 2 {
			continue
		}
		protected := gs[0].Entries[0].Out
		for _, e := range gs[1].Entries {
			if e.Out == protected {
				t.Errorf("backup for %v uses the protected link itself", key)
			}
		}
		_ = g
	}
}

func TestShortestAvoiding(t *testing.T) {
	n := network.New("t")
	g := n.Topo
	a := g.AddRouter("a")
	b := g.AddRouter("b")
	c := g.AddRouter("c")
	ab := g.MustAddLink(a, b, "", "", 1)
	g.MustAddLink(a, c, "", "", 1)
	g.MustAddLink(c, b, "", "", 1)
	path := shortestAvoiding(g, a, b, ab)
	if len(path) != 2 {
		t.Fatalf("avoiding path = %v, want 2 hops via c", path)
	}
	for _, l := range path {
		if l == ab {
			t.Fatal("path uses avoided link")
		}
	}
	// No alternative: single link only.
	n2 := network.New("t2")
	g2 := n2.Topo
	x := g2.AddRouter("x")
	y := g2.AddRouter("y")
	xy := g2.MustAddLink(x, y, "", "", 1)
	if p := shortestAvoiding(g2, x, y, xy); p != nil {
		t.Fatalf("expected nil, got %v", p)
	}
}

func TestExternalLinksDistinct(t *testing.T) {
	s := Zoo(ZooOpts{Routers: 16, Seed: 4, Protection: false})
	seen := map[topology.LinkID]bool{}
	for _, r := range s.Edge {
		for _, l := range []topology.LinkID{s.ExtIn[r], s.ExtOut[r]} {
			if seen[l] {
				t.Fatal("duplicate external link")
			}
			seen[l] = true
		}
	}
}
