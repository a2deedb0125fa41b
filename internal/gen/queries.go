package gen

import (
	"fmt"
	"math/rand"

	"aalwines/internal/topology"
)

// QueryKind classifies the generated query families, mirroring the shapes
// of Table 1 and the running example.
type QueryKind uint8

const (
	// QReach: ⟨ip⟩ [.#Rs] ·* [Rt#.] ⟨ip⟩ k — plain reachability.
	QReach QueryKind = iota
	// QTunnelReach: ⟨smpls ip⟩ [·#Rs] ·* [·#Rt] ⟨smpls ip⟩ k — reachability
	// inside a tunnel (rows 1–2 of Table 1).
	QTunnelReach
	// QWaypoint: ⟨[svc] ip⟩ [·#Rs] ·* [·#Rw] ·* [·#Rt] ⟨ip⟩ k — service
	// traffic through a waypoint (rows 4–5 of Table 1).
	QWaypoint
	// QTransparency: ⟨svc ip⟩ [.#Rs] ·* [Rt#.] ⟨mpls+ smpls ip⟩ k — does
	// the network leak internal labels (φ3 of the running example)?
	QTransparency
	// QAnyTunnel: ⟨smpls? ip⟩ ·* ⟨· smpls ip⟩ 0 — the unspecific, expensive
	// last row of Table 1.
	QAnyTunnel
	// QDoubleBackup forces the path through the first hop of two distinct
	// fast-reroute detours: every witness needs two failed links, so at
	// k=1 the over-approximation proposes infeasible witnesses and the
	// under-approximation decides (the 0.57%-inconclusive regime of §5).
	QDoubleBackup
	numQueryKinds
)

// String names the query kind.
func (k QueryKind) String() string {
	switch k {
	case QReach:
		return "reach"
	case QTunnelReach:
		return "tunnel-reach"
	case QWaypoint:
		return "waypoint"
	case QTransparency:
		return "transparency"
	case QAnyTunnel:
		return "any-tunnel"
	case QDoubleBackup:
		return "double-backup"
	default:
		return fmt.Sprintf("kind-%d", uint8(k))
	}
}

// GenQuery is a generated query with its metadata.
type GenQuery struct {
	Kind QueryKind
	Text string
	K    int
}

// Queries generates count queries over the synthesised network, cycling
// through the query families with randomised endpoints and failure bounds
// (k ∈ {0,1,2}), deterministically from the seed. A network with fewer
// than two fast-reroute backup hops gets no QDoubleBackup queries.
func (s *Synth) Queries(count int, seed int64) []GenQuery {
	rng := rand.New(rand.NewSource(seed))
	out := make([]GenQuery, 0, count)
	g := s.Net.Topo
	// Core routers (everything that is not an external stub).
	var core []topology.RouterID
	for i := range g.Routers {
		if len(g.Routers[i].Name) < 2 || g.Routers[i].Name[:2] != "X-" {
			core = append(core, topology.RouterID(i))
		}
	}
	edgeName := func(i int) string { return g.Routers[s.Edge[i]].Name }
	coreName := func(i int) string { return g.Routers[core[i]].Name }
	backups := s.backupHops()
	// fam cycles through the families; it runs ahead of len(out) only on a
	// network with fewer than two backup hops, where QDoubleBackup is
	// skipped.
	for fam := 0; len(out) < count; {
		kind := QueryKind(fam % int(numQueryKinds))
		if kind == QDoubleBackup && len(backups) < 2 {
			fam++ // unprotected network: skip this family
			continue
		}
		k := rng.Intn(3)
		a := rng.Intn(len(s.Edge))
		b := rng.Intn(len(s.Edge))
		for b == a && len(s.Edge) > 1 {
			b = rng.Intn(len(s.Edge))
		}
		ca := rng.Intn(len(core))
		cb := rng.Intn(len(core))
		var text string
		switch kind {
		case QReach:
			text = fmt.Sprintf("<ip> [.#%s] .* [.#%s] <ip> %d", edgeName(a), edgeName(b), k)
		case QTunnelReach:
			text = fmt.Sprintf("<smpls ip> [.#%s] .* [.#%s] <(mpls* smpls)? ip> %d", coreName(ca), coreName(cb), k)
		case QWaypoint:
			text = fmt.Sprintf("<smpls ip> [.#%s] .* [.#%s] .* [.#%s] <. ip> %d",
				edgeName(a), coreName(ca), edgeName(b), k)
		case QTransparency:
			text = fmt.Sprintf("<smpls ip> [.#%s] .* [%s#.] <mpls+ smpls ip> %d", coreName(ca), coreName(cb), k)
		case QAnyTunnel:
			text = "<smpls? ip> .* <. smpls ip> 0"
		case QDoubleBackup:
			h1 := backups[rng.Intn(len(backups))]
			h2 := backups[rng.Intn(len(backups))]
			if h1 == h2 {
				continue // redraw within the same family
			}
			kk := 1 + rng.Intn(2)
			text = fmt.Sprintf("<smpls? ip> .* [%s] .* [%s] .* <. ip> %d", h1, h2, kk)
			k = kk
		}
		fam++
		out = append(out, GenQuery{Kind: kind, Text: text, K: k})
	}
	return out
}

// backupHops returns "u#v" link atoms for the first hop of every
// fast-reroute detour (the outgoing link of a priority-2 entry), in
// deterministic order.
func (s *Synth) backupHops() []string {
	g := s.Net.Topo
	seen := map[string]bool{}
	var out []string
	for _, key := range s.Net.Routing.Keys() {
		gs := s.Net.Routing.Lookup(key.In, key.Top)
		if len(gs) < 2 {
			continue
		}
		for _, e := range gs[1].Entries {
			l := g.Links[e.Out]
			atom := g.Routers[l.From].Name + "#" + g.Routers[l.To].Name
			if !seen[atom] {
				seen[atom] = true
				out = append(out, atom)
			}
		}
	}
	return out
}

// Table1Queries returns the six query shapes of Table 1 instantiated on the
// synthesised NORDUnet-style network. Endpoints are chosen along a real LSP
// path (the longest one from the first edge router) so the satisfiable /
// unsatisfiable mix resembles the operator's queries: tunnel reachability
// between transit routers, plain reachability, service waypointing with and
// without a failure budget, and the expensive unconstrained tunnel query.
func (s *Synth) Table1Queries() []GenQuery {
	g := s.Net.Topo
	name := func(r topology.RouterID) string { return g.Routers[r].Name }

	// Longest LSP path from the first edge router.
	src := s.Edge[0]
	tree := g.ShortestPathsFrom(src)
	var dst topology.RouterID = topology.NoRouter
	var path []topology.LinkID
	for _, d := range s.Edge {
		if d == src {
			continue
		}
		if p := tree.To(d); len(p) > len(path) {
			path, dst = p, d
		}
	}
	// Transit routers at one and two thirds of the path.
	mid1, mid2 := src, dst
	if len(path) >= 3 {
		mid1 = g.Target(path[len(path)/3])
		mid2 = g.Target(path[2*len(path)/3])
	}

	// A service chain and the middle router of its path.
	svc := "smpls"
	sSrc, sDst, sMid := src, dst, mid1
	if len(s.ServiceIn) > 0 {
		sv := s.ServiceIn[0]
		svc = "[" + s.Net.Labels.Name(sv.In) + "]"
		sSrc, sDst = sv.Src, sv.Dst
		if p := g.ShortestPathsFrom(sSrc).To(sDst); len(p) >= 2 {
			sMid = g.Target(p[len(p)/2])
		}
	}

	return []GenQuery{
		{Kind: QTunnelReach, K: 1, Text: fmt.Sprintf(
			"<smpls ip> [.#%s] .* [.#%s] <smpls ip> 1", name(mid1), name(mid2))},
		{Kind: QTunnelReach, K: 1, Text: fmt.Sprintf(
			"<smpls ip> [.#%s] .* [.#%s] <(mpls* smpls)? ip> 1", name(mid1), name(dst))},
		{Kind: QReach, K: 0, Text: fmt.Sprintf(
			"<ip> [.#%s] .* [.#%s] <ip> 0", name(src), name(dst))},
		{Kind: QWaypoint, K: 0, Text: fmt.Sprintf(
			"<%s ip> [.#%s] .* [.#%s] .* [.#%s] <. ip> 0",
			svc, name(sSrc), name(sMid), name(sDst))},
		{Kind: QWaypoint, K: 1, Text: fmt.Sprintf(
			"<%s ip> [.#%s] .* [.#%s] .* [.#%s] <. ip> 1",
			svc, name(sSrc), name(sMid), name(sDst))},
		{Kind: QAnyTunnel, K: 0, Text: "<smpls? ip> .* <. smpls ip> 0"},
	}
}
