package gen

import (
	"fmt"
	"math/rand"

	"aalwines/internal/network"
	"aalwines/internal/topology"
)

// BackboneOpts parameterises the ISP-backbone-mesh family: a densely
// meshed core of P routers plus a tier of PoP aggregation routers, each
// dual-homed to two distinct core routers. This mirrors the classic
// tier-1 ISP design (meshed P-core, dual-homed PEs) and complements the
// other families: the fat-tree is regular and rich, the rings are sparse
// and cycle-bound, the backbone sits in between — a small dense core with
// many stub attachments.
type BackboneOpts struct {
	// Core is the number of meshed core routers (default 8).
	Core int
	// Pops is the number of dual-homed PoP routers (default 24).
	Pops int
	// EdgeRouters bounds how many PoP routers carry LSPs (0 = all).
	EdgeRouters int
	// Services is the number of service-label chains per edge pair.
	Services int
	Seed     int64
}

// backboneCoreDegree is how many higher-indexed core routers each core
// router links to (clamped to Core-1, which yields a full mesh).
const backboneCoreDegree = 3

// Backbone builds the two-tier ISP topology with the standard MPLS
// dataplane (all-pairs LSPs between the selected PoPs, fast-reroute
// protection, optional service chains).
func Backbone(opts BackboneOpts) *Synth {
	c := opts.Core
	if c == 0 {
		c = 8
	}
	p := opts.Pops
	if p == 0 {
		p = 24
	}
	d := backboneCoreDegree
	if c < 3 || p < 2 {
		panic(fmt.Sprintf("gen: backbone needs >=3 core and >=2 pop routers, got %d/%d", c, p))
	}
	if d > c-1 {
		d = c - 1
	}
	net := network.New(fmt.Sprintf("backbone-%dc%dp", c, p))
	g := net.Topo

	linkSeq := 0
	addBoth := func(a, b topology.RouterID, w uint64) {
		linkSeq++
		g.MustAddLink(a, b, fmt.Sprintf("ge%d", linkSeq), fmt.Sprintf("xe%d", linkSeq), w)
		g.MustAddLink(b, a, fmt.Sprintf("he%d", linkSeq), fmt.Sprintf("ye%d", linkSeq), w)
	}

	core := make([]topology.RouterID, c)
	for i := range core {
		core[i] = g.AddRouter(fmt.Sprintf("p%d", i))
		g.SetLocation(core[i], 50, float64(i)*2)
	}
	// Core mesh: ring for connectivity plus d-regular chords. Weights vary
	// with index distance so shortest paths are unique-ish and interesting.
	for i := 0; i < c; i++ {
		for k := 1; k <= d; k++ {
			j := (i + k) % c
			if j > i {
				addBoth(core[i], core[j], uint64(1+k))
			} else if k == 1 {
				// Close the ring exactly once.
				addBoth(core[i], core[j], uint64(1+k))
			}
		}
	}
	pops := make([]topology.RouterID, p)
	for i := range pops {
		pops[i] = g.AddRouter(fmt.Sprintf("pe%d", i))
		g.SetLocation(pops[i], 47, float64(i))
		// Dual-homing to two distinct core routers.
		a := i % c
		b := (i + 1 + i/c) % c
		if b == a {
			b = (a + 1) % c
		}
		addBoth(pops[i], core[a], 5)
		addBoth(pops[i], core[b], 6)
	}

	edge := pops
	if opts.EdgeRouters > 0 && opts.EdgeRouters < len(pops) {
		rng := rand.New(rand.NewSource(opts.Seed))
		perm := rng.Perm(len(pops))
		edge = make([]topology.RouterID, 0, opts.EdgeRouters)
		for _, i := range perm[:opts.EdgeRouters] {
			edge = append(edge, pops[i])
		}
	}
	return synthesize(net, edge, SynthOpts{Protection: true, Services: opts.Services})
}
