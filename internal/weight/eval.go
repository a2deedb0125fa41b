package weight

import (
	"aalwines/internal/network"
	"aalwines/internal/routing"
	"aalwines/internal/topology"
)

// DistanceFunc assigns a distance d(e) to every link, used by the Distance
// quantity. A nil DistanceFunc falls back to the link's Weight annotation.
type DistanceFunc func(topology.LinkID) uint64

// StepAtoms returns the contribution of a single forwarding step to each
// atomic quantity: traversing link e (after selecting priority group with
// mustFail links), arriving with a header that grew by growth labels.
//
// The atomic quantities of a trace are sums of per-step contributions (the
// paper defines them exactly this way), which is what makes them expressible
// as weights of pushdown rules.
func StepAtoms(g *topology.Graph, e topology.LinkID, dist DistanceFunc, numMustFail int, growth int) Atoms {
	var a Atoms
	a[Links] = 1
	if !g.Links[e].SelfLoop() {
		a[Hops] = 1
	}
	if dist != nil {
		a[Distance] = dist(e)
	} else {
		a[Distance] = g.Links[e].Weight
	}
	a[Failures] = uint64(numMustFail)
	if growth > 0 {
		a[Tunnels] = uint64(growth)
	}
	return a
}

// EvalTrace computes the atomic quantities of a trace per §3:
//
//	Links    — number of steps,
//	Hops     — steps over non-self-loop links,
//	Distance — Σ d(e_i),
//	Failures — Σ |failed(i)| where failed(i) is the minimal local failed
//	           set enabling step i→i+1 (lowest matching priority group),
//	Tunnels  — Σ max(0, |h_{i+1}|−|h_i|).
//
// The first step of a trace contributes to Links, Hops and Distance (the
// packet enters on e_1); Failures and Tunnels are defined over consecutive
// pairs.
func EvalTrace(n *network.Network, tr network.Trace, dist DistanceFunc) Atoms {
	var total Atoms
	g := n.Topo
	for i, s := range tr {
		total[Links]++
		if !g.Links[s.Link].SelfLoop() {
			total[Hops]++
		}
		if dist != nil {
			total[Distance] += dist(s.Link)
		} else {
			total[Distance] += g.Links[s.Link].Weight
		}
		if i+1 < len(tr) {
			next := tr[i+1]
			if d := len(next.Header) - len(s.Header); d > 0 {
				total[Tunnels] += uint64(d)
			}
			total[Failures] += uint64(minFailuresForStep(n, s, next))
		}
	}
	return total
}

// minFailuresForStep returns |failed(i)| for the step from s to next: the
// size of the smallest prefix-failure set over the priority groups that
// justify the transition. Unjustifiable steps contribute 0 (the trace is
// then invalid anyway; validity is checked elsewhere).
func minFailuresForStep(n *network.Network, s, next network.Step) int {
	gs := n.Routing.Lookup(s.Link, s.Header.Top())
	best := -1
	for j := range gs {
		for _, e := range gs[j].Entries {
			if e.Out != next.Link {
				continue
			}
			nh, err := routing.Rewrite(n.Labels, s.Header, e.Ops)
			if err != nil || !nh.Equal(next.Header) {
				continue
			}
			sz := gs.PrefixFailures(j)
			if best == -1 || sz < best {
				best = sz
			}
		}
	}
	if best < 0 {
		return 0
	}
	return best
}
