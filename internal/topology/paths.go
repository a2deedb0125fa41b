package topology

import "container/heap"

const unreachable = ^uint64(0)

// PathTree is the result of a single-source shortest path computation.
type PathTree struct {
	source RouterID
	dist   []uint64
	via    []LinkID   // incoming link on the shortest path; NoLink at source/unreachable
	from   []RouterID // link ID -> source router, so the tree can be walked without the graph
}

// Dist returns the distance from the source to r; unreachable routers
// report ^uint64(0).
func (p *PathTree) Dist(r RouterID) uint64 { return p.dist[r] }

// Reachable reports whether r is reachable from the source.
func (p *PathTree) Reachable(r RouterID) bool { return p.dist[r] != unreachable }

// To returns the link sequence from the source to r, or nil if r is the
// source itself or unreachable.
func (p *PathTree) To(r RouterID) []LinkID {
	if r == p.source || !p.Reachable(r) {
		return nil
	}
	var rev []LinkID
	cur := r
	for cur != p.source {
		l := p.via[cur]
		if l == NoLink {
			return nil
		}
		rev = append(rev, l)
		cur = p.from[l]
	}
	out := make([]LinkID, len(rev))
	for i, l := range rev {
		out[len(rev)-1-i] = l
	}
	return out
}

// ShortestPathsFrom computes minimum-weight directed paths from router a
// to every router using Dijkstra's algorithm over link weights (weight 0
// counts as weight 1 so hop counts break ties sensibly). Self-loops are
// never used.
func (g *Graph) ShortestPathsFrom(a RouterID) *PathTree {
	n := len(g.Routers)
	p := &PathTree{
		source: a,
		dist:   make([]uint64, n),
		via:    make([]LinkID, n),
		from:   make([]RouterID, len(g.Links)),
	}
	for i := range p.dist {
		p.dist[i] = unreachable
		p.via[i] = NoLink
	}
	for i := range g.Links {
		p.from[i] = g.Links[i].From
	}
	p.dist[a] = 0
	pq := &distHeap{{a, 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		if item.d > p.dist[item.r] {
			continue
		}
		for _, lid := range g.Routers[item.r].out {
			l := &g.Links[lid]
			if l.SelfLoop() {
				continue
			}
			w := l.Weight
			if w == 0 {
				w = 1
			}
			nd := item.d + w
			if nd < p.dist[l.To] {
				p.dist[l.To] = nd
				p.via[l.To] = lid
				heap.Push(pq, distItem{l.To, nd})
			}
		}
	}
	return p
}

type distItem struct {
	r RouterID
	d uint64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
