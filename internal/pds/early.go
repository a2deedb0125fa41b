package pds

import (
	"sync"

	"aalwines/internal/nfa"
)

// satScratch bundles the reusable per-run storage of the saturation
// worklists: the queue, the ε-predecessor lists and the early-accept
// probe's product nodes and marks. Runs recycle it through a sync.Pool so
// batch verification stops paying per-run GC for bookkeeping that never
// escapes the run. Weight vectors and witness records are deliberately NOT
// pooled: they outlive the run inside the result automaton.
type satScratch struct {
	queue workQueue
	eps   epsPreds

	// Early-accept probe scratch: the product nodes (automaton state ×
	// spec state) reached so far, and their marks, generation-stamped per
	// run so a new run skips the O(product) clear.
	prodMark chunked[uint32]
	prodGen  uint32
	prodBuf  []prodNode
}

// markShift sets the probe marks' chunk length: 1,024 product nodes.
const markShift = 10

// prodNode is a reached product node with its cursor: next counts the
// out-edges of s the probe has already followed from this node.
type prodNode struct {
	s    State
	n    int32 // spec state
	next int32
}

var scratchPool sync.Pool

func getScratch() *satScratch {
	if v := scratchPool.Get(); v != nil {
		poolHits.Inc()
		return v.(*satScratch)
	}
	poolMisses.Inc()
	return &satScratch{prodMark: chunked[uint32]{shift: markShift}}
}

func putScratch(sc *satScratch) {
	sc.queue.reset()
	sc.eps.reset()
	sc.prodBuf = sc.prodBuf[:0]
	scratchPool.Put(sc)
}

// nextProdGen advances the early-accept mark generation; on wrap the mark
// array is cleared so stale generations cannot alias.
func (sc *satScratch) nextProdGen() uint32 {
	sc.prodGen++
	if sc.prodGen == 0 {
		for _, c := range sc.prodMark.chunks {
			clear(c)
		}
		sc.prodGen = 1
	}
	return sc.prodGen
}

// workQueue is post*'s FIFO worklist. It grows by chunks, each twice as
// long as the last up to maxQueueChunk entries, and recycles a chunk once
// drained, so a run allocates about its peak depth instead of doubling one
// array, and a small run allocates a few hundred bytes.
type workQueue struct {
	chunks [][]edgeRef // queued entries, oldest chunk first
	head   int         // entries of chunks[0] already popped
	n      int         // entries queued
	free   [][]edgeRef // drained chunks, empty
}

const (
	minQueueChunk = 64
	maxQueueChunk = 4096
)

func (q *workQueue) push(e edgeRef) {
	k := len(q.chunks) - 1
	if k < 0 || len(q.chunks[k]) == cap(q.chunks[k]) {
		var c []edgeRef
		if f := len(q.free) - 1; f >= 0 {
			c, q.free = q.free[f], q.free[:f]
		} else if k < 0 {
			c = make([]edgeRef, 0, minQueueChunk)
		} else {
			c = make([]edgeRef, 0, min(2*cap(q.chunks[k]), maxQueueChunk))
		}
		q.chunks = append(q.chunks, c)
		k++
	}
	q.chunks[k] = append(q.chunks[k], e)
	q.n++
}

// pop removes the oldest entry; the queue must not be empty.
func (q *workQueue) pop() edgeRef {
	c := q.chunks[0]
	e := c[q.head]
	q.head++
	q.n--
	if q.head == len(c) {
		q.head = 0
		if q.n == 0 {
			q.chunks[0] = c[:0]
		} else { // only the last chunk is ever short, so c is full
			q.free = append(q.free, c[:0])
			q.chunks = q.chunks[:copy(q.chunks, q.chunks[1:])]
		}
	}
	return e
}

// reset empties the queue and keeps its chunks for reuse.
func (q *workQueue) reset() {
	for _, c := range q.chunks {
		q.free = append(q.free, c[:0])
	}
	q.chunks, q.head, q.n = q.chunks[:0], 0, 0
}

// epsPreds lists the sources of the ε-transitions into each state, in the
// order they were registered. Few states are ε-targets (1,297 of 236,785
// on Table 1 row 2 at paper scale), so it hashes a target to the first
// node of its list instead of keeping a slot per state.
type epsPreds struct {
	first u64map // target state → its first node
	nodes []epsNode
}

// epsNode is one ε-predecessor; last is the list's tail, kept at the
// list's first node.
type epsNode struct {
	src        State
	next, last int32
}

// add appends src to the ε-predecessors of to.
func (ep *epsPreds) add(to, src State) {
	i := int32(len(ep.nodes))
	ep.nodes = append(ep.nodes, epsNode{src: src, next: -1, last: i})
	hp := ep.first.ref(uint64(to))
	if *hp == -1 {
		*hp = i
		return
	}
	f := &ep.nodes[*hp]
	ep.nodes[f.last].next = i
	f.last = i
}

// head returns the first node of to's list, or -1.
func (ep *epsPreds) head(to State) int32 {
	if i, ok := ep.first.get(uint64(to)); ok {
		return i
	}
	return -1
}

func (ep *epsPreds) reset() {
	ep.first.clear()
	ep.nodes = ep.nodes[:0]
}

// earlyProbe answers, during one unweighted post* run, whether the
// automaton under saturation already accepts some configuration ⟨p, w⟩
// with p among the query's final states and w ∈ L(spec) — the emptiness
// question FindAccepting answers, minus the minimisation. It walks the
// product of automaton and spec as FindAccepting does: ε-edges are skipped
// (sound at any point, since FindAccepting skips them too), a virtual set
// edge pairs with a spec arc iff the two sets intersect, exactly when
// FindAccepting's Inter(...).First() succeeds, and a concrete edge pairs
// with an arc iff the arc admits its symbol. A positive answer therefore
// guarantees FindAccepting finds an accepting configuration on the same
// partially saturated automaton.
//
// The walk is incremental. An unweighted saturation only appends
// out-edges, never removing or reordering them, so a product node reached
// at one probe stays reached. The probe keeps the nodes it has reached,
// each with a cursor over its state's out-edges, and each call follows
// only the edges appended since the previous one: over a whole run every
// (edge, spec arc) pair is tested once per spec state that reaches the
// edge, however many times the run probes.
type earlyProbe struct {
	spec     *nfa.NFA
	ns       int // spec states
	gen      uint32
	sc       *satScratch
	accepted bool // an accepting node was reached; it stays reached

	// followed counts the out-edges the walk has stepped over, ε-edges
	// included; tests read it to check the walk never revisits an edge.
	followed int64
}

// init starts the walk at starts × ε-closure(spec start); the first
// reachable call explores from there.
func (pr *earlyProbe) init(a *Auto, starts []State, spec *nfa.NFA, sc *satScratch) {
	*pr = earlyProbe{spec: spec, ns: spec.NumStates(), gen: sc.nextProdGen(), sc: sc}
	pr.grow(a)
	specStarts := spec.EpsClosure(spec.Start())
	for _, p := range starts {
		for _, n0 := range specStarts {
			pr.visit(a, p, n0)
		}
	}
}

// grow extends the mark array over the states the run has added (mid and
// chain states) since the last call.
func (pr *earlyProbe) grow(a *Auto) { pr.sc.prodMark.grow(a.numStates * pr.ns) }

// visit adds node (s, n) unless it was reached before.
func (pr *earlyProbe) visit(a *Auto, s State, n int) {
	sc := pr.sc
	m := sc.prodMark.at(int(s)*pr.ns + n)
	if *m == pr.gen {
		return
	}
	*m = pr.gen
	sc.prodBuf = append(sc.prodBuf, prodNode{s: s, n: int32(n)})
	if a.Accepting(s) && pr.spec.Accepting(n) {
		pr.accepted = true
	}
}

// reachable reports whether an accepting product node is reachable in the
// automaton as it stands, following only the edges appended since the
// previous call. Nodes the walk reaches are appended to the node list and
// caught up in the same pass.
func (pr *earlyProbe) reachable(a *Auto) bool {
	if pr.accepted {
		return true
	}
	pr.grow(a)
	nodes := &pr.sc.prodBuf
	for i := 0; i < len(*nodes); i++ {
		nd := (*nodes)[i]
		edges := a.st(nd.s).edges
		if int(nd.next) == len(edges) {
			continue
		}
		(*nodes)[i].next = int32(len(edges))
		pr.followed += int64(len(edges) - int(nd.next))
		arcs := pr.spec.Arcs(int(nd.n))
		for j := int(nd.next); j < len(edges); j++ {
			e := &edges[j]
			if e.Sym == Eps {
				continue
			}
			set := a.SymSet(e.Sym)
			for _, arc := range arcs {
				if set != nil {
					if !set.Intersects(arc.Set) {
						continue
					}
				} else if !arc.Set.Has(nfa.Sym(e.Sym)) {
					continue
				}
				pr.visit(a, e.To, arc.To)
			}
			if pr.accepted {
				return true
			}
		}
	}
	return false
}

// weightArena bump-allocates weight vectors in chunks, replacing the
// per-derivation make([]uint64, dim) of the old lexAdd path. The arena is
// per-run and never recycled: the vectors it hands out end up referenced by
// edges and witness records in the result automaton.
type weightArena struct {
	chunk []uint64
}

const weightChunk = 4096

// zero returns a fresh all-zeros vector of length dim.
func (wa *weightArena) zero(dim int) []uint64 {
	if len(wa.chunk) < dim {
		n := weightChunk
		if n < dim {
			n = dim
		}
		wa.chunk = make([]uint64, n)
	}
	v := wa.chunk[:dim:dim]
	wa.chunk = wa.chunk[dim:]
	return v
}

// add returns the component-wise sum like lexAdd, but allocates the result
// from the arena. As with lexAdd, a nil operand is the semiring one and the
// other operand is returned as-is (callers never mutate vectors in place).
func (wa *weightArena) add(a, b []uint64) []uint64 {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := wa.zero(len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// witArena bump-allocates witness records in chunks. Each automaton owns
// one (Auto.wits), shared by its initial edges and every edge saturation
// inserts; like weightArena it is never recycled, since the records live
// on in the result.
type witArena struct {
	chunk []Witness
}

const witChunk = 256

func (wa *witArena) new(w Witness) *Witness {
	if len(wa.chunk) == 0 {
		wa.chunk = make([]Witness, witChunk)
	}
	p := &wa.chunk[0]
	wa.chunk = wa.chunk[1:]
	*p = w
	return p
}
