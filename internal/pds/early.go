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
	queue   []edgeRef
	epsInto [][]State

	// Early-accept probe scratch: the product nodes (automaton state ×
	// spec state) reached so far, and their marks, generation-stamped per
	// run so a new run skips the O(product) clear.
	prodMark []uint32
	prodGen  uint32
	prodBuf  []prodNode
}

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
	return &satScratch{}
}

func putScratch(sc *satScratch) {
	sc.queue = sc.queue[:0]
	for i := range sc.epsInto {
		sc.epsInto[i] = sc.epsInto[i][:0]
	}
	sc.prodBuf = sc.prodBuf[:0]
	scratchPool.Put(sc)
}

// epsIntoFor returns the ε-predecessor table sized for at least n states,
// reusing the inner slices' capacity from previous runs.
func (sc *satScratch) epsIntoFor(n int) [][]State {
	for len(sc.epsInto) < n {
		sc.epsInto = append(sc.epsInto, nil)
	}
	return sc.epsInto
}

// nextProdGen advances the early-accept mark generation; on wrap the mark
// array is cleared so stale generations cannot alias.
func (sc *satScratch) nextProdGen() uint32 {
	sc.prodGen++
	if sc.prodGen == 0 {
		for i := range sc.prodMark {
			sc.prodMark[i] = 0
		}
		sc.prodGen = 1
	}
	return sc.prodGen
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
func (pr *earlyProbe) grow(a *Auto) {
	sc := pr.sc
	if n := a.numStates * pr.ns; n > len(sc.prodMark) {
		sc.prodMark = append(sc.prodMark, make([]uint32, n-len(sc.prodMark))...)
	}
}

// visit adds node (s, n) unless it was reached before.
func (pr *earlyProbe) visit(a *Auto, s State, n int) {
	sc := pr.sc
	i := int(s)*pr.ns + n
	if sc.prodMark[i] == pr.gen {
		return
	}
	sc.prodMark[i] = pr.gen
	sc.prodBuf = append(sc.prodBuf, prodNode{s: s, n: int32(n)})
	if a.accept[s] && pr.spec.Accepting(n) {
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
		edges := a.states[nd.s].edges
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
