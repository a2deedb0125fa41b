package pds

import (
	"fmt"
	"math/bits"

	"aalwines/internal/nfa"
)

// Trans identifies a P-automaton transition (From --Sym--> To). Sym is
// either a concrete stack symbol (< NumSyms of the PDS), the Eps marker, or
// a virtual symbol (>= NumSyms) standing for a whole symbol set — virtual
// symbols let an initial automaton carry transitions like "any smpls label"
// without materialising one edge per label.
type Trans struct {
	From State
	Sym  Sym
	To   State
}

// WitKind classifies how a transition entered the saturated automaton.
type WitKind uint8

const (
	// WitInitial marks transitions copied from the input automaton.
	WitInitial WitKind = iota
	// WitRule marks transitions created by applying a pop/swap rule, or
	// the first transition (p′,γ′,q_r) of a push rule.
	WitRule
	// WitPushB marks the second transition (q_r,γ″,q) of a push rule.
	WitPushB
	// WitCombine marks transitions created by composing an epsilon
	// transition with a following transition.
	WitCombine
)

// Witness is an immutable derivation record: it explains how the transition
// T obtained its (then-current) weight. Records only reference records that
// existed when they were created, so the record graph is acyclic and
// backward reconstruction terminates.
type Witness struct {
	Kind WitKind
	Rule int32 // rule index for WitRule/WitPushB, -1 otherwise
	T    Trans
	// PredSym is the concrete stack symbol the rule consumed from the head
	// transition (Pred1). It matters when Pred1 is a virtual set edge: the
	// derivation fixed one concrete member.
	PredSym Sym
	Pred1   *Witness // head transition record (WitRule/WitPushB); ε record (WitCombine)
	Pred2   *Witness // following transition record (WitCombine)
	Weight  []uint64 // the weight this record establishes for T
}

// Edge is an outgoing P-automaton transition with the witness record that
// established it. The record carries the edge's best weight: every insert
// stores the weight it settles in the record it attaches, so the edge keeps
// none of its own and stays 16 bytes.
type Edge struct {
	Sym Sym
	To  State
	Wit *Witness
}

// edgeMeta is the per-edge bookkeeping the saturation worklists and the
// symbol index need: the next edge in this state's same-symbol chain
// (-1 terminates) and the worklist flag bits.
type edgeMeta struct {
	next  int32
	flags uint8
}

// Per-edge flag bits; they replace the old inQueue/epsSeen maps with a bit
// read off the edge slot itself.
const (
	fQueued uint8 = 1 << iota // edge is on the worklist
	fEpsReg                   // ε-edge already registered in epsInto
)

// virtChain is the pseudo-symbol under which all of a state's virtual
// set-edges are chained (they are looked up by enumeration + set filter,
// not by exact symbol). It can never collide with a real virtual symbol:
// those are NumSyms + set index, far below 2³²-2 in practice.
const virtChain = Eps - 1

// chainKey packs (state, chain symbol) into the flat-hash key. State
// indices are non-negative int32 and symbols are 32-bit, so the key is
// collision-free and stays below 2⁶³ (the hash stores key+1 for its empty
// marker without overflow).
func chainKey(s State, cs Sym) uint64 {
	return uint64(uint32(s))<<32 | uint64(cs)
}

// chainSym maps an edge symbol to the chain it lives in: concrete symbols
// and Eps chain under themselves, virtual set symbols share virtChain.
func (a *Auto) chainSym(sym Sym) Sym {
	if sym != Eps && int(sym) >= a.NumSyms {
		return virtChain
	}
	return sym
}

// stateEdges holds one state's outgoing transitions. meta[i].next threads
// the edges into per-symbol chains, newest first, so the saturation inner
// loops touch only candidate edges without paying a per-state map
// allocation. A chain's head is its newest edge: a state with at most
// scanMax edges finds it by scanning the out-list, and a larger one looks
// it up in the automaton's flat hash.
type stateEdges struct {
	edges []Edge
	meta  []edgeMeta
}

// Auto is a P-automaton: an NFA whose states include the control states of
// a PDS (indices [0, PDSStates)) plus any number of extra states. It
// represents a regular set of configurations: ⟨p, w⟩ is accepted iff the
// automaton reads w from state p into an accepting state.
//
// An Auto carries reusable scratch for AcceptsConfig/epsClosure, so those
// queries are not safe to call concurrently on one instance. Saturation
// runs own a private clone each (the translation cache hands out clones),
// and Clone itself only reads the structural fields, so cloning a shared
// pristine automaton from several goroutines remains safe.
type Auto struct {
	PDSStates int
	NumSyms   int // concrete stack alphabet size; virtual symbols follow
	numStates int
	numTrans  int
	accept    []bool              // states past its end are not accepting
	states    chunked[stateEdges] // by state; see NewAuto for the chunk length
	heads     u64map              // chainKey(state, chainSym) -> head edge index, states past scanMax edges only
	sets      []*nfa.Set          // virtual symbol table
	setIdx    map[string]Sym      // set key -> virtual symbol

	// Bump arenas backing the per-state edge slices: growing a state's
	// out-list re-slices a chunk instead of asking the allocator, so the
	// thousands of short out-lists a saturation builds (one per mid
	// state) cost a handful of chunk allocations total. wits holds the
	// witness records of the initial edges and of every edge saturation
	// inserts. Arenas are per-instance and never shared between clones.
	edgeChunk []Edge
	metaChunk []edgeMeta
	wits      witArena

	// Generation-marked visited array and state buffers reused by
	// AcceptsConfig/epsClosure; probes counts index candidate edges
	// consulted, drained into the saturation tallies via takeProbes.
	mark    []uint32
	markGen uint32
	bufA    []State
	bufB    []State
	probes  int64
}

// scanMax is the largest out-degree at which a state finds its chain heads
// by scanning its out-list instead of hashing. Nearly every state a
// saturation adds keeps a single out-edge (DESIGN.md §8), so most states
// never enter the hash.
const scanMax = 8

// minStateShift bounds the state table's chunk length from below (16
// states), so a tiny automaton does not allocate a chunk per AddState.
const minStateShift = 4

// edgeChunkSize is the minimum bump-arena chunk length; 1024 edges ≈ 24
// KiB with their bookkeeping. maxEdgeChunk caps the adaptive growth below
// (about 1.5 MiB per chunk).
const (
	edgeChunkSize = 1024
	maxEdgeChunk  = 1 << 16
)

// nextChunkLen sizes a fresh arena chunk, at least nc. The chunk length
// scales with the transitions inserted so far: small saturations stay at
// the 40 KiB minimum, while paper-scale runs (hundreds of thousands of
// transitions) hand out proportionally larger chunks so the number of
// allocator calls grows logarithmically rather than linearly with the
// automaton.
func (a *Auto) nextChunkLen(nc int) int {
	n := edgeChunkSize
	if t := a.numTrans / 4; t > n {
		n = t
	}
	if n > maxEdgeChunk {
		n = maxEdgeChunk
	}
	if n < nc {
		n = nc
	}
	return n
}

// growEdges gives s's out-list capacity for at least one more edge,
// copying it into fresh arena space (geometric growth, so each edge is
// copied O(1) times amortised). A list starts at one slot: nearly every
// state saturation adds is a mid or chain state with a single out-edge
// (DESIGN.md §8), and a larger first slot would leave most of the arena
// unused.
func (a *Auto) growEdges(se *stateEdges) {
	nc := max(2*cap(se.edges), 1)
	if len(a.edgeChunk) < nc {
		n := a.nextChunkLen(nc)
		a.edgeChunk = make([]Edge, n)
		a.metaChunk = make([]edgeMeta, n)
	}
	ne := a.edgeChunk[0:0:nc]
	nm := a.metaChunk[0:0:nc]
	a.edgeChunk = a.edgeChunk[nc:]
	a.metaChunk = a.metaChunk[nc:]
	se.edges = append(ne, se.edges...)
	se.meta = append(nm, se.meta...)
}

// NewAuto returns an automaton whose first n states mirror the PDS control
// states, with no transitions and no accepting states. The state table's
// first chunk holds the extra states beyond those too, so a caller that
// knows how many it adds (the initial automaton's own states) allocates
// the table once. Every later chunk has the same power-of-two length, so
// a state's slot is a shift and a mask away.
func NewAuto(p *PDS, extra int) *Auto {
	n := p.NumStates
	a := &Auto{
		PDSStates: n,
		NumSyms:   p.NumSyms,
		numStates: n,
		accept:    make([]bool, n, n+extra),
		states:    chunked[stateEdges]{shift: uint(max(bits.Len(uint(n+extra)), minStateShift))},
		setIdx:    make(map[string]Sym),
	}
	a.states.grow(n)
	return a
}

// st returns state s's out-list.
func (a *Auto) st(s State) *stateEdges { return a.states.at(int(s)) }

// Clone returns an independent copy of the automaton that can be saturated
// while the original (and other clones) are used concurrently. State and
// edge bookkeeping is copied; symbol sets and witness records are shared,
// which is safe because both are immutable once created — weighted inputs
// must be normalised with NormalizeWeights before cloning so saturation
// never rewrites a shared record's weight in place.
func (a *Auto) Clone() *Auto {
	b := &Auto{
		PDSStates: a.PDSStates,
		NumSyms:   a.NumSyms,
		numStates: a.numStates,
		numTrans:  a.numTrans,
		accept:    append([]bool(nil), a.accept...),
		states:    chunked[stateEdges]{shift: a.states.shift},
		heads:     a.heads.clone(),
		sets:      append([]*nfa.Set(nil), a.sets...),
		setIdx:    make(map[string]Sym, len(a.setIdx)),
	}
	b.states.grow(a.numStates)
	// One backing array serves every state's out-list, sliced with its
	// capacity capped at its length so a later append (during saturation
	// of the clone) copies that state's list out instead of clobbering
	// its neighbour. This makes Clone O(states) allocation-free per state
	// — it used to be the second-largest allocator in a batch run.
	edges := make([]Edge, a.numTrans)
	meta := make([]edgeMeta, a.numTrans)
	off := 0
	for s := State(0); int(s) < a.numStates; s++ {
		src, dst := a.st(s), b.st(s)
		n := len(src.edges)
		copy(edges[off:off+n], src.edges)
		copy(meta[off:off+n], src.meta)
		dst.edges = edges[off : off+n : off+n]
		dst.meta = meta[off : off+n : off+n]
		off += n
	}
	for k, v := range a.setIdx {
		b.setIdx[k] = v
	}
	return b
}

// NormalizeWeights gives every weightless transition an explicit zero
// vector of the given dimension. A nil weight means the semiring one (no
// cost), but Insert's improvement test reads nil as +∞ — an unweighted edge
// could then be "improved" by a rule-derived weight, corrupting minimality.
// Saturation normalises its input automatically; pre-normalising a pristine
// automaton before Clone keeps shared witness records immutable.
func (a *Auto) NormalizeWeights(dim int) {
	if dim == 0 {
		return
	}
	for s := State(0); int(s) < a.numStates; s++ {
		edges := a.st(s).edges
		for i := range edges {
			if edges[i].Wit.Weight == nil {
				edges[i].Wit.Weight = make([]uint64, dim)
			}
		}
	}
}

// AddState appends a fresh non-accepting extra state. The state table
// grows by a chunk when full and copies no state.
func (a *Auto) AddState() State {
	a.numStates++
	a.states.grow(a.numStates)
	return State(a.numStates - 1)
}

// NumStates returns the total number of states.
func (a *Auto) NumStates() int { return a.numStates }

// SetAccept marks s accepting.
func (a *Auto) SetAccept(s State, v bool) {
	for int(s) >= len(a.accept) {
		a.accept = append(a.accept, false)
	}
	a.accept[s] = v
}

// Accepting reports whether s is accepting.
func (a *Auto) Accepting(s State) bool { return int(s) < len(a.accept) && a.accept[s] }

// Out returns the outgoing edges of s; the slice is shared.
func (a *Auto) Out(s State) []Edge { return a.st(s).edges }

// NumTrans returns the total number of transitions.
func (a *Auto) NumTrans() int { return a.numTrans }

// chainHead returns the newest edge of s's chain cs, or -1. A state with
// at most scanMax edges scans its out-list newest first; the first edge of
// the chain it meets is the head the hash would hold.
func (a *Auto) chainHead(se *stateEdges, s State, cs Sym) int32 {
	if len(se.edges) > scanMax {
		if j, ok := a.heads.get(chainKey(s, cs)); ok {
			return j
		}
		return -1
	}
	for j := len(se.edges) - 1; j >= 0; j-- {
		if a.chainSym(se.edges[j].Sym) == cs {
			return int32(j)
		}
	}
	return -1
}

// indexChains enters every chain head of s into the hash; upsert calls it
// when s's out-list first grows past scanMax.
func (a *Auto) indexChains(s State, se *stateEdges) {
	for j := len(se.edges) - 1; j >= 0; j-- {
		if hp := a.heads.ref(chainKey(s, a.chainSym(se.edges[j].Sym))); *hp == -1 {
			*hp = int32(j)
		}
	}
}

// Get returns the edge for t and whether it exists.
func (a *Auto) Get(t Trans) (Edge, bool) {
	se := a.st(t.From)
	for j := a.chainHead(se, t.From, a.chainSym(t.Sym)); j != -1; j = se.meta[j].next {
		if se.edges[j].Sym == t.Sym && se.edges[j].To == t.To {
			return se.edges[j], true
		}
	}
	return Edge{}, false
}

// SymSet resolves a transition symbol: for a virtual symbol it returns the
// underlying set; for a concrete symbol or Eps it returns nil.
func (a *Auto) SymSet(s Sym) *nfa.Set {
	if s == Eps || int(s) < a.NumSyms {
		return nil
	}
	return a.sets[int(s)-a.NumSyms]
}

// VirtualSym interns a symbol set and returns its virtual symbol. Equal
// sets share one virtual symbol.
func (a *Auto) VirtualSym(set *nfa.Set) Sym {
	k := set.Key()
	if s, ok := a.setIdx[k]; ok {
		return s
	}
	s := Sym(a.NumSyms + len(a.sets))
	a.sets = append(a.sets, set)
	a.setIdx[k] = s
	return s
}

// Matches reports whether an edge symbol admits the concrete stack symbol c.
func (a *Auto) Matches(edgeSym, c Sym) bool {
	if edgeSym == Eps {
		return false
	}
	if set := a.SymSet(edgeSym); set != nil {
		return set.Has(nfa.Sym(c))
	}
	return edgeSym == c
}

// upsert adds the transition or finds that weight w improves it, returning
// the edge's index within t.From's out-list and whether anything changed.
// On a change the caller must set the edge's witness to a record carrying
// w, which is where the edge's weight lives — saturation defers witness
// construction until it knows the insert succeeded, which is where most of
// the old per-pop garbage came from. A nil weight means "unweighted": then
// only novelty counts.
func (a *Auto) upsert(t Trans, w []uint64) (int32, bool) {
	se := a.st(t.From)
	cs := a.chainSym(t.Sym)
	var hp *int32 // the hash slot of the chain head, for a hashed state
	var head int32
	if len(se.edges) > scanMax {
		hp = a.heads.ref(chainKey(t.From, cs))
		head = *hp
	} else {
		head = a.chainHead(se, t.From, cs)
	}
	for j := head; j != -1; j = se.meta[j].next {
		a.probes++
		if se.edges[j].Sym == t.Sym && se.edges[j].To == t.To {
			if w == nil || !lexLess(w, se.edges[j].Wit.Weight) {
				return j, false
			}
			return j, true
		}
	}
	i := int32(len(se.edges))
	if len(se.edges) == cap(se.edges) {
		a.growEdges(se)
	}
	se.edges = append(se.edges, Edge{Sym: t.Sym, To: t.To})
	se.meta = append(se.meta, edgeMeta{next: head})
	a.numTrans++
	if hp != nil {
		*hp = i
	} else if len(se.edges) > scanMax {
		a.indexChains(t.From, se)
	}
	return i, true
}

// Insert adds or updates a transition with the weight its witness record
// carries (wit.Weight). It reports whether the transition is new or its
// weight strictly improved (lexicographically).
func (a *Auto) Insert(t Trans, wit *Witness) bool {
	i, changed := a.upsert(t, wit.Weight)
	if changed {
		a.st(t.From).edges[i].Wit = wit
	}
	return changed
}

// appendMatches appends to dst the targets of every out-edge of s whose
// symbol admits the concrete symbol c, walking the exact-symbol chain and
// the virtual-set chain instead of scanning the whole out-list. Targets are
// not deduplicated; callers dedup where it matters.
func (a *Auto) appendMatches(dst []State, s State, c Sym) []State {
	se := a.st(s)
	for j := a.chainHead(se, s, c); j != -1; j = se.meta[j].next {
		a.probes++
		dst = append(dst, se.edges[j].To)
	}
	for j := a.chainHead(se, s, virtChain); j != -1; j = se.meta[j].next {
		a.probes++
		e := &se.edges[j]
		if a.sets[int(e.Sym)-a.NumSyms].Has(nfa.Sym(c)) {
			dst = append(dst, e.To)
		}
	}
	return dst
}

// takeProbes drains the index-probe counter accumulated by the chain
// walks; the saturation tallies flush it to obs.
func (a *Auto) takeProbes() int64 {
	p := a.probes
	a.probes = 0
	return p
}

// AddEdge inserts an initial (pre-saturation) transition over a concrete
// symbol. Initial automata used as post* input must not have transitions
// into PDS control states.
func (a *Auto) AddEdge(from State, sym Sym, to State) {
	a.addInitial(Trans{from, sym, to}, nil)
}

// AddVirtualEdge inserts an initial transition over a virtual symbol that
// VirtualSym returned, so a set added from many states is interned once.
func (a *Auto) AddVirtualEdge(from State, sym Sym, to State, w []uint64) {
	a.addInitial(Trans{from, sym, to}, w)
}

// addInitial inserts an initial transition, taking its witness record from
// the automaton's arena only when the transition is new or improved.
func (a *Auto) addInitial(t Trans, w []uint64) {
	if i, changed := a.upsert(t, w); changed {
		a.st(t.From).edges[i].Wit = a.wits.new(Witness{Kind: WitInitial, Rule: -1, T: t, Weight: w})
	}
}

// nextMark advances the scratch generation and grows the visited array to
// the current state count; slots still holding older generations read as
// unvisited, so no per-call clearing is needed.
func (a *Auto) nextMark() uint32 {
	for len(a.mark) < a.numStates {
		a.mark = append(a.mark, 0)
	}
	a.markGen++
	if a.markGen == 0 { // generation wrap: stale marks could alias
		for i := range a.mark {
			a.mark[i] = 0
		}
		a.markGen = 1
	}
	return a.markGen
}

// AcceptsConfig reports whether the automaton accepts ⟨c.State, c.Stack⟩,
// traversing epsilon transitions. It reuses the automaton's scratch
// buffers, so concurrent calls on one instance need external
// synchronisation (see the Auto doc comment).
func (a *Auto) AcceptsConfig(c Config) bool {
	cur := a.epsCloseInto(a.bufA[:0], c.State)
	for _, sym := range c.Stack {
		next := a.bufB[:0]
		for _, s := range cur {
			next = a.appendMatches(next, s, sym)
		}
		a.bufB = next
		cur = a.epsCloseInto(cur[:0], next...)
		a.bufA = cur
		if len(cur) == 0 {
			return false
		}
	}
	for _, s := range cur {
		if a.Accepting(s) {
			return true
		}
	}
	return false
}

// epsCloseInto appends the deduplicated ε-closure of states to dst (which
// must not alias states) and returns it.
func (a *Auto) epsCloseInto(dst []State, states ...State) []State {
	gen := a.nextMark()
	for _, s := range states {
		if a.mark[s] != gen {
			a.mark[s] = gen
			dst = append(dst, s)
		}
	}
	for i := 0; i < len(dst); i++ {
		s := dst[i]
		se := a.st(s)
		for j := a.chainHead(se, s, Eps); j != -1; j = se.meta[j].next {
			to := se.edges[j].To
			if a.mark[to] != gen {
				a.mark[to] = gen
				dst = append(dst, to)
			}
		}
	}
	return dst
}

// Validate checks the post* input requirement: no transitions into control
// states.
func (a *Auto) Validate() error {
	for s := State(0); int(s) < a.numStates; s++ {
		edges := a.st(s).edges
		for i := range edges {
			if int(edges[i].To) < a.PDSStates {
				return fmt.Errorf("pds: initial automaton has transition into control state %d", edges[i].To)
			}
		}
	}
	return nil
}

// lexLess reports strict lexicographic order; nil is +∞ (worse than any
// proper vector), and equal-length proper vectors compare element-wise.
func lexLess(a, b []uint64) bool {
	if a == nil {
		return false
	}
	if b == nil {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// lexAdd returns the component-wise sum, treating nil as the neutral
// all-zeros vector of the other operand's length.
func lexAdd(a, b []uint64) []uint64 {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make([]uint64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// u64map is a minimal open-addressing hash from packed uint64 keys to
// int32 values (Fibonacci hashing, linear probing, 75% load factor). It
// replaces the Go map[Trans]int32 transition index: one flat backing array
// instead of per-entry overhead, and a single multiply to hash instead of
// the runtime's generic 12-byte struct hashing. Keys must stay below
// 2⁶³ — slots store key+1 so 0 can mark empty.
type u64map struct {
	keys  []uint64
	vals  []int32
	n     int
	shift uint
}

func (m *u64map) grow() {
	newLen := 16
	if len(m.keys) > 0 {
		newLen = len(m.keys) * 2
	}
	oldK, oldV := m.keys, m.vals
	m.keys = make([]uint64, newLen)
	m.vals = make([]int32, newLen)
	m.shift = uint(64 - bits.TrailingZeros(uint(newLen)))
	for i, sk := range oldK {
		if sk != 0 {
			j := m.slot(sk)
			m.keys[j] = sk
			m.vals[j] = oldV[i]
		}
	}
}

// slot returns the index where the stored key sk lives or would be placed.
func (m *u64map) slot(sk uint64) int {
	mask := len(m.keys) - 1
	i := int((sk * 0x9E3779B97F4A7C15) >> m.shift)
	for {
		if m.keys[i] == 0 || m.keys[i] == sk {
			return i
		}
		i = (i + 1) & mask
	}
}

func (m *u64map) get(k uint64) (int32, bool) {
	if m.n == 0 {
		return 0, false
	}
	i := m.slot(k + 1)
	if m.keys[i] == 0 {
		return 0, false
	}
	return m.vals[i], true
}

// ref returns a pointer to the value slot for k, inserting the key with
// value -1 if absent. The pointer is only valid until the next ref call
// (which may rehash).
func (m *u64map) ref(k uint64) *int32 {
	if m.n*4 >= len(m.keys)*3 {
		m.grow()
	}
	sk := k + 1
	i := m.slot(sk)
	if m.keys[i] == 0 {
		m.keys[i] = sk
		m.vals[i] = -1
		m.n++
	}
	return &m.vals[i]
}

// clear removes every key and keeps the table's size.
func (m *u64map) clear() {
	clear(m.keys)
	m.n = 0
}

func (m *u64map) clone() u64map {
	return u64map{
		keys:  append([]uint64(nil), m.keys...),
		vals:  append([]int32(nil), m.vals...),
		n:     m.n,
		shift: m.shift,
	}
}
