// Package translate builds (weighted) pushdown systems from an MPLS network
// and a compiled query, following §4.2 of the AalWiNes paper:
//
//   - control states are (incoming link, path-NFA state) pairs — extended
//     with a global failure counter for the under-approximation — plus
//     fresh chain states that decompose multi-operation sequences into
//     normalised pop/swap/push rules;
//   - the stack is the MPLS header over the interned label alphabet with a
//     bottom marker ⊥;
//   - the initial P-automaton encodes "packet enters on some link e₁ with a
//     header in Lang(a)", the final specification encodes Lang(c);
//   - the over-approximation admits a priority group whenever its locally
//     required failure set has size ≤ k; the under-approximation threads a
//     global failure budget through the control state.
//
// The product comes in two forms built by one rule generator (chain.go).
// The on-the-fly form (Options.Slice) is generated per head while post*
// runs, indexed by the routing table's sorted view (lazy.go). The eager
// form drives the generator over the whole routing table up front and then
// removes unreachable rules with a top-of-stack dataflow analysis, the
// paper's reduction step (eager.go, reductions.go).
package translate

import (
	"slices"

	"aalwines/internal/labels"
	"aalwines/internal/network"
	"aalwines/internal/nfa"
	"aalwines/internal/obs"
	"aalwines/internal/pds"
	"aalwines/internal/query"
	"aalwines/internal/topology"
	"aalwines/internal/weight"
)

// Mode selects the approximation direction.
type Mode uint8

const (
	// Over builds the over-approximation: up to k links may fail at every
	// router independently.
	Over Mode = iota
	// Under builds the under-approximation: a global failure counter in
	// the control state bounds the total (with possible double counting
	// along loops).
	Under
)

// Options configure the construction.
type Options struct {
	Mode Mode
	// Spec, when non-nil, makes the system weighted: every step rule
	// carries the vector of per-step contributions to the spec's linear
	// expressions.
	Spec weight.Spec
	// Dist overrides the link distance function for the Distance quantity.
	Dist weight.DistanceFunc
	// NoReductions disables the top-of-stack reduction of the eager
	// product (ablation switch).
	NoReductions bool
	// Slice builds the on-the-fly product: the PDS starts with no rules,
	// and post* generates a head's rules the first time it reaches the
	// head, so only the slice of the network the query explores is ever
	// built. Saturating it pops, pushes and inserts exactly what the
	// eager product does, so the verification result is byte-identical;
	// there is no reduction pass. Without Slice, Build returns the eager,
	// reduced product. Incremental builds are always eager.
	Slice bool
}

// StepInfo describes the network-level action of a tagged rule: the packet
// is forwarded out of link Out using priority group Group (0-based).
type StepInfo struct {
	Out   topology.LinkID
	Group int
}

// System is a constructed pushdown system ready for saturation.
type System struct {
	Net   *network.Network
	Query *query.Query
	Opts  Options

	PDS *pds.PDS
	Bot pds.Sym // the bottom-of-stack marker symbol
	Dim int     // weight dimension (0 = unweighted)
	// Steps maps the tags of the eager product's rules to steps. On the
	// fly it is empty: a tag there numbers a routing entry (see
	// routing.Table.In), which knows its own step.
	Steps []StepInfo

	// FinalStates are the control states from which the final stack
	// specification is checked.
	FinalStates []pds.State
	// FinalSpec is an epsilon-free NFA over the stack alphabet accepting
	// Lang(c)·⊥.
	FinalSpec *nfa.NFA

	// RulesBeforeReduction records the rule count before the reduction
	// pass (equal to len(PDS.Rules) when reductions are disabled, 0 on
	// the fly).
	RulesBeforeReduction int

	// SliceStats is always zero. Query-scoped slicing gave way to the
	// on-the-fly product; the field stays only because the benchmark
	// module reads its KeysKept and KeysDropped.
	SliceStats SliceStats

	numB    int // path NFA states
	kBudget int // failure budget levels for state encoding (1 for Over)
	baseCnt int // number of base control states

	// targetOff/targetTo list, for path-NFA state qb and link e at index
	// qb*numLinks+e, the ascending distinct states δ_B(qb, e).
	targetOff []int32
	targetTo  []int32
}

// SliceStats is the zero-valued remnant of query-scoped slicing; see
// System.SliceStats.
type SliceStats struct {
	KeysKept    int
	KeysDropped int
}

// Build constructs the pushdown system for a network and query: the
// on-the-fly product with opts.Slice, the eager one without.
func Build(net *network.Network, q *query.Query, opts Options) *System {
	s := newSystem(net, q, opts)
	if opts.Slice {
		s.PDS.Gen = headGen{s}
		return s
	}
	b := &builder{System: s}
	b.construct()
	return s
}

// Rule counts of every build: the eager product's rules before and after
// the reduction pass, plus every rule the on-the-fly product generates
// (counted as both emitted and kept, since nothing reduces them).
var (
	mRulesEmitted = obs.GetCounter("translate_rules_emitted_total")
	mRulesKept    = obs.GetCounter("translate_rules_kept_total")
)

// newSystem sets up everything but the rules: the state encoding, the
// path-NFA successor table and the final specification.
func newSystem(net *network.Network, q *query.Query, opts Options) *System {
	s := &System{Net: net, Query: q, Opts: opts}
	s.numB = q.PathNFA.NumStates()
	s.kBudget = 1
	if opts.Mode == Under {
		s.kBudget = q.MaxFailures + 1
	}
	if opts.Spec != nil {
		s.Dim = len(opts.Spec)
	}
	L := net.Labels.Len()
	s.Bot = pds.Sym(L)
	s.baseCnt = net.Topo.NumLinks() * s.numB * s.kBudget
	s.PDS = pds.New(s.baseCnt, L+1)
	s.buildTargets()
	s.buildFinal()
	return s
}

// buildTargets tabulates the path NFA's successors per (state, link).
func (s *System) buildTargets() {
	nl := s.Net.Topo.NumLinks()
	pathNFA := s.Query.PathNFA
	s.targetOff = make([]int32, s.numB*nl+1)
	seen := make([]int, s.numB) // dedup stamp per target, generation = slot+1
	for qb := 0; qb < s.numB; qb++ {
		for e := 0; e < nl; e++ {
			i := qb*nl + e
			s.targetOff[i] = int32(len(s.targetTo))
			n := len(s.targetTo)
			for _, arc := range pathNFA.Arcs(qb) {
				if arc.Set.Has(nfa.Sym(e)) && seen[arc.To] != i+1 {
					seen[arc.To] = i + 1
					s.targetTo = append(s.targetTo, int32(arc.To))
				}
			}
			slices.Sort(s.targetTo[n:])
		}
	}
	s.targetOff[s.numB*nl] = int32(len(s.targetTo))
}

// targets returns δ_B(qb, e) in ascending order.
func (s *System) targets(qb int, e topology.LinkID) []int32 {
	i := qb*s.Net.Topo.NumLinks() + int(e)
	return s.targetTo[s.targetOff[i]:s.targetOff[i+1]]
}

// stateOf maps a base control state (incoming link, path-NFA state, failure
// budget used) to its PDS state index.
func (s *System) stateOf(e topology.LinkID, qb int, f int) pds.State {
	return pds.State((int(e)*s.numB+qb)*s.kBudget + f)
}

// DecodeState inverts stateOf for base states; ok is false for chain
// states.
func (s *System) DecodeState(st pds.State) (e topology.LinkID, qb int, f int, ok bool) {
	if int(st) >= s.baseCnt {
		return 0, 0, 0, false
	}
	f = int(st) % s.kBudget
	rest := int(st) / s.kBudget
	return topology.LinkID(rest / s.numB), rest % s.numB, f, true
}

// LabelSymOf converts a label to its stack symbol.
func LabelSymOf(id labels.ID) pds.Sym { return pds.Sym(id - 1) }

// SymLabel converts a stack symbol back to a label; ok is false for ⊥.
func (s *System) SymLabel(sym pds.Sym) (labels.ID, bool) {
	if sym == s.Bot {
		return labels.None, false
	}
	return labels.ID(sym + 1), true
}

// step returns the network step a rule tag stands for.
func (s *System) step(tag int32) StepInfo {
	if s.PDS.Gen == nil {
		return s.Steps[tag]
	}
	e, group := s.Net.Routing.Entry(tag)
	return StepInfo{Out: e.Out, Group: group}
}

// Generated returns how many rules the latest saturation of an on-the-fly
// system generated; it is 0 for an eager one.
func (s *System) Generated() int {
	if s.PDS.Gen == nil {
		return 0
	}
	return len(s.PDS.Rules)
}

// share returns the System one caller may saturate. An eager System is
// immutable and shared as is. An on-the-fly one gets its own PDS header,
// whose rule store each saturation replaces, over the shared generator.
func (s *System) share() *System {
	if s.PDS.Gen == nil {
		return s
	}
	c := *s
	p := *s.PDS
	c.PDS = &p
	return &c
}

// buildFinal computes the final control states and the final stack
// specification Lang(c)·⊥.
func (s *System) buildFinal() {
	L := s.Net.Labels.Len()
	post := s.Query.PostNFA
	spec := nfa.New(L + 1)
	// Map PostNFA states into spec (state 0 of post maps to spec start).
	m := make([]nfa.State, post.NumStates())
	for i := 0; i < post.NumStates(); i++ {
		if i == post.Start() {
			m[i] = spec.Start()
		} else {
			m[i] = spec.AddState()
		}
	}
	final := spec.AddState()
	spec.SetAccept(final, true)
	botSet := nfa.SetOf(L+1, nfa.Sym(s.Bot))
	for i := 0; i < post.NumStates(); i++ {
		for _, arc := range post.Arcs(i) {
			spec.AddArc(m[i], liftSet(arc.Set, L+1), m[arc.To])
		}
		if post.Accepting(i) {
			spec.AddArc(m[i], botSet, final)
		}
	}
	s.FinalSpec = spec

	for e := 0; e < s.Net.Topo.NumLinks(); e++ {
		for qb := 0; qb < s.numB; qb++ {
			if !s.Query.PathNFA.Accepting(qb) {
				continue
			}
			for f := 0; f < s.kBudget; f++ {
				s.FinalStates = append(s.FinalStates, s.stateOf(topology.LinkID(e), qb, f))
			}
		}
	}
}

// liftSet copies a symbol set into a larger universe.
func liftSet(s *nfa.Set, universe int) *nfa.Set {
	out := nfa.NewSet(universe)
	s.Each(func(x nfa.Sym) bool {
		out.Add(x)
		return true
	})
	return out
}

// InitAuto builds the initial P-automaton: it accepts ⟨(e₁,q₁,0), h·⊥⟩ for
// every link e₁ with δ_B(q₀,e₁) ∋ q₁ and every h ∈ Lang(a). In weighted
// mode the first-symbol edges carry the first link's step weight (Links,
// Hops and Distance count the entry link; Failures and Tunnels are defined
// over consecutive pairs and contribute nothing).
func (s *System) InitAuto() *pds.Auto {
	a := pds.NewAuto(s.PDS)
	pre := s.Query.PreNFA
	L := s.Net.Labels.Len()
	m := make([]pds.State, pre.NumStates())
	for i := range m {
		m[i] = a.AddState()
	}
	botAccept := a.AddState()
	a.SetAccept(botAccept, true)
	// Interior and accepting structure of Lang(a). Each arc set is lifted
	// into the stack alphabet and interned once: the entry edges below
	// reuse the start state's symbols for every link, where lifting per
	// link copied a label-alphabet-sized set each time.
	start := pre.Start()
	startSyms := make([]pds.Sym, len(pre.Arcs(start)))
	for i := 0; i < pre.NumStates(); i++ {
		for j, arc := range pre.Arcs(i) {
			if arc.Set.IsEmpty() {
				continue
			}
			sym := a.VirtualSym(liftSet(arc.Set, L+1))
			if i == start {
				startSyms[j] = sym
			}
			a.AddVirtualEdge(m[i], sym, m[arc.To], nil)
		}
		if pre.Accepting(i) {
			a.AddEdge(m[i], s.Bot, botAccept)
		}
	}
	// Entry edges from control states.
	bStart := s.Query.PathNFA.Start()
	for e := 0; e < s.Net.Topo.NumLinks(); e++ {
		var w []uint64
		if s.Opts.Spec != nil {
			atoms := weight.StepAtoms(s.Net.Topo, topology.LinkID(e), s.Opts.Dist, 0, 0)
			w = s.Opts.Spec.Eval(atoms)
		}
		var q1s []int
		for _, arc := range s.Query.PathNFA.Arcs(bStart) {
			if arc.Set.Has(nfa.Sym(e)) {
				q1s = append(q1s, arc.To)
			}
		}
		for _, q1 := range q1s {
			ctl := s.stateOf(topology.LinkID(e), q1, 0)
			for j, arc := range pre.Arcs(start) {
				if !arc.Set.IsEmpty() {
					a.AddVirtualEdge(ctl, startSyms[j], m[arc.To], w)
				}
			}
		}
	}
	return a
}
