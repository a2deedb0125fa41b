// Package pds implements pushdown systems and the P-automaton saturation
// algorithms that decide reachability between regular sets of
// configurations: post* and pre* (Bouajjani–Esparza–Maler 1997; the
// worklist formulations follow Schwoon's thesis, 2002). Transitions carry
// witness records from which the engine reconstructs the rule sequence —
// and hence the network trace — that justifies reachability.
//
// The weighted generalisation (Reps–Schwoon–Jha–Melski 2005) used by the
// quantitative engine lives in internal/wpds and shares these types.
package pds

import (
	"fmt"
	"sort"
)

// State is a control state of the pushdown system, or an extra state of a
// P-automaton. Control states are the dense range [0, NumStates).
type State int32

// Sym is a stack symbol. The value Eps marks epsilon transitions inside
// P-automata; it is never a real stack symbol.
type Sym uint32

// Eps is the pseudo-symbol of epsilon transitions in P-automata.
const Eps Sym = ^Sym(0)

// RuleKind distinguishes the three normalised rule shapes.
type RuleKind uint8

const (
	// PopRule is ⟨p,γ⟩ ↪ ⟨p′,ε⟩.
	PopRule RuleKind = iota
	// SwapRule is ⟨p,γ⟩ ↪ ⟨p′,γ′⟩.
	SwapRule
	// PushRule is ⟨p,γ⟩ ↪ ⟨p′,γ′γ″⟩ where γ′ is the new top of stack.
	PushRule
)

// Rule is a normalised pushdown rule. Weight is the rule's weight vector in
// the lexicographic min-plus semiring (nil means the semiring one, i.e. no
// cost) and is ignored by the unweighted algorithms. Tag is an opaque
// reference for the translator: it identifies the network-level action the
// rule encodes so witness rule sequences can be replayed into traces.
type Rule struct {
	FromState State
	FromSym   Sym
	ToState   State
	Kind      RuleKind
	Sym1      Sym // swap: the new top; push: the new top γ′
	Sym2      Sym // push only: the symbol below the new top γ″
	Weight    []uint64
	Tag       int32
}

// String renders the rule for diagnostics.
func (r Rule) String() string {
	switch r.Kind {
	case PopRule:
		return fmt.Sprintf("<%d,%d> -> <%d,eps>", r.FromState, r.FromSym, r.ToState)
	case SwapRule:
		return fmt.Sprintf("<%d,%d> -> <%d,%d>", r.FromState, r.FromSym, r.ToState, r.Sym1)
	default:
		return fmt.Sprintf("<%d,%d> -> <%d,%d %d>", r.FromState, r.FromSym, r.ToState, r.Sym1, r.Sym2)
	}
}

// PDS is a pushdown system: a number of control states, a stack alphabet
// size and a rule set.
//
// A PDS with Gen set is on the fly: it is built with no rules, and each
// post* run generates the rules of the heads it reaches (see Generator
// and PoststarOpts). Its NumStates counts the base control states only;
// the chain states a run generates live in that run's automaton.
type PDS struct {
	NumStates int
	NumSyms   int
	// Rules lists the rules of an eager PDS. On the fly it holds the rules
	// the latest post* run generated.
	Rules []Rule
	// Gen, when set, makes the PDS on the fly.
	Gen Generator

	// Packed rule indexes, built by Freeze or lazily on first use. Both
	// are CSR-style: one flat int32 array of rule indices plus offsets,
	// instead of the previous map-of-slices/slice-of-slices layout whose
	// per-head slice headers and append regrowth dominated index memory at
	// paper scale. stateIdx[stateOff[s]:stateOff[s+1]] lists the rules
	// headed at state s; headIdx[r.off:r.off+r.n] those headed at a packed
	// (state, symbol) pair — both in ascending rule order, which callers
	// rely on for deterministic saturation.
	stateOff []int32
	stateIdx []int32
	byHead   map[uint64]headRange
	headIdx  []int32
}

// headRange locates one head's rules inside headIdx.
type headRange struct{ off, n int32 }

// headKey packs a rule head into a collision-free map key: states and
// symbols are both 32-bit.
func headKey(s State, g Sym) uint64 {
	return uint64(uint32(s))<<32 | uint64(g)
}

// New returns an empty PDS with the given control state count and stack
// alphabet size.
func New(numStates, numSyms int) *PDS {
	return &PDS{NumStates: numStates, NumSyms: numSyms}
}

// AddState appends a fresh control state and returns it.
func (p *PDS) AddState() State {
	p.NumStates++
	return State(p.NumStates - 1)
}

// AddRule appends a rule. The head must be a valid (state, symbol) pair.
func (p *PDS) AddRule(r Rule) {
	if int(r.FromState) >= p.NumStates || int(r.ToState) >= p.NumStates {
		panic(fmt.Sprintf("pds: rule %v references state outside [0,%d)", r, p.NumStates))
	}
	if int(r.FromSym) >= p.NumSyms {
		panic(fmt.Sprintf("pds: rule %v references symbol outside [0,%d)", r, p.NumSyms))
	}
	p.Rules = append(p.Rules, r)
	p.stateOff, p.stateIdx = nil, nil
	p.byHead, p.headIdx = nil, nil
}

// ReserveRules pre-sizes the rule slice for about n rules. Translation
// knows the network's rule count up front; reserving once avoids the
// append-doubling churn that dominated build allocations at paper scale.
func (p *PDS) ReserveRules(n int) {
	if cap(p.Rules) >= n {
		return
	}
	rules := make([]Rule, len(p.Rules), n)
	copy(rules, p.Rules)
	p.Rules = rules
}

// Freeze eagerly builds the rule indexes. A PDS shared by concurrent
// readers (several saturations over one translated system) must be frozen
// first: RulesFromState and RulesFrom otherwise build their indexes lazily
// on first use, which is a data race when two saturators hit the same cold
// index. AddRule after Freeze re-enters the lazy regime.
func (p *PDS) Freeze() {
	p.buildStateIdx()
	p.buildHeadIdx()
}

// buildStateIdx builds the by-state CSR: counting pass, prefix sums, then
// a fill pass in rule order (which keeps each state's list ascending).
func (p *PDS) buildStateIdx() {
	off := make([]int32, p.NumStates+1)
	for i := range p.Rules {
		off[p.Rules[i].FromState+1]++
	}
	for s := 0; s < p.NumStates; s++ {
		off[s+1] += off[s]
	}
	idx := make([]int32, len(p.Rules))
	cur := make([]int32, p.NumStates)
	copy(cur, off[:p.NumStates])
	for i := range p.Rules {
		f := p.Rules[i].FromState
		idx[cur[f]] = int32(i)
		cur[f]++
	}
	p.stateOff, p.stateIdx = off, idx
}

// buildHeadIdx builds the by-head index: per-head counts, offsets into one
// flat array, then a fill pass in rule order. The map holds fixed-size
// ranges, not slices, so there is exactly one backing allocation however
// many heads exist.
func (p *PDS) buildHeadIdx() {
	byHead := make(map[uint64]headRange, len(p.Rules))
	for i := range p.Rules {
		k := headKey(p.Rules[i].FromState, p.Rules[i].FromSym)
		hr := byHead[k]
		hr.n++
		byHead[k] = hr
	}
	var off int32
	for k, hr := range byHead {
		n := hr.n
		byHead[k] = headRange{off: off, n: 0}
		off += n
	}
	idx := make([]int32, len(p.Rules))
	for i := range p.Rules {
		k := headKey(p.Rules[i].FromState, p.Rules[i].FromSym)
		hr := byHead[k]
		idx[hr.off+hr.n] = int32(i)
		hr.n++
		byHead[k] = hr
	}
	p.byHead, p.headIdx = byHead, idx
}

// RulesFromState returns the indices of rules whose head state is s; used
// when matching rules against symbol-set transitions.
func (p *PDS) RulesFromState(s State) []int32 {
	if p.stateOff == nil {
		p.buildStateIdx()
	}
	return p.stateIdx[p.stateOff[s]:p.stateOff[s+1]]
}

// RulesFrom returns the indices of rules with head ⟨s,γ⟩.
func (p *PDS) RulesFrom(s State, g Sym) []int32 {
	if p.byHead == nil {
		p.buildHeadIdx()
	}
	hr := p.byHead[headKey(s, g)]
	return p.headIdx[hr.off : hr.off+hr.n]
}

// Stats summarises a PDS for diagnostics and the reduction reports.
type Stats struct {
	States, Syms, Rules int
	Pop, Swap, Push     int
}

// Stats returns rule counts by kind.
func (p *PDS) Stats() Stats {
	st := Stats{States: p.NumStates, Syms: p.NumSyms, Rules: len(p.Rules)}
	for _, r := range p.Rules {
		switch r.Kind {
		case PopRule:
			st.Pop++
		case SwapRule:
			st.Swap++
		case PushRule:
			st.Push++
		}
	}
	return st
}

// Config is a pushdown configuration ⟨p, w⟩ with w written top-first.
type Config struct {
	State State
	Stack []Sym
}

// String renders the configuration.
func (c Config) String() string {
	syms := make([]string, len(c.Stack))
	for i, s := range c.Stack {
		syms[i] = fmt.Sprintf("%d", s)
	}
	return fmt.Sprintf("<%d; %v>", c.State, syms)
}

// Step applies one rule to a configuration if its head matches; ok reports
// whether it applied. Used by tests and by witness replay.
func (c Config) Step(r Rule) (Config, bool) {
	if len(c.Stack) == 0 || c.State != r.FromState || c.Stack[0] != r.FromSym {
		return Config{}, false
	}
	rest := c.Stack[1:]
	switch r.Kind {
	case PopRule:
		return Config{State: r.ToState, Stack: rest}, true
	case SwapRule:
		st := make([]Sym, 0, len(rest)+1)
		st = append(st, r.Sym1)
		st = append(st, rest...)
		return Config{State: r.ToState, Stack: st}, true
	case PushRule:
		st := make([]Sym, 0, len(rest)+2)
		st = append(st, r.Sym1, r.Sym2)
		st = append(st, rest...)
		return Config{State: r.ToState, Stack: st}, true
	}
	return Config{}, false
}

// SortRulesDeterministic orders the rule slice for reproducible output;
// used by the Moped text exporter and tests.
func SortRulesDeterministic(rules []Rule) {
	sort.Slice(rules, func(i, j int) bool {
		a, b := rules[i], rules[j]
		if a.FromState != b.FromState {
			return a.FromState < b.FromState
		}
		if a.FromSym != b.FromSym {
			return a.FromSym < b.FromSym
		}
		if a.ToState != b.ToState {
			return a.ToState < b.ToState
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Sym1 != b.Sym1 {
			return a.Sym1 < b.Sym1
		}
		return a.Sym2 < b.Sym2
	})
}
