package translate

import (
	"aalwines/internal/labels"
	"aalwines/internal/pds"
	"aalwines/internal/routing"
	"aalwines/internal/weight"
)

// The rule generator: one routing entry, fired from one control state
// towards one target state, becomes a chain of normalised pop/swap/push
// rules. emitKey is the one loop that drives it over a routing key's
// entries. The eager build calls it once per key for every control state
// of the key's link, the on-the-fly product once per head for the one
// control state the head names; they differ only in the states they ask
// for and in where rules and chain states go.

// emitKey appends to dst the rules of routing key key, whose groups are gs
// and whose first entry is numbered first (routing.Table.In), fired from
// the control states (key.In, qb, f) for qb in [qbLo, qbHi) and f in
// [fLo, fHi). The loop runs group, entry, path-NFA state, target, failure
// level, and stops at the first group that needs more failures than the
// query allows. Each chain's first rule is tagged with its entry's number,
// so a tag names the same entry in both products and decodes through
// routing.Table.Entry. An entry's weight vector is added to wts once,
// before its first chain. Chain states come from newState.
func (s *System) emitKey(dst []pds.Rule, wts *pds.Weights, newState func() pds.State,
	key routing.Key, gs routing.Groups, first int32, qbLo, qbHi, fLo, fHi int) []pds.Rule {
	em := chainEmitter{lt: s.Net.Labels, out: dst, newState: newState}
	init := topStack(s.Net.Labels, key.Top) // chains never modify their input stack
	tag := first
	for j := range gs {
		nFail := gs.PrefixFailures(j)
		if nFail > s.Query.MaxFailures {
			break // prefixes only grow with j
		}
		for _, entry := range gs[j].Entries {
			w := int32(-1)
			for qb := qbLo; qb < qbHi; qb++ {
				for _, q2 := range s.targets(qb, entry.Out) {
					for f := fLo; f < fHi; f++ {
						f2, ok := s.nextBudget(f, nFail)
						if !ok {
							continue
						}
						if w < 0 {
							w = wts.Add(s.stepWeight(entry, nFail))
						}
						to := s.stateOf(entry.Out, int(q2), f2)
						em.emit(s.stateOf(key.In, qb, f), init, entry.Ops, to, tag, w)
					}
				}
			}
			tag++
		}
	}
	return em.out
}

// stepWeight is the weight vector of forwarding by entry after nFail
// failures, or nil when the system is unweighted.
func (s *System) stepWeight(entry routing.Entry, nFail int) []uint64 {
	if s.Opts.Spec == nil {
		return nil
	}
	atoms := weight.StepAtoms(s.Net.Topo, entry.Out, s.Opts.Dist, nFail, entry.Ops.StackGrowth())
	return s.Opts.Spec.Eval(atoms)
}

// nextBudget returns the failure level after a step that needs nFail
// failures from level f, and false when it exceeds the budget. The
// over-approximation keeps a single level.
func (s *System) nextBudget(f, nFail int) (int, bool) {
	if s.Opts.Mode != Under {
		return f, true
	}
	f2 := f + nFail
	return f2, f2 < s.kBudget
}

// kindMask tracks the possible kinds of an unknown stack symbol.
type kindMask uint8

const (
	maskMPLS kindMask = 1 << iota
	maskBottom
	maskIP
)

func kindBit(k labels.Kind) kindMask {
	switch k {
	case labels.MPLS:
		return maskMPLS
	case labels.BottomMPLS:
		return maskBottom
	default:
		return maskIP
	}
}

// belowKinds returns the possible kinds of the symbol directly below a
// symbol of kind k in a valid header (⊥ below an IP label is not a label).
func belowKinds(k labels.Kind) kindMask {
	switch k {
	case labels.MPLS:
		return maskMPLS | maskBottom
	case labels.BottomMPLS:
		return maskIP
	default:
		return 0
	}
}

// symStack is the symbolic top of stack during chain construction: a known
// prefix (top first) over an unknown tail whose first symbol has a kind in
// tail.
type symStack struct {
	known []labels.ID
	tail  kindMask
}

// topStack is the symbolic stack a rule chain starts from: the routing
// key's top label over whatever a valid header allows below it.
func topStack(lt *labels.Table, top labels.ID) symStack {
	return symStack{known: []labels.ID{top}, tail: belowKinds(lt.Kind(top))}
}

// chainEmitter appends rule chains to out, allocating chain states with
// newState.
type chainEmitter struct {
	lt       *labels.Table
	out      []pds.Rule
	newState func() pds.State
}

// emit appends the normalised rule chain for an op sequence, branching
// over candidate symbols when the top of stack is unknown. Rules are
// appended depth first: each rule is followed by the chain below it. Only
// the first rule of a chain carries the tag and the weight, which w names
// (pds.Rule.W).
func (c *chainEmitter) emit(cur pds.State, st symStack, ops routing.Ops, to pds.State, tag, w int32) {
	if len(ops) == 0 {
		// Forwarding without header rewrite: a no-op swap moves control.
		for _, t := range c.candidates(st) {
			c.out = append(c.out, pds.Rule{
				FromState: cur, FromSym: LabelSymOf(t),
				ToState: to, Kind: pds.SwapRule, Sym1: LabelSymOf(t),
				Tag: tag, W: w,
			})
		}
		return
	}
	op := ops[0]
	rest := ops[1:]
	lt := c.lt
	for _, t := range c.candidates(st) {
		var next symStack
		var rule pds.Rule
		switch op.Kind {
		case routing.OpSwap:
			if lt.Kind(op.Label) != lt.Kind(t) {
				continue // swap must preserve the label kind (validity)
			}
			rule = pds.Rule{Kind: pds.SwapRule, Sym1: LabelSymOf(op.Label)}
			next = st.afterSwap(t, op.Label, lt)
		case routing.OpPush:
			if !labels.ValidOnTopOf(lt, op.Label, t) {
				continue
			}
			rule = pds.Rule{Kind: pds.PushRule, Sym1: LabelSymOf(op.Label), Sym2: LabelSymOf(t)}
			next = st.afterPush(t, op.Label, lt)
		case routing.OpPop:
			if kk := lt.Kind(t); kk != labels.MPLS && kk != labels.BottomMPLS {
				continue
			}
			rule = pds.Rule{Kind: pds.PopRule}
			next = st.afterPop(t, lt)
		}
		dst := to
		if len(rest) > 0 {
			dst = c.newState()
		}
		rule.FromState = cur
		rule.FromSym = LabelSymOf(t)
		rule.ToState = dst
		rule.Tag = tag
		rule.W = w
		c.out = append(c.out, rule)
		if len(rest) > 0 {
			c.emit(dst, next, rest, to, -1, 0)
		}
	}
}

// candidates returns the concrete labels the symbolic top may be, in
// ascending ID order.
func (c *chainEmitter) candidates(st symStack) []labels.ID {
	if len(st.known) > 0 {
		return st.known[:1]
	}
	var out []labels.ID
	for _, l := range c.lt.All() {
		if kindBit(l.Kind)&st.tail != 0 {
			out = append(out, l.ID)
		}
	}
	return out
}

func (st symStack) afterSwap(t, l labels.ID, lt *labels.Table) symStack {
	if len(st.known) > 0 {
		known := append([]labels.ID{l}, st.known[1:]...)
		return symStack{known: known, tail: st.tail}
	}
	return symStack{known: []labels.ID{l}, tail: belowKinds(lt.Kind(t))}
}

func (st symStack) afterPush(t, l labels.ID, lt *labels.Table) symStack {
	if len(st.known) > 0 {
		known := append([]labels.ID{l}, st.known...)
		return symStack{known: known, tail: st.tail}
	}
	return symStack{known: []labels.ID{l, t}, tail: belowKinds(lt.Kind(t))}
}

func (st symStack) afterPop(t labels.ID, lt *labels.Table) symStack {
	if len(st.known) > 0 {
		return symStack{known: st.known[1:], tail: st.tail}
	}
	return symStack{known: nil, tail: belowKinds(lt.Kind(t))}
}
