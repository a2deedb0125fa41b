package translate

import (
	"aalwines/internal/labels"
	"aalwines/internal/pds"
	"aalwines/internal/routing"
)

// The rule generator: one routing entry, fired from one control state
// towards one target state, becomes a chain of normalised pop/swap/push
// rules. The eager build and the on-the-fly product share it and differ
// only in the loop that drives it and in where rules and chain states go.

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
// appended depth first: each rule is followed by the chain below it. It
// reports whether at least one rule was emitted. Only the first rule of a
// chain carries the tag and weight.
func (c *chainEmitter) emit(cur pds.State, st symStack, ops routing.Ops, to pds.State, tag int32, w []uint64) bool {
	if len(ops) == 0 {
		// Forwarding without header rewrite: a no-op swap moves control.
		any := false
		for _, t := range c.candidates(st) {
			c.out = append(c.out, pds.Rule{
				FromState: cur, FromSym: LabelSymOf(t),
				ToState: to, Kind: pds.SwapRule, Sym1: LabelSymOf(t),
				Weight: w, Tag: tag,
			})
			any = true
		}
		return any
	}
	op := ops[0]
	rest := ops[1:]
	lt := c.lt
	any := false
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
		rule.Weight = w
		rule.Tag = tag
		c.out = append(c.out, rule)
		emitted := true
		if len(rest) > 0 {
			emitted = c.emit(dst, next, rest, to, -1, nil)
		}
		any = any || emitted
	}
	return any
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
