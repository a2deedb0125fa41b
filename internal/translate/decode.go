package translate

import (
	"fmt"

	"aalwines/internal/labels"
	"aalwines/internal/network"
	"aalwines/internal/pds"
)

// DecodeHeader converts a PDS stack (which must end in exactly one ⊥) back
// into an MPLS header.
func (s *System) DecodeHeader(stack []pds.Sym) (labels.Header, error) {
	if len(stack) == 0 || stack[len(stack)-1] != s.Bot {
		return nil, fmt.Errorf("translate: stack %v does not end in ⊥", stack)
	}
	h := make(labels.Header, 0, len(stack)-1)
	for _, sym := range stack[:len(stack)-1] {
		id, ok := s.SymLabel(sym)
		if !ok {
			return nil, fmt.Errorf("translate: ⊥ in the middle of stack %v", stack)
		}
		h = append(h, id)
	}
	return h, nil
}

// DecodeTrace converts a witness derivation — an initial configuration and
// the rule sequence applied to it — into the network trace it encodes. The
// first step is recovered from the initial control state; each tagged rule
// opens a forwarding step whose arrival header is the stack once the rule's
// chain has completed (i.e. just before the next tagged rule, or at the end
// of the derivation).
func (s *System) DecodeTrace(init pds.Config, rules []int32) (network.Trace, error) {
	e1, _, _, ok := s.DecodeState(init.State)
	if !ok {
		return nil, fmt.Errorf("translate: initial state %d is not a base control state", init.State)
	}
	h1, err := s.DecodeHeader(init.Stack)
	if err != nil {
		return nil, err
	}
	if len(h1) == 0 {
		return nil, fmt.Errorf("translate: empty initial header")
	}
	tr := network.Trace{{Link: e1, Header: h1}}

	// Replay to obtain all intermediate configurations.
	cur := init
	configs := make([]pds.Config, 0, len(rules)+1)
	configs = append(configs, cur)
	for _, ri := range rules {
		next, ok := cur.Step(s.PDS.Rules[ri])
		if !ok {
			return nil, fmt.Errorf("translate: rule %d does not apply during replay", ri)
		}
		cur = next
		configs = append(configs, cur)
	}

	// Segment the derivation at tagged rules.
	for i := 0; i < len(rules); i++ {
		tag := s.PDS.Rules[rules[i]].Tag
		if tag < 0 {
			return nil, fmt.Errorf("translate: chain rule %d outside any step", rules[i])
		}
		step := s.step(tag)
		// The chain ends right before the next tagged rule.
		j := i + 1
		for j < len(rules) && s.PDS.Rules[rules[j]].Tag < 0 {
			j++
		}
		h, err := s.DecodeHeader(configs[j].Stack)
		if err != nil {
			return nil, err
		}
		tr = append(tr, network.Step{Link: step.Out, Header: h})
		i = j - 1
	}
	return tr, nil
}
