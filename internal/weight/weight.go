// Package weight implements the quantitative extension of §3 of the
// AalWiNes paper: atomic quantities of network traces (Links, Hops,
// Distance, Failures, Tunnels), linear expressions over them, priority
// vectors of expressions compared lexicographically. The weighted
// pushdown reachability of the verification engine (internal/pds) works
// in the bounded idempotent semiring these vectors form: ⊕ is the
// lexicographic minimum and ⊗ component-wise addition.
package weight

import (
	"fmt"
	"strings"
)

// Quantity enumerates the atomic quantities of §3.
type Quantity uint8

const (
	// Links is the length n of the trace.
	Links Quantity = iota
	// Hops counts the traversed links that are not self-loops.
	Hops
	// Distance sums a per-link distance function d : E → ℕ (latency,
	// geographic distance, inverse capacity, ...).
	Distance
	// Failures sums, over the steps of the trace, the minimum number of
	// links that must have failed locally to enable each step.
	Failures
	// Tunnels sums the positive label-stack growth over the steps, i.e.
	// the number of tunnels opened along the trace.
	Tunnels
	// NumQuantities is the number of atomic quantities.
	NumQuantities
)

// String returns the paper's name of the quantity.
func (q Quantity) String() string {
	switch q {
	case Links:
		return "Links"
	case Hops:
		return "Hops"
	case Distance:
		return "Distance"
	case Failures:
		return "Failures"
	case Tunnels:
		return "Tunnels"
	default:
		return fmt.Sprintf("Quantity(%d)", uint8(q))
	}
}

// Atoms holds a value for every atomic quantity, either for a whole trace
// or as the contribution of a single step.
type Atoms [NumQuantities]uint64

// Term is a scaled atomic quantity a·p.
type Term struct {
	Coeff uint64
	Q     Quantity
}

// Expr is a linear expression: a sum of terms (the grammar
// expr ::= p | a*expr | expr+expr flattens to this normal form).
type Expr []Term

// Eval evaluates the expression on atomic quantity values.
func (e Expr) Eval(a Atoms) uint64 {
	var sum uint64
	for _, t := range e {
		sum += t.Coeff * a[t.Q]
	}
	return sum
}

// String renders the expression, e.g. "Failures + 3*Tunnels".
func (e Expr) String() string {
	if len(e) == 0 {
		return "0"
	}
	parts := make([]string, len(e))
	for i, t := range e {
		if t.Coeff == 1 {
			parts[i] = t.Q.String()
		} else {
			parts[i] = fmt.Sprintf("%d*%s", t.Coeff, t.Q)
		}
	}
	return strings.Join(parts, " + ")
}

// Spec is a priority vector of linear expressions (expr_1,...,expr_n):
// expr_1 dominates expr_2 and so on, compared lexicographically
// (Problem 2, the minimum witness problem).
type Spec []Expr

// String renders the spec, e.g. "(Hops, Failures + 3*Tunnels)".
func (s Spec) String() string {
	parts := make([]string, len(s))
	for i, e := range s {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Eval evaluates every expression of the spec on the atom values, yielding
// the weight vector of a trace.
func (s Spec) Eval(a Atoms) Vec {
	v := make(Vec, len(s))
	for i, e := range s {
		v[i] = e.Eval(a)
	}
	return v
}

// Vec is a weight vector compared lexicographically. The nil vector is the
// semiring zero ⊥ and denotes "no path"; it is worse than every proper
// vector.
type Vec []uint64

// Less reports strict lexicographic order between two proper vectors of
// equal length; the zero vector compares greater than everything.
func (v Vec) Less(o Vec) bool {
	if v == nil {
		return false
	}
	if o == nil {
		return true
	}
	for i := range v {
		if v[i] != o[i] {
			return v[i] < o[i]
		}
	}
	return false
}

// Equal reports component-wise equality (nil equals only nil).
func (v Vec) Equal(o Vec) bool {
	if (v == nil) != (o == nil) || len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the vector like "(5, 7)", or "⊥" for the zero.
func (v Vec) String() string {
	if v == nil {
		return "⊥"
	}
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
