package translate

import (
	"sort"

	"aalwines/internal/nfa"
	"aalwines/internal/pds"
)

// headGen generates the on-the-fly product one head at a time: it is the
// pds.Generator of a System built with Options.Slice. The routing table's
// sorted view is its index (routing.Table.In); beyond that it reads only
// the query and the System's successor table, all immutable, so
// concurrent saturations share it.
//
// Saturating the on-the-fly product pops, pushes and inserts exactly what
// saturating the eager one does. post* fires, for every transition, the
// rules of its head in rule order; a head (link, path-NFA state, failure
// level, top label) lists its rules here in the eager order — priority
// group, entry, then ascending target state — because both products run
// emitKey, and a set edge visits its heads in ascending label order, which
// is the eager rule order at a state. The rules the eager reduction
// removes have heads no transition reaches, so they never fire there
// either.
type headGen struct{ s *System }

// Head implements pds.Generator.
func (g headGen) Head(dst []pds.Rule, wts *pds.Weights, st pds.State, sym pds.Sym, newState func() pds.State) []pds.Rule {
	s := g.s
	top, ok := s.SymLabel(sym)
	if !ok {
		return dst
	}
	in, qb, f, _ := s.DecodeState(st)
	keys, groups, first := s.Net.Routing.In(in)
	i := sort.Search(len(keys), func(i int) bool { return keys[i].Top >= top })
	if i == len(keys) || keys[i].Top != top {
		return dst
	}
	return s.emitKey(dst, wts, newState, keys[i], groups[i], first[i], qb, qb+1, f, f+1)
}

// Heads implements pds.Generator: the top labels of the routing keys of
// st's link that set admits, ascending.
func (g headGen) Heads(dst []pds.Sym, st pds.State, set *nfa.Set) []pds.Sym {
	in, _, _, _ := g.s.DecodeState(st)
	keys, _, _ := g.s.Net.Routing.In(in)
	for _, k := range keys {
		if sym := LabelSymOf(k.Top); set.Has(nfa.Sym(sym)) {
			dst = append(dst, sym)
		}
	}
	return dst
}

// Done implements pds.Generator: generated rules count as emitted and,
// with no reduction to drop them, as kept.
func (headGen) Done(generated int) {
	mRulesEmitted.Add(int64(generated))
	mRulesKept.Add(int64(generated))
}
