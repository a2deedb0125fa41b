package routing

import (
	"fmt"
	"sort"
	"sync/atomic"

	"aalwines/internal/labels"
	"aalwines/internal/topology"
)

// Entry is one forwarding alternative inside a traffic engineering group:
// forward the packet out of link Out, applying Ops to the header.
type Entry struct {
	Out topology.LinkID
	Ops Ops
}

// Group is a traffic engineering group: a set of entries of equal priority.
// The router may nondeterministically select any entry whose outgoing link
// is active.
type Group struct {
	Entries []Entry
}

// Links returns the set E(O) of outgoing links used by the group, without
// duplicates, in ascending order.
func (g *Group) Links() []topology.LinkID {
	if len(g.Entries) == 0 {
		return nil
	}
	out := make([]topology.LinkID, 0, len(g.Entries))
	for _, e := range g.Entries {
		out = append(out, e.Out)
	}
	return sortDedupLinks(out)
}

// sortDedupLinks sorts in place and removes duplicates. Groups are tiny
// (a handful of entries), so the slice pass beats a map allocation on the
// hot validation paths by a wide margin.
func sortDedupLinks(out []topology.LinkID) []topology.LinkID {
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// Groups is a priority-ordered sequence of traffic engineering groups
// O_1 O_2 ... O_n; index 0 has the highest priority.
type Groups []Group

// PrefixLinks returns the set of distinct links appearing in groups with
// index < j, i.e. the links that must all have failed for group j to be
// selected. Its cardinality is the per-step Failures quantity.
func (gs Groups) PrefixLinks(j int) []topology.LinkID {
	n := 0
	for i := 0; i < j && i < len(gs); i++ {
		n += len(gs[i].Entries)
	}
	if n == 0 {
		return nil
	}
	out := make([]topology.LinkID, 0, n)
	for i := 0; i < j && i < len(gs); i++ {
		for _, e := range gs[i].Entries {
			out = append(out, e.Out)
		}
	}
	return sortDedupLinks(out)
}

// tableKey indexes the routing table τ by (incoming link, top label).
type tableKey struct {
	in  topology.LinkID
	top labels.ID
}

// Table is the routing table τ : E × L → (2^{E×Op*})* of Definition 2.
// The zero value is an empty table.
//
// Reads at translation/verification time go through a lazily built flat
// view (sorted key and group slices) cached behind an atomic pointer, so
// the repeated whole-table walks of query translation and slicing cost one
// sort per table lifetime instead of one per query. Any mutation drops the
// view; it is rebuilt on the next Keys/Range call. Tables must not be
// mutated concurrently with reads (the map itself forbids that already);
// concurrent readers are safe and share one view.
type Table struct {
	entries map[tableKey]Groups
	view    atomic.Pointer[tableView]
}

// tableView is an immutable sorted snapshot of the table: keys ascending
// by (incoming link, top label), groups aligned with keys. numRules is the
// entry total, cached because NumRules sits on sizing/stats paths.
type tableView struct {
	keys     []Key
	groups   []Groups
	numRules int
}

// NewTable returns an empty routing table.
func NewTable() *Table {
	return &Table{entries: make(map[tableKey]Groups)}
}

// Reserve pre-sizes the key index for about n keys, rehashing any keys
// added so far. Generators that know their rule counts call it before the
// bulk Add loop to avoid incremental map growth (at paper scale the table
// holds >10⁵ keys).
func (t *Table) Reserve(n int) {
	if len(t.entries) >= n {
		return
	}
	m := make(map[tableKey]Groups, n)
	for k, v := range t.entries {
		m[k] = v
	}
	t.entries = m
	t.invalidate()
}

// invalidate drops the cached flat view after a mutation.
func (t *Table) invalidate() {
	t.view.Store(nil)
}

// flat returns the cached view, building it if needed. Callers must be on
// a read-only path (see the Table comment).
func (t *Table) flat() *tableView {
	if v := t.view.Load(); v != nil {
		return v
	}
	v := &tableView{
		keys:   make([]Key, 0, len(t.entries)),
		groups: make([]Groups, 0, len(t.entries)),
	}
	for k, gs := range t.entries {
		v.keys = append(v.keys, Key{In: k.in, Top: k.top})
		for _, g := range gs {
			v.numRules += len(g.Entries)
		}
	}
	sort.Slice(v.keys, func(i, j int) bool {
		if v.keys[i].In != v.keys[j].In {
			return v.keys[i].In < v.keys[j].In
		}
		return v.keys[i].Top < v.keys[j].Top
	})
	for _, k := range v.keys {
		v.groups = append(v.groups, t.entries[tableKey{k.In, k.Top}])
	}
	t.view.Store(v)
	return v
}

// Add appends an entry for (in, top) at the given priority (1 = highest,
// matching the paper's tables). Missing intermediate priorities are created
// as empty groups and skipped by the active-group logic.
func (t *Table) Add(in topology.LinkID, top labels.ID, priority int, e Entry) error {
	if priority < 1 {
		return fmt.Errorf("routing: priority %d < 1", priority)
	}
	if t.entries == nil {
		t.entries = make(map[tableKey]Groups)
	}
	k := tableKey{in, top}
	gs := t.entries[k]
	for len(gs) < priority {
		gs = append(gs, Group{})
	}
	gs[priority-1].Entries = append(gs[priority-1].Entries, e)
	t.entries[k] = gs
	t.invalidate()
	return nil
}

// MustAdd is Add that panics on error; for generators and tests.
func (t *Table) MustAdd(in topology.LinkID, top labels.ID, priority int, e Entry) {
	if err := t.Add(in, top, priority, e); err != nil {
		panic(err)
	}
}

// SetGroups installs a complete group sequence for (in, top), replacing
// any existing one; empty gs removes the key. Scenario overlays use this
// to install filtered views of a base table. Callers must not pass
// trailing empty groups: Add never creates them, and keeping the invariant
// makes an overlay table indistinguishable from one built from scratch.
func (t *Table) SetGroups(in topology.LinkID, top labels.ID, gs Groups) {
	if t.entries == nil {
		t.entries = make(map[tableKey]Groups)
	}
	k := tableKey{in, top}
	if len(gs) == 0 {
		delete(t.entries, k)
	} else {
		t.entries[k] = gs
	}
	t.invalidate()
}

// Lookup returns τ(in, top), or nil when the router drops such packets.
func (t *Table) Lookup(in topology.LinkID, top labels.ID) Groups {
	return t.entries[tableKey{in, top}]
}

// Active implements the function 𝒜: it returns the entries of the highest-
// priority group that has at least one active (non-failed) link, restricted
// to entries whose own link is active, together with the group's index
// (0-based) and the set of links that must have failed for the group to be
// chosen. ok is false when no group is active.
func (t *Table) Active(in topology.LinkID, top labels.ID, failed func(topology.LinkID) bool) (entries []Entry, groupIdx int, mustFail []topology.LinkID, ok bool) {
	gs := t.entries[tableKey{in, top}]
	for j, g := range gs {
		var act []Entry
		for _, e := range g.Entries {
			if !failed(e.Out) {
				act = append(act, e)
			}
		}
		if len(act) > 0 {
			return act, j, gs.PrefixLinks(j), true
		}
	}
	return nil, -1, nil, false
}

// Keys returns all (incoming link, top label) pairs with at least one
// entry, in deterministic order. The result is a fresh slice the caller
// may keep; hot paths should prefer Range, which walks the cached view
// without copying.
func (t *Table) Keys() []Key {
	v := t.flat()
	keys := make([]Key, len(v.keys))
	copy(keys, v.keys)
	return keys
}

// Range calls fn for every (key, groups) pair in the same deterministic
// order as Keys, stopping early if fn returns false. It avoids both the
// per-call key-slice copy and the per-key map lookup of the
// Keys-then-Lookup pattern, which dominates translation at paper scale.
func (t *Table) Range(fn func(Key, Groups) bool) {
	v := t.flat()
	for i, k := range v.keys {
		if !fn(k, v.groups[i]) {
			return
		}
	}
}

// Key is an exported (incoming link, top label) routing table index.
type Key struct {
	In  topology.LinkID
	Top labels.ID
}

// NumRules returns the total number of forwarding entries across all keys,
// groups and priorities — the "forwarding rules" count used when sizing
// networks (NORDUnet has >250,000 of them).
func (t *Table) NumRules() int {
	if v := t.view.Load(); v != nil {
		return v.numRules
	}
	n := 0
	for _, gs := range t.entries {
		for _, g := range gs {
			n += len(g.Entries)
		}
	}
	return n
}

// TopLabelsFor returns the set of top labels with entries for the given
// incoming link, in ascending ID order.
//
// When the flat view is already built (read-only phases) this is a binary
// search plus a contiguous copy; while the table is under construction it
// falls back to the linear scan rather than rebuilding the view after
// every interleaved Add (synthesis mirrors bypass arrivals by calling this
// mid-mutation).
func (t *Table) TopLabelsFor(in topology.LinkID) []labels.ID {
	if v := t.view.Load(); v != nil {
		lo := sort.Search(len(v.keys), func(i int) bool { return v.keys[i].In >= in })
		hi := lo
		for hi < len(v.keys) && v.keys[hi].In == in {
			hi++
		}
		if lo == hi {
			return nil
		}
		out := make([]labels.ID, 0, hi-lo)
		for _, k := range v.keys[lo:hi] {
			out = append(out, k.Top)
		}
		return out
	}
	var out []labels.ID
	for k := range t.entries {
		if k.in == in {
			out = append(out, k.top)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
