package routing

import (
	"fmt"
	"slices"
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

// PrefixFailures returns the number of distinct links in groups with
// index < j, len(gs.PrefixLinks(j)), without building the set: a link
// counts once, at its first entry. Groups hold a handful of entries, so
// the scan back over the prefix costs less than sorting a fresh slice.
func (gs Groups) PrefixFailures(j int) int {
	n := 0
	for i := 0; i < j && i < len(gs); i++ {
		for k, e := range gs[i].Entries {
			if !gs.outBefore(i, k, e.Out) {
				n++
			}
		}
	}
	return n
}

// outBefore reports whether an entry ahead of entry k of group i, in
// group order, leaves by link l.
func (gs Groups) outBefore(i, k int, l topology.LinkID) bool {
	for g := 0; g <= i; g++ {
		es := gs[g].Entries
		if g == i {
			es = es[:k]
		}
		for _, e := range es {
			if e.Out == l {
				return true
			}
		}
	}
	return false
}

// Equal reports whether two group sequences have the same entries in the
// same order. A sequence compared with itself, such as one an overlay
// shares with its base table, answers in O(1).
func (gs Groups) Equal(other Groups) bool {
	if len(gs) != len(other) {
		return false
	}
	if len(gs) == 0 || &gs[0] == &other[0] {
		return true
	}
	for j := range gs {
		a, b := gs[j].Entries, other[j].Entries
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Out != b[i].Out || !slices.Equal(a[i].Ops, b[i].Ops) {
				return false
			}
		}
	}
	return true
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
// view (sorted key and group slices, indexed by incoming link) cached
// behind an atomic pointer, so the repeated table walks and per-link
// lookups of query translation cost one sort per table lifetime instead of
// one per query. Any mutation drops the view; it is rebuilt on the next
// read. Tables must not be mutated concurrently with reads (the map itself
// forbids that already); concurrent readers are safe and share one view.
type Table struct {
	entries map[tableKey]Groups
	view    atomic.Pointer[tableView]
}

// tableView is an immutable sorted snapshot of the table: keys ascending
// by (incoming link, top label), groups aligned with keys. Entries are
// numbered consecutively in view order, key by key and group by group:
// first[i] is the number of keys[i]'s first entry, and first[len(keys)]
// is the entry total that NumRules reports.
type tableView struct {
	keys   []Key
	groups []Groups
	first  []int32
	// byIn[l]:byIn[l+1] is the range of keys with incoming link l.
	byIn []int32
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
		first:  make([]int32, 0, len(t.entries)+1),
	}
	for k := range t.entries {
		v.keys = append(v.keys, Key{In: k.in, Top: k.top})
	}
	sort.Slice(v.keys, func(i, j int) bool {
		if v.keys[i].In != v.keys[j].In {
			return v.keys[i].In < v.keys[j].In
		}
		return v.keys[i].Top < v.keys[j].Top
	})
	var n int32
	for _, k := range v.keys {
		gs := t.entries[tableKey{k.In, k.Top}]
		v.groups = append(v.groups, gs)
		v.first = append(v.first, n)
		for _, g := range gs {
			n += int32(len(g.Entries))
		}
	}
	v.first = append(v.first, n)
	for i, k := range v.keys {
		for len(v.byIn) <= int(k.In) {
			v.byIn = append(v.byIn, int32(i))
		}
	}
	v.byIn = append(v.byIn, int32(len(v.keys)))
	t.view.Store(v)
	return v
}

// MaxPriority caps the priority of a traffic engineering group. Real TE
// tables hold a handful of backup groups (the paper's examples use two or
// three), while Add pads a key's groups out to the named priority, so
// without a cap one priority in a configuration file or a what-if delta
// could make a table allocate arbitrarily many empty groups.
const MaxPriority = 64

// errPriority is the error of a priority outside 1..MaxPriority.
var errPriority = fmt.Errorf("routing: priority out of range (want 1..%d)", MaxPriority)

// Add appends an entry for (in, top) at the given priority (1 = highest,
// matching the paper's tables). Missing intermediate priorities are created
// as empty groups and skipped by the active-group logic. A priority outside
// 1..MaxPriority fails before anything is allocated.
func (t *Table) Add(in topology.LinkID, top labels.ID, priority int, e Entry) error {
	if priority < 1 || priority > MaxPriority {
		return errPriority
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
//
// An installed sequence is never modified in place. SetGroups replaces a
// key's sequence whole, the caller must not write to gs afterwards, and
// Add, which grows a key's sequence in place while a table is built, must
// not be called on a key installed here. A reference to an installed
// sequence is therefore a snapshot of its content: overlays share a base
// table's sequences by slice, and the rule-block store in translate keeps
// the sequences it emitted blocks from and compares them with
// Groups.Equal, which answers for a shared slice in O(1).
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
// may keep; hot paths should prefer In, which reads the cached view
// without copying.
func (t *Table) Keys() []Key {
	v := t.flat()
	keys := make([]Key, len(v.keys))
	copy(keys, v.keys)
	return keys
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
		return int(v.first[len(v.keys)])
	}
	n := 0
	for _, gs := range t.entries {
		for _, g := range gs {
			n += len(g.Entries)
		}
	}
	return n
}

// In returns the part of the sorted view that belongs to incoming link
// in: its keys ascending by top label, their groups, and the number of
// each key's first entry. Entries are numbered consecutively in view
// order, key by key and group by group, so a number names one entry until
// the table next changes. The slices are shared with the view and must
// not be modified; first has one more element than keys, closing the last
// key's range.
func (t *Table) In(in topology.LinkID) (keys []Key, groups []Groups, first []int32) {
	v := t.flat()
	if int(in) >= len(v.byIn)-1 {
		return nil, nil, nil
	}
	lo, hi := v.byIn[in], v.byIn[in+1]
	return v.keys[lo:hi], v.groups[lo:hi], v.first[lo : hi+1]
}

// Entry returns the entry numbered id (see In) and the index of its group.
func (t *Table) Entry(id int32) (Entry, int) {
	v := t.flat()
	i := sort.Search(len(v.keys), func(i int) bool { return v.first[i+1] > id })
	n := id - v.first[i]
	for j, g := range v.groups[i] {
		if int(n) < len(g.Entries) {
			return g.Entries[n], j
		}
		n -= int32(len(g.Entries))
	}
	panic(fmt.Sprintf("routing: entry %d out of range", id))
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
