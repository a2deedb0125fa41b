package routing

import (
	"testing"

	"aalwines/internal/labels"
	"aalwines/internal/topology"
)

// protTable builds the v2 fragment of the paper's Figure 1b: packets on e1
// with top label s20 go out e4 (priority 1, swap s21) and fail over to e5
// (priority 2, swap s21 ∘ push 30).
func protTable(t *testing.T) (*Table, *labels.Table, map[string]labels.ID, map[string]topology.LinkID) {
	t.Helper()
	lt, m := testLabels()
	g := topology.New()
	v1 := g.AddRouter("v1")
	v2 := g.AddRouter("v2")
	v3 := g.AddRouter("v3")
	v4 := g.AddRouter("v4")
	links := map[string]topology.LinkID{
		"e1": g.MustAddLink(v1, v2, "", "", 1),
		"e4": g.MustAddLink(v2, v3, "", "", 1),
		"e5": g.MustAddLink(v2, v4, "", "", 1),
	}
	rt := NewTable()
	rt.MustAdd(links["e1"], m["s20"], 1, Entry{Out: links["e4"], Ops: Ops{Swap(m["s21"])}})
	rt.MustAdd(links["e1"], m["s20"], 2, Entry{Out: links["e5"], Ops: Ops{Swap(m["s21"]), Push(m["30"])}})
	return rt, lt, m, links
}

func noneFailed(topology.LinkID) bool { return false }

func TestActiveSelectsHighestPriority(t *testing.T) {
	rt, _, m, links := protTable(t)
	entries, j, mustFail, ok := rt.Active(links["e1"], m["s20"], noneFailed)
	if !ok || j != 0 {
		t.Fatalf("ok=%v group=%d, want ok group 0", ok, j)
	}
	if len(entries) != 1 || entries[0].Out != links["e4"] {
		t.Fatalf("entries = %+v, want single e4 entry", entries)
	}
	if len(mustFail) != 0 {
		t.Fatalf("mustFail = %v, want empty for priority-1 group", mustFail)
	}
}

func TestActiveFailsOver(t *testing.T) {
	rt, _, m, links := protTable(t)
	failed := func(l topology.LinkID) bool { return l == links["e4"] }
	entries, j, mustFail, ok := rt.Active(links["e1"], m["s20"], failed)
	if !ok || j != 1 {
		t.Fatalf("ok=%v group=%d, want failover group 1", ok, j)
	}
	if len(entries) != 1 || entries[0].Out != links["e5"] {
		t.Fatalf("entries = %+v, want single e5 entry", entries)
	}
	if len(mustFail) != 1 || mustFail[0] != links["e4"] {
		t.Fatalf("mustFail = %v, want [e4]", mustFail)
	}
}

func TestActiveAllFailedDropsPacket(t *testing.T) {
	rt, _, m, links := protTable(t)
	_, _, _, ok := rt.Active(links["e1"], m["s20"], func(topology.LinkID) bool { return true })
	if ok {
		t.Fatal("Active reported a group with all links failed")
	}
}

func TestActiveUnknownKey(t *testing.T) {
	rt, _, m, links := protTable(t)
	if _, _, _, ok := rt.Active(links["e4"], m["s20"], noneFailed); ok {
		t.Fatal("Active on unknown key reported ok")
	}
	if gs := rt.Lookup(links["e4"], m["s20"]); gs != nil {
		t.Fatalf("Lookup on unknown key = %v, want nil", gs)
	}
}

func TestAddRejectsBadPriority(t *testing.T) {
	rt := NewTable()
	if err := rt.Add(0, 1, 0, Entry{}); err == nil {
		t.Fatal("priority 0 accepted")
	}
}

func TestSparsePrioritiesSkipped(t *testing.T) {
	lt, m := testLabels()
	_ = lt
	rt := NewTable()
	// Only priority 3 present; groups 1 and 2 are empty and must be skipped.
	rt.MustAdd(1, m["s20"], 3, Entry{Out: 9})
	entries, j, mustFail, ok := rt.Active(1, m["s20"], noneFailed)
	if !ok || j != 2 || len(entries) != 1 {
		t.Fatalf("ok=%v group=%d entries=%v", ok, j, entries)
	}
	// Empty prefix groups contribute no must-fail links.
	if len(mustFail) != 0 {
		t.Fatalf("mustFail = %v, want empty", mustFail)
	}
}

func TestPrefixLinksDeduplicates(t *testing.T) {
	_, m := testLabels()
	rt := NewTable()
	rt.MustAdd(1, m["s20"], 1, Entry{Out: 5})
	rt.MustAdd(1, m["s20"], 1, Entry{Out: 5}) // same link twice in group 1
	rt.MustAdd(1, m["s20"], 2, Entry{Out: 6})
	rt.MustAdd(1, m["s20"], 3, Entry{Out: 7})
	gs := rt.Lookup(1, m["s20"])
	if got := gs.PrefixLinks(2); len(got) != 2 {
		t.Fatalf("PrefixLinks(2) = %v, want 2 distinct links", got)
	}
	if got := gs.PrefixLinks(0); len(got) != 0 {
		t.Fatalf("PrefixLinks(0) = %v, want empty", got)
	}
}

func TestGroupLinks(t *testing.T) {
	g := Group{Entries: []Entry{{Out: 3}, {Out: 1}, {Out: 3}}}
	links := g.Links()
	if len(links) != 2 || links[0] != 1 || links[1] != 3 {
		t.Fatalf("Links = %v, want [1 3]", links)
	}
}

func TestGroupsEqual(t *testing.T) {
	gs := Groups{
		{Entries: []Entry{{Out: 1, Ops: Ops{Swap(2)}}, {Out: 3}}},
		{Entries: []Entry{{Out: 4, Ops: Ops{Push(5), Swap(6)}}}},
	}
	copied := Groups{
		{Entries: []Entry{{Out: 1, Ops: Ops{Swap(2)}}, {Out: 3}}},
		{Entries: []Entry{{Out: 4, Ops: Ops{Push(5), Swap(6)}}}},
	}
	otherOps := Groups{
		{Entries: []Entry{{Out: 1, Ops: Ops{Swap(2)}}, {Out: 3}}},
		{Entries: []Entry{{Out: 4, Ops: Ops{Push(5)}}}},
	}
	otherOut := Groups{
		{Entries: []Entry{{Out: 1, Ops: Ops{Swap(2)}}, {Out: 2}}},
		{Entries: []Entry{{Out: 4, Ops: Ops{Push(5), Swap(6)}}}},
	}
	for _, c := range []struct {
		name string
		a, b Groups
		want bool
	}{
		{"same slice", gs, gs, true},
		{"equal copy", gs, copied, true},
		{"shared prefix", gs, gs[:1], false},
		{"other ops", gs, otherOps, false},
		{"other out-link", gs, otherOut, false},
		{"empty", nil, Groups{}, true},
	} {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%s: Equal = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestNumRulesAndKeys(t *testing.T) {
	rt, _, m, links := protTable(t)
	if got := rt.NumRules(); got != 2 {
		t.Fatalf("NumRules = %d, want 2", got)
	}
	keys := rt.Keys()
	if len(keys) != 1 || keys[0].In != links["e1"] || keys[0].Top != m["s20"] {
		t.Fatalf("Keys = %v", keys)
	}
	tops := rt.TopLabelsFor(links["e1"])
	if len(tops) != 1 || tops[0] != m["s20"] {
		t.Fatalf("TopLabelsFor = %v", tops)
	}
}

func TestZeroValueTable(t *testing.T) {
	var rt Table
	if gs := rt.Lookup(1, 1); gs != nil {
		t.Fatal("zero table Lookup != nil")
	}
	if err := rt.Add(1, 1, 1, Entry{Out: 2}); err != nil {
		t.Fatal(err)
	}
	if rt.NumRules() != 1 {
		t.Fatal("Add on zero-value table lost the entry")
	}
}

// TestFlatViewInvalidation checks that the cached flat view tracks
// mutations: Keys/Range/TopLabelsFor/NumRules must reflect every Add and
// SetGroups, whether they land on a cold or an already-built view.
func TestFlatViewInvalidation(t *testing.T) {
	rt, _, m, links := protTable(t)
	if got := len(rt.Keys()); got != 1 {
		t.Fatalf("keys = %d, want 1", got)
	}
	// View is now built; a further Add must drop and rebuild it.
	rt.MustAdd(links["e4"], m["s21"], 1, Entry{Out: links["e5"], Ops: Ops{Pop()}})
	if got := len(rt.Keys()); got != 2 {
		t.Fatalf("keys after Add = %d, want 2", got)
	}
	if got := rt.NumRules(); got != 3 {
		t.Fatalf("rules = %d, want 3", got)
	}
	if tops := rt.TopLabelsFor(links["e4"]); len(tops) != 1 || tops[0] != m["s21"] {
		t.Fatalf("TopLabelsFor(e4) = %v", tops)
	}
	// Range order must match Keys order, with aligned groups.
	var seen []Key
	rt.Range(func(k Key, gs Groups) bool {
		seen = append(seen, k)
		if len(gs) == 0 {
			t.Fatalf("empty groups for %v", k)
		}
		return true
	})
	keys := rt.Keys()
	if len(seen) != len(keys) {
		t.Fatalf("Range visited %d keys, Keys has %d", len(seen), len(keys))
	}
	for i := range keys {
		if seen[i] != keys[i] {
			t.Fatalf("order mismatch at %d: %v vs %v", i, seen[i], keys[i])
		}
	}
	// SetGroups removal invalidates too.
	rt.SetGroups(links["e4"], m["s21"], nil)
	if got := len(rt.Keys()); got != 1 {
		t.Fatalf("keys after removal = %d, want 1", got)
	}
	// Early-exit Range.
	n := 0
	rt.Range(func(Key, Groups) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early exit visited %d", n)
	}
}

// TestTopLabelsForColdAndWarm checks the scan fallback (no view) and the
// binary-search path (view built) agree.
func TestTopLabelsForColdAndWarm(t *testing.T) {
	rt, _, m, links := protTable(t)
	rt.MustAdd(links["e4"], m["s21"], 1, Entry{Out: links["e5"], Ops: Ops{Pop()}})
	cold := rt.TopLabelsFor(links["e1"])
	rt.Keys() // build the view
	warm := rt.TopLabelsFor(links["e1"])
	if len(cold) != len(warm) {
		t.Fatalf("cold %v vs warm %v", cold, warm)
	}
	for i := range cold {
		if cold[i] != warm[i] {
			t.Fatalf("cold %v vs warm %v", cold, warm)
		}
	}
	if tops := rt.TopLabelsFor(links["e5"]); tops != nil {
		t.Fatalf("expected nil for linkless key, got %v", tops)
	}
}
