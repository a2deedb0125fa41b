package routing

import (
	"errors"
	"slices"
	"sync"
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

// TestAddRejectsPriorityAboveMax checks that a priority past MaxPriority
// fails before the key's groups are padded out to it: the failing Add
// allocates nothing and leaves the table empty, while MaxPriority itself
// is accepted.
func TestAddRejectsPriorityAboveMax(t *testing.T) {
	rt := NewTable()
	allocs := testing.AllocsPerRun(10, func() {
		if err := rt.Add(0, 1, MaxPriority+1, Entry{}); !errors.Is(err, errPriority) {
			t.Fatalf("Add(MaxPriority+1) = %v, want errPriority", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("rejected Add allocated %.0f times, want 0", allocs)
	}
	if rt.NumRules() != 0 || rt.Lookup(0, 1) != nil {
		t.Fatal("rejected Add left groups in the table")
	}
	if err := rt.Add(0, 1, MaxPriority, Entry{Out: 2}); err != nil {
		t.Fatalf("Add(MaxPriority) = %v", err)
	}
	if gs := rt.Lookup(0, 1); len(gs) != MaxPriority {
		t.Fatalf("groups = %d, want %d", len(gs), MaxPriority)
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
	rt.MustAdd(1, m["s20"], 3, Entry{Out: 5}) // group 1's link again
	rt.MustAdd(1, m["s20"], 4, Entry{Out: 8})
	gs := rt.Lookup(1, m["s20"])
	if got := gs.PrefixLinks(2); len(got) != 2 {
		t.Fatalf("PrefixLinks(2) = %v, want 2 distinct links", got)
	}
	if got := gs.PrefixLinks(0); len(got) != 0 {
		t.Fatalf("PrefixLinks(0) = %v, want empty", got)
	}
	if got := gs.PrefixLinks(3); len(got) != 3 {
		t.Fatalf("PrefixLinks(3) = %v, want 3 distinct links", got)
	}
	// PrefixFailures counts the same set without building it, past the
	// last group too.
	for j := 0; j <= len(gs)+1; j++ {
		if got, want := gs.PrefixFailures(j), len(gs.PrefixLinks(j)); got != want {
			t.Errorf("PrefixFailures(%d) = %d, want %d", j, got, want)
		}
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
// mutations: Keys/In/TopLabelsFor/NumRules must reflect every Add and
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
	// In, link by link, must list the keys in Keys order, with aligned
	// groups.
	var seen []Key
	for l := topology.LinkID(0); int(l) < len(links); l++ { // link IDs are dense
		keys, groups, _ := rt.In(l)
		for i, k := range keys {
			seen = append(seen, k)
			if !groups[i].Equal(rt.Lookup(k.In, k.Top)) {
				t.Fatalf("In(%d) groups of %v differ from Lookup", l, k)
			}
		}
	}
	if keys := rt.Keys(); !slices.Equal(seen, keys) {
		t.Fatalf("In visits %v, Keys lists %v", seen, keys)
	}
	// SetGroups removal invalidates too.
	rt.SetGroups(links["e4"], m["s21"], nil)
	if got := len(rt.Keys()); got != 1 {
		t.Fatalf("keys after removal = %d, want 1", got)
	}
	if keys, _, _ := rt.In(links["e4"]); len(keys) != 0 {
		t.Fatalf("In(e4) after removal = %v, want none", keys)
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

// numberedTable builds a table whose keys span several links, with a
// skipped priority and a link without keys, for the entry numbering
// tests.
func numberedTable() *Table {
	rt := NewTable()
	rt.MustAdd(0, 3, 1, Entry{Out: 1})
	rt.MustAdd(0, 3, 1, Entry{Out: 2, Ops: Ops{Pop()}})
	rt.MustAdd(0, 3, 2, Entry{Out: 3})
	rt.MustAdd(0, 5, 1, Entry{Out: 4})
	rt.MustAdd(1, 3, 1, Entry{Out: 5})
	rt.MustAdd(1, 3, 3, Entry{Out: 6}) // priority 2 stays empty
	rt.MustAdd(3, 4, 1, Entry{Out: 7})
	rt.MustAdd(3, 4, 1, Entry{Out: 8})
	return rt
}

// checkNumbering walks every link's keys with In and checks that entries
// are numbered consecutively, key by key and group by group, and that
// Entry returns each numbered entry with its group index. It returns each
// key's first number.
func checkNumbering(t *testing.T, rt *Table, numLinks int) map[Key]int32 {
	t.Helper()
	firsts := map[Key]int32{}
	var next int32
	for l := topology.LinkID(0); int(l) < numLinks; l++ {
		keys, groups, first := rt.In(l)
		if len(keys) > 0 && len(first) != len(keys)+1 {
			t.Fatalf("In(%d): %d keys, %d first numbers", l, len(keys), len(first))
		}
		for i, k := range keys {
			if first[i] != next {
				t.Fatalf("key %v: first = %d, want %d", k, first[i], next)
			}
			firsts[k] = first[i]
			for j, g := range groups[i] {
				for _, want := range g.Entries {
					e, group := rt.Entry(next)
					if e.Out != want.Out || !slices.Equal(e.Ops, want.Ops) || group != j {
						t.Fatalf("Entry(%d) = %+v in group %d, want %+v in group %d", next, e, group, want, j)
					}
					next++
				}
			}
			if first[i+1] != next {
				t.Fatalf("key %v: range ends at %d, want %d", k, first[i+1], next)
			}
		}
	}
	if int(next) != rt.NumRules() {
		t.Fatalf("numbered %d entries, NumRules = %d", next, rt.NumRules())
	}
	return firsts
}

// TestEntryNumbering pins the numbering rule tags rely on: Entry(first[i]+k)
// is entry k of key i, counted group by group, and a change to an earlier
// key shifts every later key's first number, which Entry follows.
func TestEntryNumbering(t *testing.T) {
	rt := numberedTable()
	before := checkNumbering(t, rt, 4)
	if keys, _, _ := rt.In(2); len(keys) != 0 {
		t.Fatalf("In(2) = %v, want no keys", keys)
	}
	if _, group := rt.Entry(before[Key{1, 3}] + 1); group != 2 {
		t.Fatalf("entry after an empty priority is in group %d, want 2", group)
	}

	// Shrink (0,3) by its backup group and remove (0,5): every later key
	// moves down by the two entries they held.
	gs := rt.Lookup(0, 3)
	rt.SetGroups(0, 3, gs[:1])
	rt.SetGroups(0, 5, nil)
	after := checkNumbering(t, rt, 4)
	for _, k := range []Key{{1, 3}, {3, 4}} {
		if after[k] != before[k]-2 {
			t.Errorf("key %v: first %d after the change, want %d", k, after[k], before[k]-2)
		}
	}
	if after[Key{0, 3}] != 0 {
		t.Errorf("key (0,3): first %d, want 0", after[Key{0, 3}])
	}
}

// TestEntryNumberingConcurrent reads In and Entry from several goroutines
// on a table whose view none of them has built yet, as a session's batch
// workers decode witnesses (run under -race).
func TestEntryNumberingConcurrent(t *testing.T) {
	ref := numberedTable()
	checkNumbering(t, ref, 4)
	rt := numberedTable()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := topology.LinkID(0); l < 4; l++ {
				keys, _, first := rt.In(l)
				wantKeys, _, wantFirst := ref.In(l)
				if !slices.Equal(keys, wantKeys) || !slices.Equal(first, wantFirst) {
					t.Errorf("In(%d) = %v %v, want %v %v", l, keys, first, wantKeys, wantFirst)
				}
			}
			for id := int32(0); int(id) < ref.NumRules(); id++ {
				e, group := rt.Entry(id)
				want, wantGroup := ref.Entry(id)
				if e.Out != want.Out || group != wantGroup {
					t.Errorf("Entry(%d) = %+v in group %d, want %+v in group %d", id, e, group, want, wantGroup)
				}
			}
		}()
	}
	wg.Wait()
}
