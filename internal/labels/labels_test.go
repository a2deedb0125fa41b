package labels

import (
	"testing"
	"testing/quick"
)

func TestInternAssignsDenseIDs(t *testing.T) {
	tbl := NewTable()
	a := tbl.MustIntern("s20", BottomMPLS)
	b := tbl.MustIntern("30", MPLS)
	c := tbl.MustIntern("ip1", IP)
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("expected dense IDs 1,2,3, got %d,%d,%d", a, b, c)
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tbl.Len())
	}
}

func TestInternIdempotent(t *testing.T) {
	tbl := NewTable()
	a := tbl.MustIntern("s20", BottomMPLS)
	b := tbl.MustIntern("s20", BottomMPLS)
	if a != b {
		t.Fatalf("re-interning produced new ID: %d vs %d", a, b)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
}

func TestInternKindConflict(t *testing.T) {
	tbl := NewTable()
	tbl.MustIntern("x", MPLS)
	if _, err := tbl.Intern("x", IP); err == nil {
		t.Fatal("expected kind-conflict error, got nil")
	}
}

func TestZeroValueTableUsable(t *testing.T) {
	var tbl Table
	id, err := tbl.Intern("ip9", IP)
	if err != nil || id == None {
		t.Fatalf("zero-value table Intern: id=%d err=%v", id, err)
	}
}

func TestGuessKind(t *testing.T) {
	cases := []struct {
		name string
		want Kind
	}{
		{"s20", BottomMPLS},
		{"s41", BottomMPLS},
		{"30", MPLS},
		{"$449550", MPLS},
		{"ip1", IP},
		{"10.0.0.1", IP},
		{"swap", MPLS}, // "s" not followed by digit
	}
	for _, c := range cases {
		if got := GuessKind(c.name); got != c.want {
			t.Errorf("GuessKind(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLookupMissing(t *testing.T) {
	tbl := NewTable()
	if id := tbl.Lookup("nope"); id != None {
		t.Fatalf("Lookup of missing name = %d, want None", id)
	}
}

func TestOfKindAndCounts(t *testing.T) {
	tbl := NewTable()
	tbl.MustIntern("30", MPLS)
	tbl.MustIntern("31", MPLS)
	tbl.MustIntern("s20", BottomMPLS)
	tbl.MustIntern("ip1", IP)
	if got := len(tbl.OfKind(MPLS)); got != 2 {
		t.Errorf("len(OfKind(MPLS)) = %d, want 2", got)
	}
	if got := len(tbl.OfKind(BottomMPLS)); got != 1 {
		t.Errorf("len(OfKind(BottomMPLS)) = %d, want 1", got)
	}
	if got := len(tbl.OfKind(IP)); got != 1 {
		t.Errorf("len(OfKind(IP)) = %d, want 1", got)
	}
}

func testTable() *Table {
	tbl := NewTable()
	tbl.MustIntern("30", MPLS)        // 1
	tbl.MustIntern("31", MPLS)        // 2
	tbl.MustIntern("s20", BottomMPLS) // 3
	tbl.MustIntern("s21", BottomMPLS) // 4
	tbl.MustIntern("ip1", IP)         // 5
	tbl.MustIntern("ip2", IP)         // 6
	return tbl
}

func TestHeaderValid(t *testing.T) {
	tbl := testTable()
	cases := []struct {
		h    Header
		want bool
	}{
		{Header{5}, true},          // ip1
		{Header{3, 5}, true},       // s20 ∘ ip1
		{Header{1, 3, 5}, true},    // 30 ∘ s20 ∘ ip1
		{Header{1, 2, 3, 5}, true}, // 30 ∘ 31 ∘ s20 ∘ ip1
		{Header{}, false},          // empty
		{Header{1}, false},         // bare MPLS
		{Header{3}, false},         // bare bottom label
		{Header{1, 5}, false},      // MPLS directly on IP
		{Header{3, 3, 5}, false},   // two bottom labels
		{Header{5, 3, 5}, false},   // IP on top
		{Header{1, 3, 1}, false},   // MPLS at bottom
	}
	for _, c := range cases {
		if got := c.h.Valid(tbl); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.h.Format(tbl), got, c.want)
		}
	}
}

func TestValidOnTopOf(t *testing.T) {
	tbl := testTable()
	cases := []struct {
		push, top ID
		want      bool
	}{
		{1, 3, true},  // 30 on s20: ok
		{1, 2, true},  // 30 on 31: ok
		{3, 5, true},  // s20 on ip1: ok
		{3, 1, false}, // s20 on 30: invalid
		{3, 3, false}, // s20 on s21: invalid
		{5, 3, false}, // push IP: never
		{1, 5, false}, // 30 directly on ip1: invalid
	}
	for _, c := range cases {
		if got := ValidOnTopOf(tbl, c.push, c.top); got != c.want {
			t.Errorf("ValidOnTopOf(%s on %s) = %v, want %v",
				tbl.Name(c.push), tbl.Name(c.top), got, c.want)
		}
	}
}

func TestHeaderCloneIndependence(t *testing.T) {
	tbl := testTable()
	h := Header{1, 3, 5}
	c := h.Clone()
	c[0] = 2
	if h[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
	_ = tbl
}

func TestHeaderEqual(t *testing.T) {
	if !(Header{1, 2}).Equal(Header{1, 2}) {
		t.Error("identical headers not Equal")
	}
	if (Header{1, 2}).Equal(Header{1, 3}) {
		t.Error("different headers Equal")
	}
	if (Header{1}).Equal(Header{1, 2}) {
		t.Error("different lengths Equal")
	}
}

// Property: any header built as α ℓ1 ℓ0 with α ∈ L_M*, ℓ1 ∈ L_M⊥, ℓ0 ∈ L_IP
// is valid, and pushing a plain MPLS label keeps it valid.
func TestHeaderValidityProperty(t *testing.T) {
	tbl := testTable()
	mpls := tbl.OfKind(MPLS)
	bottoms := tbl.OfKind(BottomMPLS)
	ips := tbl.OfKind(IP)
	f := func(stack []uint8, bi, ii uint8) bool {
		h := Header{}
		for _, s := range stack {
			h = append(h, mpls[int(s)%len(mpls)])
		}
		h = append(h, bottoms[int(bi)%len(bottoms)], ips[int(ii)%len(ips)])
		if !h.Valid(tbl) {
			return false
		}
		pushed := append(Header{mpls[0]}, h...)
		return pushed.Valid(tbl)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderFormat(t *testing.T) {
	tbl := testTable()
	if got := (Header{1, 3, 5}).Format(tbl); got != "30 ∘ s20 ∘ ip1" {
		t.Errorf("Format = %q", got)
	}
	if got := (Header{}).Format(tbl); got != "ε" {
		t.Errorf("Format(empty) = %q", got)
	}
}
