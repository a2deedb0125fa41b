// Package labels defines the MPLS label universe used throughout the
// verification suite.
//
// Following Definition 2 of the AalWiNes paper, the finite label set L is
// partitioned into three kinds:
//
//   - MPLS labels (L_M), written e.g. "30",
//   - MPLS labels with the bottom-of-stack bit S set (L_M⊥), written with a
//     leading small "s", e.g. "s20", and
//   - IP addresses / IP destination labels (L_IP), e.g. "ip1".
//
// Labels are interned into a Table so that the rest of the system can use
// small integer identifiers, which keeps automata transitions and pushdown
// stack symbols compact.
package labels

import (
	"fmt"
	"strings"
)

// Kind classifies a label according to the partition of Definition 2.
type Kind uint8

const (
	// MPLS is a plain MPLS label (member of L_M).
	MPLS Kind = iota
	// BottomMPLS is an MPLS label with the bottom-of-stack bit set (L_M⊥).
	BottomMPLS
	// IP is an IP destination label (L_IP).
	IP
	// numKinds is the number of label kinds.
	numKinds
)

// String returns the conventional name of the kind as used by the query
// language abbreviations (mpls, smpls, ip).
func (k Kind) String() string {
	switch k {
	case MPLS:
		return "mpls"
	case BottomMPLS:
		return "smpls"
	case IP:
		return "ip"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ID is an interned label identifier. IDs are dense indices into a Table,
// which makes them usable as stack symbols of a pushdown system and as
// symbol identifiers of finite automata.
type ID uint32

// None is the zero ID; it is never assigned to a real label.
const None ID = 0

// Label is an interned label: its identifier, print name and kind.
type Label struct {
	ID   ID
	Name string
	Kind Kind
}

// Table interns labels and assigns dense identifiers. The zero value is
// ready to use. A Table must not be mutated concurrently; concurrent
// readers are safe once construction is complete.
type Table struct {
	byName map[string]ID
	all    []Label // index = ID-1
	counts [numKinds]int
}

// NewTable returns an empty label table.
func NewTable() *Table {
	return &Table{byName: make(map[string]ID)}
}

// Intern returns the ID of the label with the given name and kind, creating
// it if necessary. Interning the same name with a different kind is an
// error that indicates a malformed input network.
func (t *Table) Intern(name string, kind Kind) (ID, error) {
	if t.byName == nil {
		t.byName = make(map[string]ID)
	}
	if id, ok := t.byName[name]; ok {
		if got := t.all[id-1].Kind; got != kind {
			return None, fmt.Errorf("labels: %q already interned with kind %v, not %v", name, got, kind)
		}
		return id, nil
	}
	id := ID(len(t.all) + 1)
	t.all = append(t.all, Label{ID: id, Name: name, Kind: kind})
	t.byName[name] = id
	t.counts[kind]++
	return id, nil
}

// MustIntern is Intern that panics on kind conflicts. It is intended for
// tests and generators that construct networks programmatically.
func (t *Table) MustIntern(name string, kind Kind) ID {
	id, err := t.Intern(name, kind)
	if err != nil {
		panic(err)
	}
	return id
}

// InternBytes is Intern for callers that assemble label names in a reused
// byte buffer. The hit path goes through the compiler's map[string(b)]
// lookup optimisation and allocates nothing; only a genuinely new label
// pays for the string conversion. Paper-scale synthesis interns hundreds
// of thousands of labels through here.
func (t *Table) InternBytes(name []byte, kind Kind) (ID, error) {
	if t.byName == nil {
		t.byName = make(map[string]ID)
	}
	if id, ok := t.byName[string(name)]; ok {
		if got := t.all[id-1].Kind; got != kind {
			return None, fmt.Errorf("labels: %q already interned with kind %v, not %v", name, got, kind)
		}
		return id, nil
	}
	s := string(name)
	id := ID(len(t.all) + 1)
	t.all = append(t.all, Label{ID: id, Name: s, Kind: kind})
	t.byName[s] = id
	t.counts[kind]++
	return id, nil
}

// MustInternBytes is InternBytes that panics on kind conflicts.
func (t *Table) MustInternBytes(name []byte, kind Kind) ID {
	id, err := t.InternBytes(name, kind)
	if err != nil {
		panic(err)
	}
	return id
}

// Reserve pre-sizes the intern index for about n labels, rehashing any
// labels interned so far into the larger index. Generators call it up
// front with their size estimate to avoid incremental map growth.
func (t *Table) Reserve(n int) {
	if len(t.all) >= n {
		return
	}
	m := make(map[string]ID, n)
	for k, v := range t.byName {
		m[k] = v
	}
	t.byName = m
	all := make([]Label, len(t.all), n)
	copy(all, t.all)
	t.all = all
}

// GuessKind derives a label's kind from the paper's naming convention:
// names starting with "s" followed by a digit are bottom-of-stack MPLS
// labels, names starting with "ip" (or containing a dot, as in
// dotted-quad addresses) are IP labels, everything else is a plain MPLS
// label. Service labels such as "$449550" are plain MPLS labels.
func GuessKind(name string) Kind {
	switch {
	case strings.HasPrefix(name, "ip"), strings.Contains(name, "."):
		return IP
	case len(name) >= 2 && name[0] == 's' && name[1] >= '0' && name[1] <= '9':
		return BottomMPLS
	default:
		return MPLS
	}
}

// Lookup returns the ID for name, or None if the name has not been interned.
func (t *Table) Lookup(name string) ID {
	return t.byName[name]
}

// Get returns the label for an ID. It panics on IDs not issued by this
// table, which always indicates a programming error.
func (t *Table) Get(id ID) Label {
	if id == None || int(id) > len(t.all) {
		panic(fmt.Sprintf("labels: invalid ID %d", id))
	}
	return t.all[id-1]
}

// Name returns the print name of id.
func (t *Table) Name(id ID) string { return t.Get(id).Name }

// Kind returns the kind of id.
func (t *Table) Kind(id ID) Kind { return t.Get(id).Kind }

// Len returns the number of interned labels.
func (t *Table) Len() int { return len(t.all) }

// CountKind returns the number of interned labels of the given kind.
func (t *Table) CountKind(k Kind) int { return t.counts[k] }

// All returns all interned labels in ID order. The returned slice is shared
// with the table and must not be modified.
func (t *Table) All() []Label { return t.all }

// OfKind returns the IDs of all labels of kind k, in ID order.
func (t *Table) OfKind(k Kind) []ID {
	ids := make([]ID, 0, t.counts[k])
	for _, l := range t.all {
		if l.Kind == k {
			ids = append(ids, l.ID)
		}
	}
	return ids
}
