// Package scenario implements interactive what-if sessions: a base network
// plus a stack of composable deltas (fail/restore links, drain/restore
// routers, edit routing entries, reorder TE-group priorities) materialized
// as an overlay view that shares the base network's topology, label table
// and untouched routing partitions. Verification against the overlay goes
// through an incrementally maintained translation cache
// (translate.SessionCache): only routing keys whose groups the cache has
// not translated before re-emit their pushdown rule blocks, everything
// else is spliced from cache, and the result is byte-identical to
// verifying a from-scratch copy of the mutated network (see DESIGN.md §9
// and the differential tests).
package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"aalwines/internal/labels"
	"aalwines/internal/network"
	"aalwines/internal/routing"
	"aalwines/internal/topology"
)

// Kind enumerates the delta operations.
type Kind uint8

const (
	// FailLink removes a directed link from the overlay: routing entries
	// forwarding out of it disappear (activating backups at no cost to the
	// query's failure budget) and traffic can no longer arrive over it.
	FailLink Kind = iota
	// RestoreLink cancels an earlier FailLink of the same link.
	RestoreLink
	// DrainRouter takes a router out of service: every link incident to it
	// (in either direction) is treated as failed.
	DrainRouter
	// RestoreRouter cancels an earlier DrainRouter.
	RestoreRouter
	// AddEntry appends a forwarding entry to a (link, label, priority)
	// slot, creating the key or priority group if needed. Labels must
	// already exist in the base network's label table.
	AddEntry
	// RemoveEntry removes all entries with the given out-link from a
	// (link, label, priority) slot.
	RemoveEntry
	// SwapPriority exchanges the TE groups at two priorities of one
	// routing key.
	SwapPriority
)

// MaxPriority caps the priority slot a delta may address. It is the
// routing table's own cap: applyEdit pads a key's group list out to the
// named priority, so without it a single add-entry or swap-priority delta
// could make materialize allocate arbitrarily many groups.
const MaxPriority = routing.MaxPriority

var kindWords = map[Kind]string{
	FailLink:      "fail",
	RestoreLink:   "restore",
	DrainRouter:   "drain",
	RestoreRouter: "undrain",
	AddEntry:      "add-entry",
	RemoveEntry:   "remove-entry",
	SwapPriority:  "swap-priority",
}

// Delta is one what-if mutation. Fields are textual (router, link and
// label names) so deltas are transport-friendly (HTTP JSON, scenario
// files) and self-describing; they are resolved against the base network
// when applied.
type Delta struct {
	Kind Kind `json:"kind"`
	// Link names the affected link for FailLink/RestoreLink, in the query
	// language's "A.if1#B.if2" form (or "A#B" when unambiguous).
	Link string `json:"link,omitempty"`
	// Router names the affected router for DrainRouter/RestoreRouter.
	Router string `json:"router,omitempty"`
	// In/Top/Priority address a routing-table slot for the entry and
	// priority deltas. Priority is 1-based, as in the paper's tables, and
	// bounded by MaxPriority.
	In       string `json:"in,omitempty"`
	Top      string `json:"top,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// Out is the entry's outgoing link (AddEntry/RemoveEntry).
	Out string `json:"out,omitempty"`
	// Ops is the header rewrite of an added entry, ";"-separated:
	// "swap(l);push(l);pop" (empty = forward unchanged).
	Ops string `json:"ops,omitempty"`
	// Priority2 is SwapPriority's second slot.
	Priority2 int `json:"priority2,omitempty"`
}

// Canon renders the delta in its canonical single-line command form — the
// same syntax ParseDelta accepts. Fingerprints hash this rendering, so two
// deltas with equal Canon are interchangeable.
func (d Delta) Canon() string {
	switch d.Kind {
	case FailLink, RestoreLink:
		return kindWords[d.Kind] + " " + d.Link
	case DrainRouter, RestoreRouter:
		return kindWords[d.Kind] + " " + d.Router
	case AddEntry:
		s := fmt.Sprintf("add-entry %s %s %d %s", d.In, d.Top, d.Priority, d.Out)
		if d.Ops != "" {
			s += " " + d.Ops
		}
		return s
	case RemoveEntry:
		return fmt.Sprintf("remove-entry %s %s %d %s", d.In, d.Top, d.Priority, d.Out)
	case SwapPriority:
		return fmt.Sprintf("swap-priority %s %s %d %d", d.In, d.Top, d.Priority, d.Priority2)
	default:
		return fmt.Sprintf("unknown(%d)", d.Kind)
	}
}

// ParseDelta parses one command line:
//
//	fail <link>            restore <link>
//	drain <router>         undrain <router>
//	add-entry <in-link> <top-label> <priority> <out-link> [ops]
//	remove-entry <in-link> <top-label> <priority> <out-link>
//	swap-priority <in-link> <top-label> <p1> <p2>
//
// where [ops] is ";"-separated swap(l)/push(l)/pop. Names are validated
// against a network only when the delta is applied to a session.
func ParseDelta(line string) (Delta, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Delta{}, fmt.Errorf("scenario: empty delta command")
	}
	bad := func(format string, args ...interface{}) (Delta, error) {
		return Delta{}, fmt.Errorf("scenario: %s", fmt.Sprintf(format, args...))
	}
	switch fields[0] {
	case "fail", "restore":
		if len(fields) != 2 {
			return bad("%s wants 1 argument (link), got %d", fields[0], len(fields)-1)
		}
		k := FailLink
		if fields[0] == "restore" {
			k = RestoreLink
		}
		return Delta{Kind: k, Link: fields[1]}, nil
	case "drain", "undrain":
		if len(fields) != 2 {
			return bad("%s wants 1 argument (router), got %d", fields[0], len(fields)-1)
		}
		k := DrainRouter
		if fields[0] == "undrain" {
			k = RestoreRouter
		}
		return Delta{Kind: k, Router: fields[1]}, nil
	case "add-entry":
		if len(fields) != 5 && len(fields) != 6 {
			return bad("add-entry wants <in> <top> <priority> <out> [ops]")
		}
		p, err := strconv.Atoi(fields[3])
		if err != nil || p < 1 || p > MaxPriority {
			return bad("add-entry: bad priority %q (want 1..%d)", fields[3], MaxPriority)
		}
		d := Delta{Kind: AddEntry, In: fields[1], Top: fields[2], Priority: p, Out: fields[4]}
		if len(fields) == 6 {
			d.Ops = fields[5]
			if _, err := parseOps(d.Ops, nil); err != nil {
				return Delta{}, err
			}
		}
		return d, nil
	case "remove-entry":
		if len(fields) != 5 {
			return bad("remove-entry wants <in> <top> <priority> <out>")
		}
		p, err := strconv.Atoi(fields[3])
		if err != nil || p < 1 || p > MaxPriority {
			return bad("remove-entry: bad priority %q (want 1..%d)", fields[3], MaxPriority)
		}
		return Delta{Kind: RemoveEntry, In: fields[1], Top: fields[2], Priority: p, Out: fields[4]}, nil
	case "swap-priority":
		if len(fields) != 5 {
			return bad("swap-priority wants <in> <top> <p1> <p2>")
		}
		p1, err1 := strconv.Atoi(fields[3])
		p2, err2 := strconv.Atoi(fields[4])
		if err1 != nil || err2 != nil || p1 < 1 || p2 < 1 || p1 > MaxPriority || p2 > MaxPriority {
			return bad("swap-priority: bad priorities %q %q (want 1..%d)", fields[3], fields[4], MaxPriority)
		}
		return Delta{Kind: SwapPriority, In: fields[1], Top: fields[2], Priority: p1, Priority2: p2}, nil
	default:
		return bad("unknown delta command %q", fields[0])
	}
}

// ParseScenario parses a scenario file: one delta command per line, blank
// lines and "#" comments ignored.
func ParseScenario(text string) ([]Delta, error) {
	var out []Delta
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		d, err := ParseDelta(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// parseOps parses the ";"-separated op list. With a nil label table it
// only checks syntax (label IDs in the result are then meaningless).
func parseOps(s string, lt *labels.Table) (routing.Ops, error) {
	if s == "" {
		return nil, nil
	}
	var ops routing.Ops
	for _, tok := range strings.Split(s, ";") {
		tok = strings.TrimSpace(tok)
		switch {
		case tok == "pop":
			ops = append(ops, routing.Pop())
		case strings.HasPrefix(tok, "swap(") && strings.HasSuffix(tok, ")"),
			strings.HasPrefix(tok, "push(") && strings.HasSuffix(tok, ")"):
			name := tok[5 : len(tok)-1]
			if name == "" {
				return nil, fmt.Errorf("scenario: empty label in op %q", tok)
			}
			var id labels.ID
			if lt != nil {
				if id = lt.Lookup(name); id == labels.None {
					return nil, fmt.Errorf("scenario: unknown label %q (deltas cannot introduce new labels)", name)
				}
			}
			if tok[0] == 's' {
				ops = append(ops, routing.Swap(id))
			} else {
				ops = append(ops, routing.Push(id))
			}
		default:
			return nil, fmt.Errorf("scenario: bad op %q (want swap(l), push(l) or pop)", tok)
		}
	}
	return ops, nil
}

// resolveLink resolves a link name in "A.if1#B.if2" form, falling back to
// "A#B" when the routers have exactly one link in that direction.
func resolveLink(g *topology.Graph, name string) (topology.LinkID, error) {
	for l := 0; l < g.NumLinks(); l++ {
		if g.LinkName(topology.LinkID(l)) == name {
			return topology.LinkID(l), nil
		}
	}
	if a, b, ok := strings.Cut(name, "#"); ok && !strings.Contains(a, ".") && !strings.Contains(b, ".") {
		ra, rb := g.RouterByName(a), g.RouterByName(b)
		if ra != topology.NoRouter && rb != topology.NoRouter {
			var cand []topology.LinkID
			for _, l := range g.LinksBetween(ra, rb) {
				if g.Source(l) == ra {
					cand = append(cand, l)
				}
			}
			if len(cand) == 1 {
				return cand[0], nil
			}
			if len(cand) > 1 {
				return 0, fmt.Errorf("scenario: link %q is ambiguous (%d parallel links; use the interface form)", name, len(cand))
			}
		}
	}
	return 0, fmt.Errorf("scenario: unknown link %q", name)
}

// ValidateDelta resolves every name d references against net and bounds
// its priority slots, without mutating anything — the same check ApplyAll
// and SetStack run before touching a session's stack. Stream ingesters use
// it to reject a bad event at arrival time instead of poisoning the whole
// coalesced flush it would land in.
func ValidateDelta(net *network.Network, d Delta) error { return d.validate(net) }

// CanonicalLink resolves a link name against the network and returns its
// canonical "A.if1#B.if2" rendering. Desired-state coalescers key failed
// links by this form so "A#B" and the interface-qualified name of the same
// link cancel each other.
func CanonicalLink(net *network.Network, name string) (string, error) {
	l, err := resolveLink(net.Topo, name)
	if err != nil {
		return "", err
	}
	return net.Topo.LinkName(l), nil
}

// checkPriority bounds a priority slot to [1, MaxPriority]. Enforced here
// (not only in ParseDelta) because validate is the gate materialize relies
// on: applyEdit indexes gs[p-1] and pads the group list out to p, so an
// unvalidated priority either panics or allocates without bound.
func checkPriority(p int) error {
	if p < 1 || p > MaxPriority {
		return fmt.Errorf("scenario: priority %d out of range (want 1..%d)", p, MaxPriority)
	}
	return nil
}

// validate resolves every name the delta references against the base
// network and bounds its priority slots, without mutating anything.
func (d Delta) validate(net *network.Network) error {
	switch d.Kind {
	case FailLink, RestoreLink:
		_, err := resolveLink(net.Topo, d.Link)
		return err
	case DrainRouter, RestoreRouter:
		if net.Topo.RouterByName(d.Router) == topology.NoRouter {
			return fmt.Errorf("scenario: unknown router %q", d.Router)
		}
		return nil
	case AddEntry, RemoveEntry, SwapPriority:
		if err := checkPriority(d.Priority); err != nil {
			return err
		}
		if _, err := resolveLink(net.Topo, d.In); err != nil {
			return err
		}
		if net.Labels.Lookup(d.Top) == labels.None {
			return fmt.Errorf("scenario: unknown label %q", d.Top)
		}
		if d.Kind == SwapPriority {
			if err := checkPriority(d.Priority2); err != nil {
				return err
			}
			if d.Priority == d.Priority2 {
				return fmt.Errorf("scenario: swap-priority with equal priorities %d", d.Priority)
			}
			return nil
		}
		if _, err := resolveLink(net.Topo, d.Out); err != nil {
			return err
		}
		if d.Kind == AddEntry {
			_, err := parseOps(d.Ops, net.Labels)
			return err
		}
		return nil
	default:
		return fmt.Errorf("scenario: unknown delta kind %d", d.Kind)
	}
}
