// Package topology implements the network topology model of the AalWiNes
// paper (Definition 1): a directed multigraph whose nodes are routers and
// whose edges are unidirectional links, each attached to a named interface
// on its source and target router.
//
// Links are directed because the paper assumes asymmetric link failures
// (e.g. congestion in one direction only); a bidirectional physical link is
// modelled as two directed links.
package topology

import (
	"fmt"
	"strings"
)

// RouterID identifies a router; it is a dense index into Graph.Routers.
type RouterID int32

// LinkID identifies a directed link; it is a dense index into Graph.Links.
type LinkID int32

// NoRouter and NoLink are sentinel identifiers.
const (
	NoRouter RouterID = -1
	NoLink   LinkID   = -1
)

// Router is a node of the topology. Interfaces list the names of the
// router's interfaces; each link endpoint references one of them.
type Router struct {
	ID   RouterID
	Name string
	// Lat and Lng are optional coordinates used for distance computation
	// and visualisation (Appendix A.2). They are zero when unknown.
	Lat, Lng float64
	// HasLoc reports whether Lat/Lng carry real data.
	HasLoc bool
	// out and in hold the adjacent link IDs.
	out, in []LinkID
}

// Out returns the identifiers of links leaving the router.
func (r *Router) Out() []LinkID { return r.out }

// In returns the identifiers of links entering the router.
func (r *Router) In() []LinkID { return r.in }

// Link is a directed edge of the multigraph. FromIfc/ToIfc name the
// interface on the source/target router; they may be empty for generated
// networks that do not model interfaces explicitly.
type Link struct {
	ID      LinkID
	From    RouterID
	To      RouterID
	FromIfc string
	ToIfc   string
	// Weight is an optional distance annotation (latency, geographic
	// distance, inverse capacity ...) used by the Distance atomic quantity
	// when no explicit distance function is supplied.
	Weight uint64
}

// SelfLoop reports whether the link starts and ends at the same router.
// Self-loops exist in real dataplanes (intra-router logical links) and are
// excluded from the Hops quantity.
func (l *Link) SelfLoop() bool { return l.From == l.To }

// Graph is a directed multigraph of routers and links. The zero value is an
// empty graph ready for use. Graphs are built once and then treated as
// immutable; concurrent readers are safe after construction.
type Graph struct {
	Routers []Router
	Links   []Link

	routerByName map[string]RouterID
	// ifcOut maps (router, interface name) to the link leaving through that
	// interface, ifcIn to the link arriving at it.
	ifcOut map[ifcKey]LinkID
	ifcIn  map[ifcKey]LinkID
}

type ifcKey struct {
	r    RouterID
	name string
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		routerByName: make(map[string]RouterID),
		ifcOut:       make(map[ifcKey]LinkID),
		ifcIn:        make(map[ifcKey]LinkID),
	}
}

// AddRouter adds a router with the given name and returns its ID. Adding a
// name twice returns the existing router.
func (g *Graph) AddRouter(name string) RouterID {
	if g.routerByName == nil {
		g.routerByName = make(map[string]RouterID)
		g.ifcOut = make(map[ifcKey]LinkID)
		g.ifcIn = make(map[ifcKey]LinkID)
	}
	if id, ok := g.routerByName[name]; ok {
		return id
	}
	id := RouterID(len(g.Routers))
	g.Routers = append(g.Routers, Router{ID: id, Name: name})
	g.routerByName[name] = id
	return id
}

// SetLocation records coordinates for a router.
func (g *Graph) SetLocation(r RouterID, lat, lng float64) {
	g.Routers[r].Lat = lat
	g.Routers[r].Lng = lng
	g.Routers[r].HasLoc = true
}

// AddLink adds a directed link from one router to another through the named
// interfaces (which may be empty) and returns its ID. Multiple parallel
// links between the same pair of routers are permitted (multigraph), but a
// non-empty interface name must identify at most one link per direction.
func (g *Graph) AddLink(from, to RouterID, fromIfc, toIfc string, weight uint64) (LinkID, error) {
	if int(from) >= len(g.Routers) || int(to) >= len(g.Routers) || from < 0 || to < 0 {
		return NoLink, fmt.Errorf("topology: AddLink with unknown router (%d -> %d)", from, to)
	}
	id := LinkID(len(g.Links))
	if fromIfc != "" {
		k := ifcKey{from, fromIfc}
		if prev, ok := g.ifcOut[k]; ok {
			return NoLink, fmt.Errorf("topology: interface %s.%s already used by outgoing link %d",
				g.Routers[from].Name, fromIfc, prev)
		}
		g.ifcOut[k] = id
	}
	if toIfc != "" {
		k := ifcKey{to, toIfc}
		if prev, ok := g.ifcIn[k]; ok {
			return NoLink, fmt.Errorf("topology: interface %s.%s already used by incoming link %d",
				g.Routers[to].Name, toIfc, prev)
		}
		g.ifcIn[k] = id
	}
	g.Links = append(g.Links, Link{ID: id, From: from, To: to, FromIfc: fromIfc, ToIfc: toIfc, Weight: weight})
	g.Routers[from].out = append(g.Routers[from].out, id)
	g.Routers[to].in = append(g.Routers[to].in, id)
	return id, nil
}

// MustAddLink is AddLink that panics on error; for generators and tests.
func (g *Graph) MustAddLink(from, to RouterID, fromIfc, toIfc string, weight uint64) LinkID {
	id, err := g.AddLink(from, to, fromIfc, toIfc, weight)
	if err != nil {
		panic(err)
	}
	return id
}

// RouterByName returns the router ID for a name, or NoRouter.
func (g *Graph) RouterByName(name string) RouterID {
	if id, ok := g.routerByName[name]; ok {
		return id
	}
	return NoRouter
}

// LinkOut returns the link leaving router r through the named interface, or
// NoLink if the interface is unknown.
func (g *Graph) LinkOut(r RouterID, ifc string) LinkID {
	if id, ok := g.ifcOut[ifcKey{r, ifc}]; ok {
		return id
	}
	return NoLink
}

// LinkIn returns the link arriving at router r through the named interface,
// or NoLink.
func (g *Graph) LinkIn(r RouterID, ifc string) LinkID {
	if id, ok := g.ifcIn[ifcKey{r, ifc}]; ok {
		return id
	}
	return NoLink
}

// LinksBetween returns all link IDs from router a to router b, in ID order.
func (g *Graph) LinksBetween(a, b RouterID) []LinkID {
	var out []LinkID
	for _, id := range g.Routers[a].out {
		if g.Links[id].To == b {
			out = append(out, id)
		}
	}
	return out
}

// NumRouters returns the number of routers.
func (g *Graph) NumRouters() int { return len(g.Routers) }

// NumLinks returns the number of directed links.
func (g *Graph) NumLinks() int { return len(g.Links) }

// Source returns the source router of a link (the function s of Def. 1).
func (g *Graph) Source(l LinkID) RouterID { return g.Links[l].From }

// Target returns the target router of a link (the function t of Def. 1).
func (g *Graph) Target(l LinkID) RouterID { return g.Links[l].To }

// LinkName renders a link as "A.ifc1#B.ifc2" (or "A#B" when interfaces are
// unnamed), matching the query language's link syntax.
func (g *Graph) LinkName(l LinkID) string {
	lk := g.Links[l]
	from := g.Routers[lk.From].Name
	to := g.Routers[lk.To].Name
	if lk.FromIfc != "" || lk.ToIfc != "" {
		return fmt.Sprintf("%s.%s#%s.%s", from, lk.FromIfc, to, lk.ToIfc)
	}
	return fmt.Sprintf("%s#%s", from, to)
}

// HasLinkName reports whether LinkName(l) == name. It compares name piece
// by piece with the link's router and interface names, so looking a name
// up across all links formats none of them.
func (g *Graph) HasLinkName(l LinkID, name string) bool {
	lk := &g.Links[l]
	from, to := g.Routers[lk.From].Name, g.Routers[lk.To].Name
	if lk.FromIfc == "" && lk.ToIfc == "" {
		return len(name) == len(from)+1+len(to) && isConcat(name, from, "#", to)
	}
	return len(name) == len(from)+len(lk.FromIfc)+len(to)+len(lk.ToIfc)+3 &&
		isConcat(name, from, ".", lk.FromIfc, "#", to, ".", lk.ToIfc)
}

// isConcat reports whether s is the concatenation of parts.
func isConcat(s string, parts ...string) bool {
	for _, p := range parts {
		var ok bool
		if s, ok = strings.CutPrefix(s, p); !ok {
			return false
		}
	}
	return s == ""
}
