package xmlio

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"aalwines/internal/labels"
	"aalwines/internal/network"
	"aalwines/internal/routing"
	"aalwines/internal/topology"
)

// ReadNetwork parses a topology file and a routing file into a network.
//
// Each file is scanned once, through a small window, and the routing
// entries are added to the network as their tags arrive; DESIGN.md §13
// lists the XML the scanner accepts. A syntax error names the file and the
// line.
func ReadNetwork(topo io.Reader, route io.Reader) (*network.Network, error) {
	s := newScanner("topology", topo)
	var xn XMLNetwork
	err := s.walk(eNetwork, func(e elem) error {
		switch e {
		case eNetwork:
			xn.Name = string(s.attr("name"))
		case eRouter:
			xn.Routers = append(xn.Routers, XMLRouter{Name: string(s.attr("name"))})
		case eSides:
			var w uint64
			for _, a := range s.attrs {
				if string(a.name) != "weight" {
					continue
				}
				var err error
				if w, err = attrUint(a.val); err != nil {
					return fmt.Errorf("weight: %w", err)
				}
			}
			xn.Links = append(xn.Links, XMLSides{Weight: w})
		case eSharedInterface:
			l := &xn.Links[len(xn.Links)-1]
			l.Sides = append(l.Sides, XMLSharedInterface{
				Interface: string(s.attr("interface")),
				Router:    string(s.attr("router")),
			})
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	net, err := newTopology(&xn)
	if err != nil {
		return nil, err
	}
	b := &routeBuilder{s: newScanner("routing", route), net: net}
	if err := b.s.walk(eRoutes, b.start, b.end); err != nil {
		return nil, err
	}
	return net, nil
}

// elem names an element of the App. A schema by its place in the
// document, the way the schema structs' `a>b` tags do.
type elem uint8

const (
	eSkip elem = iota // any other element: scanned, then ignored
	eDoc              // the document, around the root
	eNetwork
	eRouters
	eRouter
	eLinks
	eSides
	eSharedInterface
	eRoutes
	eRoutings
	eRouting
	eDestinations
	eDestination
	eTEGroups
	eTEGroup
	eRoute
	eActions
	eAction
)

// schema gives each element its parent and its name.
var schema = [...]struct {
	parent elem
	name   string
}{
	eNetwork:         {eDoc, "network"},
	eRouters:         {eNetwork, "routers"},
	eRouter:          {eRouters, "router"},
	eLinks:           {eNetwork, "links"},
	eSides:           {eLinks, "sides"},
	eSharedInterface: {eSides, "shared_interface"},
	eRoutes:          {eDoc, "routes"},
	eRoutings:        {eRoutes, "routings"},
	eRouting:         {eRoutings, "routing"},
	eDestinations:    {eRouting, "destinations"},
	eDestination:     {eDestinations, "destination"},
	eTEGroups:        {eDestination, "te-groups"},
	eTEGroup:         {eTEGroups, "te-group"},
	eRoute:           {eTEGroup, "route"},
	eActions:         {eRoute, "actions"},
	eAction:          {eActions, "action"},
}

// children lists each element's children in the schema.
var children = func() (c [len(schema)][]elem) {
	for e, s := range schema {
		if s.name != "" {
			c[s.parent] = append(c[s.parent], elem(e))
		}
	}
	return c
}()

// child is the schema element called name inside parent, or eSkip.
func child(parent elem, name []byte) elem {
	for _, e := range children[parent] {
		if schema[e].name == string(name) {
			return e
		}
	}
	return eSkip
}

// walk scans a document whose root must be root, calling start at the
// start tag of every schema element and end, if not nil, at its end. The
// last tag's attributes are s.attrs. walk stops at the root's end tag and
// reads nothing after it, as encoding/xml's Decode does not.
func (s *scanner) walk(root elem, start, end func(elem) error) error {
	path := []elem{eDoc}
	for {
		tok, err := s.next()
		if err != nil {
			return err
		}
		var e elem
		if tok == tokStart {
			e = child(path[len(path)-1], s.name)
			if len(path) == 1 && e != root {
				return s.errAt(s.at, "expected element type <%s> but have <%s>", schema[root].name, s.name)
			}
			if e != eSkip {
				if err := start(e); err != nil {
					return s.wrap(err)
				}
			}
			if !s.empty {
				path = append(path, e)
				continue
			}
		} else {
			e = path[len(path)-1]
			path = path[:len(path)-1]
		}
		if e != eSkip && end != nil {
			if err := end(e); err != nil {
				return s.wrap(err)
			}
		}
		if len(path) == 1 {
			return nil
		}
	}
}

// routeBuilder adds a routing document's entries to a network as the
// scanner reaches them. Its lookups by a tag's bytes convert them to
// strings that do not escape, which costs no allocation for short names.
type routeBuilder struct {
	s   *scanner
	net *network.Network

	// The enclosing <routing>, <destination>, <te-group> and <route>.
	r        topology.RouterID
	key      routing.Key
	priority int
	to       topology.LinkID
	ops      routing.Ops
}

func (b *routeBuilder) start(e elem) error {
	s, g := b.s, b.net.Topo
	switch e {
	case eRouting:
		name := s.attr("for")
		if b.r = g.RouterByName(string(name)); b.r == topology.NoRouter {
			return fmt.Errorf("routing for unknown router %q", name)
		}
	case eDestination:
		from := s.attr("from")
		in := g.LinkIn(b.r, string(from))
		if in == topology.NoLink {
			return fmt.Errorf("router %s has no incoming interface %q", g.Routers[b.r].Name, from)
		}
		top, err := internLabel(b.net.Labels, s.attr("label"), s.attr("kind"))
		if err != nil {
			return err
		}
		b.key = routing.Key{In: in, Top: top}
	case eTEGroup:
		b.priority = 0
		for _, a := range s.attrs {
			if string(a.name) != "priority" {
				continue
			}
			var err error
			if b.priority, err = attrInt(a.val); err != nil {
				return fmt.Errorf("priority: %w", err)
			}
		}
		return checkPriority(g.Routers[b.r].Name, b.priority)
	case eRoute:
		to := s.attr("to")
		if b.to = g.LinkOut(b.r, string(to)); b.to == topology.NoLink {
			return fmt.Errorf("router %s has no outgoing interface %q", g.Routers[b.r].Name, to)
		}
		b.ops = b.ops[:0]
	case eAction:
		op, err := actionOp(b.net.Labels, s.attr("type"), s.attr("arg"), s.attr("kind"))
		if err != nil {
			return err
		}
		b.ops = append(b.ops, op)
	}
	return nil
}

func (b *routeBuilder) end(e elem) error {
	if e != eRoute {
		return nil
	}
	var ops routing.Ops
	if len(b.ops) > 0 {
		ops = slices.Clone(b.ops)
	}
	if err := b.net.Routing.Add(b.key.In, b.key.Top, b.priority, routing.Entry{Out: b.to, Ops: ops}); err != nil {
		return fmt.Errorf("priority %d: %w", b.priority, err)
	}
	return nil
}

// attrInt and attrUint parse numeric attributes as encoding/xml does: an
// empty value is 0 and white space around the number is ignored.
func attrInt(v []byte) (int, error) {
	if len(v) == 0 {
		return 0, nil
	}
	n, err := strconv.ParseInt(strings.TrimSpace(string(v)), 10, strconv.IntSize)
	return int(n), err
}

func attrUint(v []byte) (uint64, error) {
	if len(v) == 0 {
		return 0, nil
	}
	return strconv.ParseUint(strings.TrimSpace(string(v)), 10, 64)
}

// The helpers below hold the semantics of the App. A format, so that
// ReadNetwork and the encoding/xml reader kept as its test oracle differ
// only in how they tokenise.

// newTopology builds the network a topology document describes: its
// routers in order, then each <sides> as two directed links.
func newTopology(xn *XMLNetwork) (*network.Network, error) {
	name := xn.Name
	if name == "" {
		name = "xml-network"
	}
	net := network.New(name)
	g := net.Topo
	for _, xr := range xn.Routers {
		g.AddRouter(xr.Name)
	}
	for i, sides := range xn.Links {
		if len(sides.Sides) != 2 {
			return nil, fmt.Errorf("xmlio: topology: link %d has %d sides, want 2", i, len(sides.Sides))
		}
		a, b := sides.Sides[0], sides.Sides[1]
		ra := g.RouterByName(a.Router)
		rb := g.RouterByName(b.Router)
		if ra == topology.NoRouter || rb == topology.NoRouter {
			return nil, fmt.Errorf("xmlio: topology: link %d references unknown router", i)
		}
		w := sides.Weight
		if w == 0 {
			w = 1
		}
		if _, err := g.AddLink(ra, rb, a.Interface, b.Interface, w); err != nil {
			return nil, fmt.Errorf("xmlio: topology: link %d: %w", i, err)
		}
		if _, err := g.AddLink(rb, ra, b.Interface, a.Interface, w); err != nil {
			return nil, fmt.Errorf("xmlio: topology: link %d reverse: %w", i, err)
		}
	}
	return net, nil
}

// internLabel interns the label of a <destination> or an <action>. Its
// kind is explicit or, when empty, guessed from the name.
func internLabel(t *labels.Table, name, kind []byte) (labels.ID, error) {
	if len(name) == 0 {
		return labels.None, errors.New("empty label name")
	}
	var k labels.Kind
	if len(kind) == 0 {
		k = labels.GuessKind(string(name))
	} else {
		var err error
		if k, err = parseKind(kind); err != nil {
			return labels.None, fmt.Errorf("label %q: %w", name, err)
		}
	}
	id, err := t.InternBytes(name, k)
	if err != nil {
		return labels.None, fmt.Errorf("label %q: %w", name, err)
	}
	return id, nil
}

func parseKind(s []byte) (labels.Kind, error) {
	switch string(s) {
	case "mpls":
		return labels.MPLS, nil
	case "smpls":
		return labels.BottomMPLS, nil
	case "ip":
		return labels.IP, nil
	}
	return 0, fmt.Errorf("unknown label kind %q", s)
}

// checkPriority rejects a <te-group> priority below 1. The routing table
// rejects one above routing.MaxPriority when an entry is added to it.
func checkPriority(router string, p int) error {
	if p < 1 {
		return fmt.Errorf("router %s: priority %d < 1", router, p)
	}
	return nil
}

// actionOp is the MPLS operation of an <action>, whose label it interns.
func actionOp(t *labels.Table, typ, arg, kind []byte) (routing.Op, error) {
	switch string(typ) {
	case "swap", "push":
		l, err := internLabel(t, arg, kind)
		if err != nil {
			return routing.Op{}, fmt.Errorf("action %s: %w", typ, err)
		}
		if string(typ) == "swap" {
			return routing.Swap(l), nil
		}
		return routing.Push(l), nil
	case "pop":
		return routing.Pop(), nil
	}
	return routing.Op{}, fmt.Errorf("unknown action type %q", typ)
}
