// Package xmlio reads and writes the vendor-agnostic XML network format of
// Appendix A: a topology file (routers with interfaces, links as pairs of
// shared interfaces) and a routing file (per-router destinations with
// priority-ordered traffic engineering groups of routes and MPLS actions).
// The writers marshal the schema structs below with encoding/xml; the
// reader scans the files itself and builds the network as it reads.
package xmlio

import (
	"encoding/xml"
	"io"
	"sort"

	"aalwines/internal/network"
	"aalwines/internal/routing"
	"aalwines/internal/topology"
)

// ---- topology schema ----

// XMLNetwork is the root element of topo.xml.
type XMLNetwork struct {
	XMLName xml.Name    `xml:"network"`
	Name    string      `xml:"name,attr,omitempty"`
	Routers []XMLRouter `xml:"routers>router"`
	Links   []XMLSides  `xml:"links>sides"`
}

// XMLRouter declares a router and its interfaces.
type XMLRouter struct {
	Name       string         `xml:"name,attr"`
	Interfaces []XMLInterface `xml:"interfaces>interface"`
}

// XMLInterface declares one named interface.
type XMLInterface struct {
	Name string `xml:"name,attr"`
}

// XMLSides is one bidirectional link: two shared interfaces. A bidirectional
// physical link becomes two directed links in the model.
type XMLSides struct {
	Sides  []XMLSharedInterface `xml:"shared_interface"`
	Weight uint64               `xml:"weight,attr,omitempty"`
}

// XMLSharedInterface is one endpoint of a link.
type XMLSharedInterface struct {
	Interface string `xml:"interface,attr"`
	Router    string `xml:"router,attr"`
}

// ---- routing schema ----

// XMLRoutes is the root element of route.xml.
type XMLRoutes struct {
	XMLName  xml.Name     `xml:"routes"`
	Routings []XMLRouting `xml:"routings>routing"`
}

// XMLRouting holds the forwarding rules of one router.
type XMLRouting struct {
	For          string           `xml:"for,attr"`
	Destinations []XMLDestination `xml:"destinations>destination"`
}

// XMLDestination is a forwarding-table key: incoming interface + top label.
type XMLDestination struct {
	From  string       `xml:"from,attr"`
	Label string       `xml:"label,attr"`
	Kind  string       `xml:"kind,attr,omitempty"` // mpls|smpls|ip; guessed when empty
	TE    []XMLTEGroup `xml:"te-groups>te-group"`
}

// XMLTEGroup is one traffic engineering group with a priority (1 highest).
type XMLTEGroup struct {
	Priority int        `xml:"priority,attr"`
	Routes   []XMLRoute `xml:"route"`
}

// XMLRoute is one forwarding alternative: the outgoing interface and the
// header actions.
type XMLRoute struct {
	To      string      `xml:"to,attr"`
	Actions []XMLAction `xml:"actions>action"`
}

// XMLAction is one MPLS operation.
type XMLAction struct {
	Type string `xml:"type,attr"`          // swap|push|pop
	Arg  string `xml:"arg,attr,omitempty"` // label for swap/push
	Kind string `xml:"kind,attr,omitempty"`
}

// WriteTopology serialises the network's topology. Directed link pairs
// (a→b, b→a over mirrored interfaces) are merged back into one <sides>
// element; unpaired directed links get their own element with a single
// side listed first (source).
func WriteTopology(w io.Writer, net *network.Network) error {
	g := net.Topo
	out := XMLNetwork{Name: net.Name}
	for i := range g.Routers {
		r := &g.Routers[i]
		xr := XMLRouter{Name: r.Name}
		var ifcs []string
		for _, l := range r.Out() {
			if g.Links[l].FromIfc != "" {
				ifcs = append(ifcs, g.Links[l].FromIfc)
			}
		}
		for _, l := range r.In() {
			if g.Links[l].ToIfc != "" {
				ifcs = append(ifcs, g.Links[l].ToIfc)
			}
		}
		sort.Strings(ifcs)
		prev := ""
		for _, ifc := range ifcs {
			if ifc != prev {
				xr.Interfaces = append(xr.Interfaces, XMLInterface{Name: ifc})
				prev = ifc
			}
		}
		out.Routers = append(out.Routers, xr)
	}
	// Pair up reverse links: a→b matches b→a when their interfaces mirror.
	used := make([]bool, g.NumLinks())
	for i := 0; i < g.NumLinks(); i++ {
		if used[i] {
			continue
		}
		l := g.Links[i]
		used[i] = true
		sides := XMLSides{Weight: l.Weight, Sides: []XMLSharedInterface{
			{Interface: l.FromIfc, Router: g.Routers[l.From].Name},
			{Interface: l.ToIfc, Router: g.Routers[l.To].Name},
		}}
		// Find the mirror link.
		for _, cand := range g.Routers[l.To].Out() {
			cl := g.Links[cand]
			if !used[cand] && cl.To == l.From && cl.FromIfc == l.ToIfc && cl.ToIfc == l.FromIfc {
				used[cand] = true
				break
			}
		}
		out.Links = append(out.Links, sides)
	}
	return encode(w, out)
}

// WriteRouting serialises the routing tables.
func WriteRouting(w io.Writer, net *network.Network) error {
	g := net.Topo
	byRouter := map[topology.RouterID][]routing.Key{}
	for _, key := range net.Routing.Keys() {
		r := g.Target(key.In)
		byRouter[r] = append(byRouter[r], key)
	}
	var routers []topology.RouterID
	for r := range byRouter {
		routers = append(routers, r)
	}
	sort.Slice(routers, func(i, j int) bool { return routers[i] < routers[j] })
	out := XMLRoutes{}
	for _, r := range routers {
		xr := XMLRouting{For: g.Routers[r].Name}
		for _, key := range byRouter[r] {
			lbl := net.Labels.Get(key.Top)
			xd := XMLDestination{
				From:  g.Links[key.In].ToIfc,
				Label: lbl.Name,
				Kind:  lbl.Kind.String(),
			}
			for pr, grp := range net.Routing.Lookup(key.In, key.Top) {
				if len(grp.Entries) == 0 {
					continue
				}
				xg := XMLTEGroup{Priority: pr + 1}
				for _, e := range grp.Entries {
					xroute := XMLRoute{To: g.Links[e.Out].FromIfc}
					for _, op := range e.Ops {
						switch op.Kind {
						case routing.OpSwap:
							l := net.Labels.Get(op.Label)
							xroute.Actions = append(xroute.Actions, XMLAction{Type: "swap", Arg: l.Name, Kind: l.Kind.String()})
						case routing.OpPush:
							l := net.Labels.Get(op.Label)
							xroute.Actions = append(xroute.Actions, XMLAction{Type: "push", Arg: l.Name, Kind: l.Kind.String()})
						case routing.OpPop:
							xroute.Actions = append(xroute.Actions, XMLAction{Type: "pop"})
						}
					}
					xg.Routes = append(xg.Routes, xroute)
				}
				xd.TE = append(xd.TE, xg)
			}
			xr.Destinations = append(xr.Destinations, xd)
		}
		out.Routings = append(out.Routings, xr)
	}
	return encode(w, out)
}

func encode(w io.Writer, v interface{}) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}
