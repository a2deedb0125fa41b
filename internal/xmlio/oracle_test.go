package xmlio

import (
	"encoding/xml"
	"fmt"
	"io"

	"aalwines/internal/network"
	"aalwines/internal/routing"
	"aalwines/internal/topology"
)

// readNetworkOracle is the encoding/xml reader that ReadNetwork replaced,
// kept as the oracle of the differential and fuzz tests. It decodes each
// document into the schema structs and then builds the network with the
// helpers ReadNetwork calls, so the two differ only in how they tokenise.
func readNetworkOracle(topo io.Reader, route io.Reader) (*network.Network, error) {
	var xn XMLNetwork
	if err := xml.NewDecoder(topo).Decode(&xn); err != nil {
		return nil, fmt.Errorf("xmlio: topology: %w", err)
	}
	net, err := newTopology(&xn)
	if err != nil {
		return nil, err
	}
	g := net.Topo

	var xr XMLRoutes
	if err := xml.NewDecoder(route).Decode(&xr); err != nil {
		return nil, fmt.Errorf("xmlio: routing: %w", err)
	}
	for _, routerEntry := range xr.Routings {
		r := g.RouterByName(routerEntry.For)
		if r == topology.NoRouter {
			return nil, fmt.Errorf("xmlio: routing for unknown router %q", routerEntry.For)
		}
		for _, d := range routerEntry.Destinations {
			in := g.LinkIn(r, d.From)
			if in == topology.NoLink {
				return nil, fmt.Errorf("xmlio: router %s has no incoming interface %q", routerEntry.For, d.From)
			}
			top, err := internLabel(net.Labels, []byte(d.Label), []byte(d.Kind))
			if err != nil {
				return nil, fmt.Errorf("xmlio: %w", err)
			}
			for _, grp := range d.TE {
				if err := checkPriority(routerEntry.For, grp.Priority); err != nil {
					return nil, fmt.Errorf("xmlio: %w", err)
				}
				for _, xroute := range grp.Routes {
					out := g.LinkOut(r, xroute.To)
					if out == topology.NoLink {
						return nil, fmt.Errorf("xmlio: router %s has no outgoing interface %q", routerEntry.For, xroute.To)
					}
					var ops routing.Ops
					for _, act := range xroute.Actions {
						op, err := actionOp(net.Labels, []byte(act.Type), []byte(act.Arg), []byte(act.Kind))
						if err != nil {
							return nil, fmt.Errorf("xmlio: %w", err)
						}
						ops = append(ops, op)
					}
					if err := net.Routing.Add(in, top, grp.Priority, routing.Entry{Out: out, Ops: ops}); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return net, nil
}
