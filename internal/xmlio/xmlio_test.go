package xmlio

import (
	"bytes"
	"strings"
	"testing"

	"aalwines/internal/engine"
	"aalwines/internal/gen"
)

// TestRoundTripRunningExample writes the running example and reads it back;
// verdicts of the Figure 1d queries must be unchanged.
func TestRoundTripRunningExample(t *testing.T) {
	re := gen.RunningExample()
	var topo, route bytes.Buffer
	if err := WriteTopology(&topo, re.Network); err != nil {
		t.Fatal(err)
	}
	if err := WriteRouting(&route, re.Network); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNetwork(bytes.NewReader(topo.Bytes()), bytes.NewReader(route.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Topo.NumRouters() != re.Topo.NumRouters() {
		t.Fatalf("routers: %d vs %d", got.Topo.NumRouters(), re.Topo.NumRouters())
	}
	if got.Routing.NumRules() != re.Routing.NumRules() {
		t.Fatalf("rules: %d vs %d", got.Routing.NumRules(), re.Routing.NumRules())
	}
	queries := []string{
		"<ip> [.#v0] .* [v3#.] <ip> 0",
		"<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
		"<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
	}
	for _, q := range queries {
		a, err := engine.VerifyText(re.Network, q, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := engine.VerifyText(got, q, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Verdict != b.Verdict {
			t.Errorf("%s: original=%v roundtrip=%v", q, a.Verdict, b.Verdict)
		}
	}
}

// TestRoundTripZoo round-trips a generated network with protection.
func TestRoundTripZoo(t *testing.T) {
	s := gen.Zoo(gen.ZooOpts{Routers: 16, Seed: 2, Protection: true})
	var topo, route bytes.Buffer
	if err := WriteTopology(&topo, s.Net); err != nil {
		t.Fatal(err)
	}
	if err := WriteRouting(&route, s.Net); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNetwork(&topo, &route)
	if err != nil {
		t.Fatal(err)
	}
	if got.Routing.NumRules() != s.Net.Routing.NumRules() {
		t.Fatalf("rules: %d vs %d", got.Routing.NumRules(), s.Net.Routing.NumRules())
	}
	if got.Labels.Len() != s.Net.Labels.Len() {
		t.Fatalf("labels: %d vs %d", got.Labels.Len(), s.Net.Labels.Len())
	}
}

const appendixTopo = `<?xml version="1.0"?>
<network>
  <routers>
    <router name="R0">
      <interfaces>
        <interface name="ae1.11"/>
        <interface name="ae5.0"/>
        <interface name="et-3/0/0.2"/>
      </interfaces>
    </router>
    <router name="R3">
      <interfaces>
        <interface name="et-1/3/0.2"/>
      </interfaces>
    </router>
  </routers>
  <links>
    <sides>
      <shared_interface interface="et-3/0/0.2" router="R0"/>
      <shared_interface interface="et-1/3/0.2" router="R3"/>
    </sides>
  </links>
</network>`

const appendixRoute = `<?xml version="1.0"?>
<routes>
  <routings>
    <routing for="R3">
      <destinations>
        <destination from="et-1/3/0.2" label="$300292">
          <te-groups>
            <te-group priority="1">
              <route to="et-1/3/0.2">
                <actions>
                  <action type="swap" arg="$300293"/>
                </actions>
              </route>
            </te-group>
          </te-groups>
        </destination>
      </destinations>
    </routing>
  </routings>
</routes>`

// TestAppendixFormat parses hand-written XML in the Appendix A shape.
func TestAppendixFormat(t *testing.T) {
	net, err := ReadNetwork(strings.NewReader(appendixTopo), strings.NewReader(appendixRoute))
	if err != nil {
		t.Fatal(err)
	}
	if net.Topo.NumRouters() != 2 {
		t.Fatalf("routers = %d", net.Topo.NumRouters())
	}
	// One <sides> element = two directed links.
	if net.Topo.NumLinks() != 2 {
		t.Fatalf("links = %d, want 2", net.Topo.NumLinks())
	}
	if net.Routing.NumRules() != 1 {
		t.Fatalf("rules = %d", net.Routing.NumRules())
	}
	// Service labels $NNN guess to plain MPLS kind.
	id := net.Labels.Lookup("$300292")
	if id == 0 {
		t.Fatal("label not interned")
	}
}

func TestReadErrors(t *testing.T) {
	ok := appendixTopo
	cases := []struct {
		name        string
		topo, route string
	}{
		{"bad topo xml", "<network", appendixRoute},
		{"bad route xml", ok, "<routes"},
		{"one-sided link", strings.Replace(ok, `<shared_interface interface="et-1/3/0.2" router="R3"/>`, "", 1), appendixRoute},
		{"unknown router in link", strings.Replace(ok, `router="R3"`, `router="R9"`, 1), appendixRoute},
		{"routing for unknown router", ok, strings.Replace(appendixRoute, `for="R3"`, `for="R9"`, 1)},
		{"unknown in interface", ok, strings.Replace(appendixRoute, `from="et-1/3/0.2"`, `from="nope"`, 1)},
		{"unknown out interface", ok, strings.Replace(appendixRoute, `to="et-1/3/0.2"`, `to="nope"`, 1)},
		{"bad action", ok, strings.Replace(appendixRoute, `type="swap"`, `type="frob"`, 1)},
		{"bad priority", ok, strings.Replace(appendixRoute, `priority="1"`, `priority="0"`, 1)},
		{"priority above max", ok, strings.Replace(appendixRoute, `priority="1"`, `priority="65"`, 1)},
		{"destination without label", ok, strings.Replace(appendixRoute, ` label="$300292"`, "", 1)},
		{"swap without arg", ok, strings.Replace(appendixRoute, ` arg="$300293"`, "", 1)},
	}
	for _, c := range cases {
		if _, err := ReadNetwork(strings.NewReader(c.topo), strings.NewReader(c.route)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
		if _, err := readNetworkOracle(strings.NewReader(c.topo), strings.NewReader(c.route)); err == nil {
			t.Errorf("%s: oracle accepted", c.name)
		}
	}
}

func TestExplicitKinds(t *testing.T) {
	route := strings.Replace(appendixRoute, `label="$300292"`, `label="$300292" kind="smpls"`, 1)
	net, err := ReadNetwork(strings.NewReader(appendixTopo), strings.NewReader(route))
	if err != nil {
		t.Fatal(err)
	}
	id := net.Labels.Lookup("$300292")
	if got := net.Labels.Kind(id).String(); got != "smpls" {
		t.Fatalf("kind = %s, want smpls", got)
	}
	// Conflicting kind later must error.
	route2 := strings.Replace(route, `arg="$300293"`, `arg="$300292" kind="mpls"`, 1)
	if _, err := ReadNetwork(strings.NewReader(appendixTopo), strings.NewReader(route2)); err == nil {
		t.Error("conflicting kinds accepted")
	}
}
