package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aalwines/internal/cli"
	"aalwines/internal/engine"
	"aalwines/internal/live"
	"aalwines/internal/network"
	"aalwines/internal/sweep"
	"aalwines/internal/topology"
)

// phi0 is the running example's delivery query: satisfied over the e4
// link v2→v3 with no failures, and over v1 once e4 has failed.
const phi0 = "<ip> [.#v0] .* [v3#.] <ip> 1"

// links names the links of a JSON witness trace.
func links(trace []cli.StepJSON) []string {
	out := make([]string, len(trace))
	for i, s := range trace {
		out[i] = s.Link
	}
	return out
}

// TestRun drives every mode of the command on the running example.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	file := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	queries := file("q.txt", "# comment\n"+phi0+"\n\n<ip> [.#v0] .* [v2#v4] .* [v3#.] <ip> 0\n")
	outage := file("outage.wif", "fail v2.oe4#v3.ie4\n")
	feed := file("updates.feed", `{"type":"link-down","link":"v2.oe4#v3.ie4"}`+"\nflush\n"+
		`{"type":"link-down","link":"v2.oe5#v4.ie5"}`+"\n")

	for _, tc := range []struct {
		name  string
		args  []string
		check func(t *testing.T, out []byte)
	}{
		{"query text", []string{"-query", phi0}, func(t *testing.T, out []byte) {
			for _, want := range []string{"verdict: satisfied", "witness: ", "failed:  (none required)"} {
				if !bytes.Contains(out, []byte(want)) {
					t.Errorf("output lacks %q:\n%s", want, out)
				}
			}
		}},
		{"query json", []string{"-query", phi0, "-json"}, func(t *testing.T, out []byte) {
			var r cli.ResultJSON
			if err := json.Unmarshal(out, &r); err != nil {
				t.Fatal(err)
			}
			if r.Verdict != "satisfied" || !strings.Contains(strings.Join(links(r.Trace), " "), "v2.oe4#v3.ie4") {
				t.Errorf("result = %+v, want satisfied over e4", r)
			}
		}},
		{"queries", []string{"-queries", queries, "-j", "2", "-json"}, func(t *testing.T, out []byte) {
			var items []cli.BatchItemJSON
			if err := json.Unmarshal(out, &items); err != nil {
				t.Fatal(err)
			}
			if len(items) != 2 || items[0].Query != phi0 || items[0].Verdict != "satisfied" || items[1].Verdict == "" {
				t.Errorf("items = %+v, want two verdicts in file order", items)
			}
		}},
		{"scenario", []string{"-scenario", outage, "-query", phi0, "-json"}, func(t *testing.T, out []byte) {
			var r cli.ResultJSON
			if err := json.Unmarshal(out, &r); err != nil {
				t.Fatal(err)
			}
			path := strings.Join(links(r.Trace), " ")
			if r.Verdict != "satisfied" || strings.Contains(path, "v2.oe4#v3.ie4") || !strings.Contains(path, "#v1.") {
				t.Errorf("result = %+v, want satisfied, rerouted through v1 around the failed e4", r)
			}
		}},
		{"sweep", []string{"-sweep", "-sweep-depth", "2", "-query", "<ip> [.#v0] [v0#v2] .* [v3#.] <ip> 0", "-json"}, func(t *testing.T, out []byte) {
			var rep sweep.Report
			if err := json.Unmarshal(out, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Scenarios != 36 || len(rep.Invariants) != 1 {
				t.Fatalf("report = %+v, want 36 scenarios of one invariant", rep)
			}
			found := false
			for _, set := range rep.Invariants[0].MinimalBreaking {
				found = found || strings.Join(set, " ") == "v2.oe4#v3.ie4 v2.oe5#v4.ie5"
			}
			if !found {
				t.Errorf("minimal breaking sets %v lack {e4, e5}", rep.Invariants[0].MinimalBreaking)
			}
		}},
		{"live", []string{"-live", feed, "-query", "<ip> [.#v0] [v0#v2] .* [v3#.] <ip> 0", "-json"}, func(t *testing.T, out []byte) {
			var rep struct {
				Stats       live.ReplayStats  `json:"stats"`
				Initial     []live.Cell       `json:"initial"`
				Transitions []live.WatchEvent `json:"transitions"`
				Final       []live.Cell       `json:"final"`
			}
			if err := json.Unmarshal(out, &rep); err != nil {
				t.Fatal(err)
			}
			// Two link-downs and the flush between them.
			if rep.Stats.Events != 3 || rep.Stats.Flushes != 2 || len(rep.Initial) != 1 || len(rep.Final) != 1 {
				t.Fatalf("report = %+v, want 3 events in 2 flushes over one invariant", rep)
			}
			if rep.Initial[0].Verdict != "satisfied" || rep.Final[0].Verdict != "unsatisfied" || len(rep.Transitions) == 0 {
				t.Errorf("initial %+v, final %+v, %d transitions: want satisfied until e4 and e5 fail",
					rep.Initial[0], rep.Final[0], len(rep.Transitions))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(append([]string{"-net", "running-example"}, tc.args...), &out); err != nil {
				t.Fatalf("run: %v", err)
			}
			tc.check(t, out.Bytes())
		})
	}
}

// TestRunEngineErrors: the engine flags are refused in the daemon's words.
func TestRunEngineErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-engine", "z3"}, "unknown engine z3"},
		{[]string{"-engine", "moped", "-weight", "Hops"}, "the moped engine does not support weights"},
		{[]string{"-weight", "frobs"}, "frobs"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-query", phi0}, tc.args...), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}

// TestRunWriteFiles: -write-topology, -write-routing and -write-locations
// export every builtin family (at a 20-router size target where the
// family takes one) in a form that reads back to the same network — same
// routers, located routers, rules, labels and links — and the same
// verdict.
func TestRunWriteFiles(t *testing.T) {
	const q = "<smpls? ip> .* <. smpls ip> 0"
	for _, name := range []string{"running-example", "nordunet", "zoo", "fattree", "rings", "backbone"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			topo, route, locs := filepath.Join(dir, "topo.xml"), filepath.Join(dir, "route.xml"), filepath.Join(dir, "loc.json")
			var out bytes.Buffer
			if err := run([]string{"-net", name, "-routers", "20", "-services", "2",
				"-write-topology", topo, "-write-routing", route, "-write-locations", locs}, &out); err != nil {
				t.Fatalf("run: %v", err)
			}
			want, err := cli.Load(cli.NetFlags{Builtin: name, Routers: 20, Services: 2, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			// Read back as -topo/-routing/-locations do: xmlio.ReadNetwork,
			// then loc.Read.
			got, err := cli.Load(cli.NetFlags{Topo: topo, Route: route, Locations: locs})
			if err != nil {
				t.Fatal(err)
			}
			if g, w := counts(got), counts(want); g != w {
				t.Fatalf("read back %+v, want %+v", g, w)
			}
			// An XML link is bidirectional: every link reads back, and the
			// reader adds the reverse of each one-way link.
			names := map[string]bool{}
			for l := range got.Topo.Links {
				names[got.Topo.LinkName(topology.LinkID(l))] = true
			}
			for l := range want.Topo.Links {
				if name := want.Topo.LinkName(topology.LinkID(l)); !names[name] {
					t.Errorf("link %s did not read back", name)
				}
			}
			if n, w := got.Topo.NumLinks(), want.Topo.NumLinks(); n < w || n > 2*w {
				t.Errorf("%d links read back from %d", n, w)
			}
			gr, err := engine.VerifyText(got, q, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			wr, err := engine.VerifyText(want, q, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if gr.Verdict != wr.Verdict {
				t.Errorf("%s: read back %v, want %v", q, gr.Verdict, wr.Verdict)
			}
		})
	}
}

// netCounts sizes a network for TestRunWriteFiles.
type netCounts struct{ routers, located, rules, labels int }

func counts(net *network.Network) netCounts {
	c := netCounts{routers: net.Topo.NumRouters(), rules: net.Routing.NumRules(), labels: net.Labels.Len()}
	for i := range net.Topo.Routers {
		if net.Topo.Routers[i].HasLoc {
			c.located++
		}
	}
	return c
}
