package xmlio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"aalwines/internal/gen"
	"aalwines/internal/network"
)

// sameNetwork reports how two networks differ: routers with their names
// and in/out link order, links with their interfaces and weights, the
// label table in interning order with kinds, and every routing key's
// groups and entries in order. It returns nil if they do not.
func sameNetwork(a, b *network.Network) error {
	if a.Name != b.Name {
		return fmt.Errorf("name %q vs %q", a.Name, b.Name)
	}
	ga, gb := a.Topo, b.Topo
	if ga.NumRouters() != gb.NumRouters() || ga.NumLinks() != gb.NumLinks() {
		return fmt.Errorf("%d routers, %d links vs %d, %d", ga.NumRouters(), ga.NumLinks(), gb.NumRouters(), gb.NumLinks())
	}
	for i := range ga.Routers {
		ra, rb := &ga.Routers[i], &gb.Routers[i]
		if ra.Name != rb.Name || !slices.Equal(ra.Out(), rb.Out()) || !slices.Equal(ra.In(), rb.In()) {
			return fmt.Errorf("router %d: %q out %v in %v vs %q out %v in %v", i, ra.Name, ra.Out(), ra.In(), rb.Name, rb.Out(), rb.In())
		}
	}
	for i := range ga.Links {
		if ga.Links[i] != gb.Links[i] {
			return fmt.Errorf("link %d: %+v vs %+v", i, ga.Links[i], gb.Links[i])
		}
	}
	if !slices.Equal(a.Labels.All(), b.Labels.All()) {
		return fmt.Errorf("label tables differ (%d vs %d labels)", a.Labels.Len(), b.Labels.Len())
	}
	ka, kb := a.Routing.Keys(), b.Routing.Keys()
	if !slices.Equal(ka, kb) {
		return fmt.Errorf("routing keys differ (%d vs %d)", len(ka), len(kb))
	}
	for _, k := range ka {
		if ga, gb := a.Routing.Lookup(k.In, k.Top), b.Routing.Lookup(k.In, k.Top); !ga.Equal(gb) {
			return fmt.Errorf("key %+v: groups %+v vs %+v", k, ga, gb)
		}
	}
	return nil
}

// documents writes a network's topology and routing files.
func documents(t testing.TB, net *network.Network) (topo, route []byte) {
	t.Helper()
	var tb, rb bytes.Buffer
	if err := WriteTopology(&tb, net); err != nil {
		t.Fatal(err)
	}
	if err := WriteRouting(&rb, net); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), rb.Bytes()
}

// readers are the ways the tests hand a document to ReadNetwork: whole,
// in halves of each requested window, and a byte at a time, which puts a
// window boundary inside every token.
var readers = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"whole", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"halves", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
	{"bytes", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
}

// checkAgainstOracle reads topo and route with ReadNetwork through every
// reader and with the oracle. Both must accept and build the same network,
// or both must fail, except that ReadNetwork may refuse what the oracle
// accepts if its error wraps errUnsupported. It returns the scanner's
// network and error.
func checkAgainstOracle(t testing.TB, topo, route []byte, maxBytewise int) (*network.Network, error) {
	t.Helper()
	want, werr := readNetworkOracle(bytes.NewReader(topo), bytes.NewReader(route))
	var first *network.Network
	var ferr error
	for i, rd := range readers {
		if rd.name == "bytes" && len(topo)+len(route) > maxBytewise {
			continue
		}
		got, err := ReadNetwork(rd.wrap(topo), rd.wrap(route))
		switch {
		case err == nil && werr != nil:
			t.Fatalf("%s: scanner accepted what the oracle rejects: %v", rd.name, werr)
		case err == nil:
			if d := sameNetwork(got, want); d != nil {
				t.Fatalf("%s: scanner and oracle differ: %v", rd.name, d)
			}
		case werr == nil && !errors.Is(err, errUnsupported):
			t.Fatalf("%s: scanner rejected what the oracle accepts: %v", rd.name, err)
		}
		if i == 0 {
			first, ferr = got, err
		} else if (err == nil) != (ferr == nil) {
			t.Fatalf("%s: error %v, but %v reading whole", rd.name, err, ferr)
		}
	}
	return first, ferr
}

// TestReadNetworkMatchesOracle round-trips every generator family through
// the writers and checks that the scanner and the oracle read the same
// network back.
func TestReadNetworkMatchesOracle(t *testing.T) {
	cases := []struct {
		name string
		net  *network.Network
	}{
		{"running-example", gen.RunningExample().Network},
		{"zoo", gen.Zoo(gen.ZooOpts{Routers: 16, Seed: 2}).Net},
		{"zoo-protected", gen.Zoo(gen.ZooOpts{Routers: 16, Seed: 2, Protection: true}).Net},
		{"fattree", gen.FatTree(gen.FatTreeOpts{K: 4, Services: 2, Seed: 1}).Net},
		{"backbone", gen.Backbone(gen.BackboneOpts{Core: 6, Pops: 12, Services: 2, Seed: 1}).Net},
		{"ring-of-rings", gen.RingOfRings(gen.RingOfRingsOpts{Rings: 4, RingSize: 6, EdgeRouters: 6, Services: 2, Seed: 1}).Net},
		{"nordunet", gen.Nordunet(gen.NordOpts{Services: 1, Seed: 1}).Net},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			topo, route := documents(t, c.net)
			got, err := checkAgainstOracle(t, topo, route, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if got.Routing.NumRules() != c.net.Routing.NumRules() || got.Labels.Len() != c.net.Labels.Len() {
				t.Fatalf("read %d rules, %d labels; wrote %d, %d", got.Routing.NumRules(), got.Labels.Len(),
					c.net.Routing.NumRules(), c.net.Labels.Len())
			}
		})
	}
}

// TestReadNetworkMatchesOraclePaperScale compares the two readers on the
// >250k-rule NORDUnet snapshot of the paper-scale benchmarks.
func TestReadNetworkMatchesOraclePaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale read skipped in -short mode")
	}
	net := gen.Nordunet(gen.NordOpts{Services: 70, EdgeRouters: 31, Seed: 1}).Net
	topo, route := documents(t, net)
	rules := net.Routing.NumRules()
	net = nil
	got, err := checkAgainstOracle(t, topo, route, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Routing.NumRules() != rules {
		t.Fatalf("read %d rules, wrote %d", got.Routing.NumRules(), rules)
	}
}

// TestReadNetworkLargeTokens puts a comment, a text run and an attribute
// value larger than the window into a document: the window grows to hold
// the attribute's tag and streams past the rest.
func TestReadNetworkLargeTokens(t *testing.T) {
	big := strings.Repeat("x", 3*window)
	topo := strings.Replace(appendixTopo, `<routers>`, "<!--"+big+"-->\n<routers>"+big, 1)
	topo = strings.Replace(topo, `name="R0"`, `name="R0`+big+`"`, 1)
	topo = strings.Replace(topo, `router="R0"`, `router="R0`+big+`"`, 1)
	net, err := checkAgainstOracle(t, []byte(topo), []byte(appendixRoute), 0)
	if err != nil {
		t.Fatal(err)
	}
	if net.Topo.RouterByName("R0"+big) != 0 {
		t.Fatal("long router name not read")
	}
}

// TestReadNetworkVariants checks that the Appendix A documents read the
// same with CRLF line endings, single-quoted attributes, references for
// plain characters, comments, self-closing tags, unknown elements and
// attributes, duplicate attributes, and containers split or reordered.
func TestReadNetworkVariants(t *testing.T) {
	want, err := ReadNetwork(strings.NewReader(appendixTopo), strings.NewReader(appendixRoute))
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		edit func(string) string
	}{
		{"crlf", func(s string) string { return strings.ReplaceAll(s, "\n", "\r\n") }},
		{"single quotes", func(s string) string { return strings.ReplaceAll(s, `"`, `'`) }},
		{"references", func(s string) string {
			return strings.NewReplacer(`"R3"`, `"&#82;&#x33;"`, `"$300292"`, `"&#36;300292"`, "<routers>", "<routers>&lt;&gt;&amp;&apos;&quot;").Replace(s)
		}},
		{"comments", func(s string) string {
			return strings.ReplaceAll(s, "\n", "\n<!-- a - comment -->")
		}},
		{"explicit end tags", func(s string) string {
			return strings.NewReplacer(`"$300293"/>`, `"$300293"></action>`, `router="R0"/>`, `router="R0"></shared_interface>`).Replace(s)
		}},
		{"unknown", func(s string) string {
			return strings.NewReplacer("<routers>", `<routers><router2 name="R9"/>`, "<routings>", `<routings x="1"><foo><routing for="R9"/></foo>`, `<route `, `<route z="?" `).Replace(s)
		}},
		{"split containers", func(s string) string {
			return strings.NewReplacer("</routers>", "</routers><routers>\n</routers>", "<links>", "<links></links><links>").Replace(s)
		}},
		{"links first", func(s string) string {
			// The links name routers declared after them.
			i, j, k := strings.Index(s, "<routers>"), strings.Index(s, "<links>"), strings.Index(s, "</network>")
			if i < 0 {
				return s
			}
			return s[:i] + s[j:k] + s[i:j] + s[k:]
		}},
		{"duplicate attributes", func(s string) string {
			return strings.NewReplacer(`for="R3"`, `for="R0" for="R3"`, `priority="1"`, `priority="2" priority=" 1 "`).Replace(s)
		}},
	}
	for _, v := range variants {
		topo, route := v.edit(appendixTopo), v.edit(appendixRoute)
		if topo == appendixTopo && route == appendixRoute {
			t.Errorf("%s: edit changed nothing", v.name)
		}
		got, err := checkAgainstOracle(t, []byte(topo), []byte(route), 1<<20)
		if err != nil {
			t.Errorf("%s: %v", v.name, err)
			continue
		}
		if d := sameNetwork(got, want); d != nil {
			t.Errorf("%s: %v", v.name, d)
		}
	}
}

// TestReadNetworkUnsupported checks the constructs the scanner refuses
// although encoding/xml accepts them, and that it reads nothing after the
// root's end tag.
func TestReadNetworkUnsupported(t *testing.T) {
	for _, c := range []struct{ name, route string }{
		{"doctype", strings.Replace(appendixRoute, "<routes>", "<!DOCTYPE routes>\n<routes>", 1)},
		{"cdata", strings.Replace(appendixRoute, "<routings>", "<routings><![CDATA[x]]>", 1)},
		{"prefix", strings.Replace(appendixRoute, "<routings>", `<routings><x:routing for="R3"></x:routing>`, 1)},
		{"prefixed attribute", strings.Replace(appendixRoute, `for="R3"`, `x:for="R3"`, 1)},
		{"non-ascii name", strings.Replace(appendixRoute, "<routings>", "<routings><é/>", 1)},
	} {
		if _, err := readNetworkOracle(strings.NewReader(appendixTopo), strings.NewReader(c.route)); err != nil {
			t.Fatalf("%s: oracle rejects: %v", c.name, err)
		}
		_, err := ReadNetwork(strings.NewReader(appendixTopo), strings.NewReader(c.route))
		if !errors.Is(err, errUnsupported) {
			t.Errorf("%s: error %v, want errUnsupported", c.name, err)
		}
	}
	junk := appendixRoute + "\n</junk> & <<"
	if _, err := checkAgainstOracle(t, []byte(appendixTopo), []byte(junk), 1<<20); err != nil {
		t.Fatalf("trailing junk after the root: %v", err)
	}
}

// TestReadErrorLines checks that syntax errors name the file and the line
// of the fault.
func TestReadErrorLines(t *testing.T) {
	for _, c := range []struct {
		name, topo, route, want string
	}{
		{"mismatched end tag", strings.Replace(appendixTopo, "</routers>", "</router>", 1), appendixRoute,
			"xmlio: topology: line 16: element <routers> closed by </router>"},
		{"bad entity", appendixTopo, strings.Replace(appendixRoute, `arg="$300293"`, `arg="&dollar;300293"`, 1),
			"xmlio: routing: line 11: invalid character entity &dollar;"},
		{"crlf", appendixTopo, strings.ReplaceAll(strings.Replace(appendixRoute, `for="R3"`, `for="R3<"`, 1), "\n", "\r\n"),
			"xmlio: routing: line 4: unescaped < inside quoted string"},
		{"unknown interface", appendixTopo, strings.Replace(appendixRoute, `to="et-1/3/0.2"`, `to="nope"`, 1),
			`xmlio: routing: line 9: router R3 has no outgoing interface "nope"`},
	} {
		_, err := ReadNetwork(strings.NewReader(c.topo), strings.NewReader(c.route))
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}

// stuckReader returns no data and no error, which io.Reader discourages.
type stuckReader struct{}

func (stuckReader) Read([]byte) (int, error) { return 0, nil }

// TestReadNetworkReaderErrors checks that a failing or stuck reader ends
// the read with its error.
func TestReadNetworkReaderErrors(t *testing.T) {
	boom := errors.New("boom")
	failing := io.MultiReader(strings.NewReader(appendixTopo[:100]), iotest.ErrReader(boom))
	if _, err := ReadNetwork(failing, strings.NewReader(appendixRoute)); !errors.Is(err, boom) {
		t.Errorf("failing reader: error %v, want %v", err, boom)
	}
	if _, err := ReadNetwork(strings.NewReader(appendixTopo), stuckReader{}); !errors.Is(err, io.ErrNoProgress) {
		t.Errorf("stuck reader: error %v, want %v", err, io.ErrNoProgress)
	}
}

// allocsDoc is the document of the allocation gate and the benchmark:
// NORDUnet with every PoP an edge router and two services per pair,
// 31,500 rules.
func allocsDoc(t testing.TB) (topo, route []byte, rules int) {
	net := gen.Nordunet(gen.NordOpts{Services: 2, EdgeRouters: 31, Seed: 1}).Net
	topo, route = documents(t, net)
	return topo, route, net.Routing.NumRules()
}

// TestReadNetworkAllocs bounds the scanner's allocations per routing
// entry. Interning a new label, the entry's operations and its group
// account for most of them; the encoding/xml oracle makes about 100.
func TestReadNetworkAllocs(t *testing.T) {
	topo, route, rules := allocsDoc(t)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ReadNetwork(bytes.NewReader(topo), bytes.NewReader(route)); err != nil {
			t.Fatal(err)
		}
	})
	per := allocs / float64(rules)
	t.Logf("%.0f allocations for %d rules: %.2f per rule", allocs, rules, per)
	if per > 8 {
		t.Fatalf("%.2f allocations per rule, want at most 8", per)
	}
}

func BenchmarkReadNetwork(b *testing.B) {
	topo, route, rules := allocsDoc(b)
	b.SetBytes(int64(len(topo) + len(route)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadNetwork(bytes.NewReader(topo), bytes.NewReader(route)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rules), "rules")
}
