package xmlio

import (
	"strings"
	"testing"

	"aalwines/internal/gen"
)

// FuzzReadNetwork mutates (topology, routing) document pairs. When the
// scanner accepts a pair, the oracle must accept it too and build the same
// network; when only the oracle accepts, the scanner's error must wrap
// errUnsupported. Small inputs are also read a byte at a time, which must
// not change the outcome.
func FuzzReadNetwork(f *testing.F) {
	topo, route := documents(f, gen.RunningExample().Network)
	f.Add(topo, route)
	f.Add([]byte(appendixTopo), []byte(appendixRoute))
	// Each edit applies to both Appendix A documents and has one effect;
	// the comments say which reader outcome it pins.
	decl := `<?xml version="1.0"?>`
	for _, pairs := range [][]string{
		{"\n", "\r\n"},
		{`"`, `'`},
		{`"R3"`, `"&#82;&#x33;"`},
		{`"$300292"`, `"&#36;&lt;&gt;&amp;&apos;&quot;"`},
		{`"R0"`, `"R&#xD800;&#x10FFFF;"`},        // a surrogate reads as U+FFFD
		{`"R0"`, "\"R\r0\r\n1&#13;\n\""},         // CR and CR LF read as LF
		{`arg="$300293"`, `arg="&#0;"`},          // rejected: not an XML character
		{`priority="1"`, `priority=" +1&#xA0;"`}, // space trimmed as strings.TrimSpace does
		{`<routers>`, `<routers>]]&gt;]]`},
		{`<routers>`, `<routers>]]>`},    // rejected outside CDATA
		{`<routers>`, "<routers>\xff"},   // rejected: invalid UTF-8
		{`<routers>`, "<routers>\uFFFE"}, // rejected: not an XML character
		{decl, `<?xml version='1.0' encoding="utf-8"?><?pi x?><!--c-->`},
		{decl, `<?xml version="1.1"?>`},                // rejected
		{decl, `<?xml encoding="latin1"?>`},            // rejected
		{decl, `<!-- a -- b -->`},                      // rejected
		{decl, "\uFEFF<!DOCTYPE x [<!ENTITY y 'z'>]>"}, // unsupported
		{`<links>`, `<links><![CDATA[<sides/>]]>`},     // unsupported
		{`<routings>`, `<x:routings/><routings>`},      // unsupported
		{`</network>`, `</network><junk`, `</routes>`, `</routes>&bad;`},
		{`priority="1"`, `priority="65"`}, // rejected by the table
		{`<sides>`, `<sides weight=" 7 ">`},
		{`<sides>`, `<sides weight="7" weight="x">`}, // rejected: each must parse
		{` label="$300292"`, ` label="" kind="ip"`},  // rejected: empty label
		{`<router name="R3">`, `<router name='R3'/><router>`},
		{`"ae5.0"/>`, `"ae5.0"/ >`},                  // rejected: "/ >"
		{`<routers>`, `<routers><1a/>`},              // rejected: bad name
		{`<routes>`, `<rts>`, `</routes>`, `</rts>`}, // rejected: wrong root
	} {
		r := strings.NewReplacer(pairs...)
		f.Add([]byte(r.Replace(appendixTopo)), []byte(r.Replace(appendixRoute)))
	}
	f.Fuzz(func(t *testing.T, topo, route []byte) {
		checkAgainstOracle(t, topo, route, 8<<10)
	})
}
