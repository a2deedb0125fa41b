// Package query implements the AalWiNes query language of Definition 5:
// reachability queries of the form
//
//	<a> b <c> k
//
// where a and c are regular expressions over the label set L, b is a
// regular expression over the link set E and k bounds the number of failed
// links. The concrete syntax follows the paper:
//
//	labels:  s40 10 $449550 ip mpls smpls [l1,l2] . ^x (x|y) x* x+ x?
//	links:   [v#u] [v.in1#u.in2] [.#v] [v#.] [^v#u] . ^x (x|y) x* x+ x?
//
// Parse resolves atoms against a concrete network, producing symbol-set
// regular expressions (internal/rex) and compiled NFAs (internal/nfa) over
// the label and link universes.
package query

import (
	"fmt"
	"strings"

	"aalwines/internal/labels"
	"aalwines/internal/network"
	"aalwines/internal/nfa"
	"aalwines/internal/rex"
	"aalwines/internal/topology"
)

// Query is a parsed and compiled reachability query.
type Query struct {
	// Text is the original query string.
	Text string
	// HeadPre, Path and HeadPost are the three regular expressions.
	HeadPre  rex.Node
	Path     rex.Node
	HeadPost rex.Node
	// MaxFailures is k.
	MaxFailures int

	// PreNFA and PostNFA are epsilon-free automata over the label universe
	// (symbol = labels.ID − 1); PathNFA is an epsilon-free automaton over
	// the link universe (symbol = topology.LinkID).
	PreNFA  *nfa.NFA
	PostNFA *nfa.NFA
	PathNFA *nfa.NFA
}

// LabelSym converts a label ID to its automaton symbol.
func LabelSym(id labels.ID) nfa.Sym { return nfa.Sym(id - 1) }

// LinkSym converts a link ID to its automaton symbol.
func LinkSym(id topology.LinkID) nfa.Sym { return nfa.Sym(id) }

// Parse parses and compiles a query against a network.
func Parse(text string, net *network.Network) (*Query, error) {
	p := &parser{s: text, net: net}
	q, err := p.parseQuery()
	if err != nil {
		return nil, fmt.Errorf("query %q: %w", text, err)
	}
	q.Text = text
	// Header expressions are intersected with the valid-header language H
	// (Definition 5 quantifies over traces, whose headers are members of
	// H by construction): ⟨. ip⟩, for instance, must not admit a plain
	// MPLS label directly on top of an IP label.
	valid := ValidHeaderNFA(net.Labels)
	if q.PreNFA, err = compile(q.HeadPre, net.Labels.Len(), valid); err != nil {
		return nil, fmt.Errorf("query %q: initial header expression: %w", text, err)
	}
	if q.PostNFA, err = compile(q.HeadPost, net.Labels.Len(), valid); err != nil {
		return nil, fmt.Errorf("query %q: final header expression: %w", text, err)
	}
	if q.PathNFA, err = compile(q.Path, net.Topo.NumLinks(), nil); err != nil {
		return nil, fmt.Errorf("query %q: path expression: %w", text, err)
	}
	return q, nil
}

// compile builds the ε-free automaton of n over a universe of u symbols,
// intersected with within unless that is nil, and shrinks it. It fails
// with nfa.ErrTooManyStates when any step, or the result, would pass
// nfa.MaxStates states, and with nfa.ErrTooManyArcs when the ε-free
// automaton or the intersection would pass nfa.MaxArcs arcs.
func compile(n rex.Node, u int, within *nfa.NFA) (*nfa.NFA, error) {
	a, err := rex.Compile(n, u)
	if err != nil {
		return nil, err
	}
	if within != nil {
		a, err = nfa.Product(a, within)
	} else {
		a, err = a.EpsFree()
	}
	if err != nil {
		return nil, err
	}
	if a = shrink(a); a.NumStates() > nfa.MaxStates {
		return nil, nfa.ErrTooManyStates
	}
	return a, nil
}

// shrink replaces an ε-free automaton by its minimal DFA when that has
// strictly fewer states and stays within nfa.MaxArcs arcs. The path
// automaton's state count multiplies directly into the pushdown system's
// control-state count, so this is a win-only heuristic. An automaton whose
// subset construction would pass nfa.MaxStates stays as it is: the
// language is the same either way.
func shrink(a *nfa.NFA) *nfa.NFA {
	if m, err := a.Minimize(); err == nil && m.NumStates() < a.NumStates() && m.NumArcs() <= nfa.MaxArcs {
		return m
	}
	return a
}

// ValidHeaderNFA builds an automaton over the label universe accepting
// exactly the valid headers H = L_IP ∪ L_M* L_M⊥ L_IP.
func ValidHeaderNFA(t *labels.Table) *nfa.NFA {
	u := t.Len()
	mk := func(kind labels.Kind) *nfa.Set {
		set := nfa.NewSet(u)
		for _, id := range t.OfKind(kind) {
			set.Add(LabelSym(id))
		}
		return set
	}
	a := nfa.New(u)
	c := a.AddState()                      // after one or more plain MPLS labels
	s1 := a.AddState()                     // after the bottom-of-stack label
	s2 := a.AddState()                     // after the IP label (accepting)
	a.AddArc(a.Start(), mk(labels.IP), s2) // bare IP header
	a.AddArc(a.Start(), mk(labels.MPLS), c)
	a.AddArc(c, mk(labels.MPLS), c)
	a.AddArc(a.Start(), mk(labels.BottomMPLS), s1)
	a.AddArc(c, mk(labels.BottomMPLS), s1)
	a.AddArc(s1, mk(labels.IP), s2)
	a.SetAccept(s2, true)
	return a
}

type parser struct {
	s   string
	pos int
	net *network.Network
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("at offset %d: "+format, append([]interface{}{p.pos}, args...)...)
}

func (p *parser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t' || p.s[p.pos] == '\n') {
		p.pos++
	}
}

// peek returns the next non-space byte without consuming it (0 at EOF).
// Unicode angle brackets ⟨ ⟩ are normalised to < >.
func (p *parser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return 0
	}
	if strings.HasPrefix(p.s[p.pos:], "⟨") {
		return '<'
	}
	if strings.HasPrefix(p.s[p.pos:], "⟩") {
		return '>'
	}
	return p.s[p.pos]
}

func (p *parser) eat(c byte) bool {
	if p.peek() != c {
		return false
	}
	if c == '<' && strings.HasPrefix(p.s[p.pos:], "⟨") {
		p.pos += len("⟨")
	} else if c == '>' && strings.HasPrefix(p.s[p.pos:], "⟩") {
		p.pos += len("⟩")
	} else {
		p.pos++
	}
	return true
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	if !p.eat('<') {
		return nil, p.errf("expected '<' opening the initial header expression")
	}
	pre, err := p.parseAlt(labelExpr)
	if err != nil {
		return nil, err
	}
	if !p.eat('>') {
		return nil, p.errf("expected '>' closing the initial header expression")
	}
	q.HeadPre = pre
	path, err := p.parseAlt(linkExpr)
	if err != nil {
		return nil, err
	}
	q.Path = path
	if !p.eat('<') {
		return nil, p.errf("expected '<' opening the final header expression")
	}
	post, err := p.parseAlt(labelExpr)
	if err != nil {
		return nil, err
	}
	if !p.eat('>') {
		return nil, p.errf("expected '>' closing the final header expression")
	}
	q.HeadPost = post
	k, err := p.parseInt()
	if err != nil {
		return nil, err
	}
	q.MaxFailures = k
	p.skipSpace()
	if p.pos != len(p.s) {
		return nil, p.errf("trailing input %q", p.s[p.pos:])
	}
	return q, nil
}

func (p *parser) parseInt() (int, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.s) && p.s[p.pos] >= '0' && p.s[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return 0, p.errf("expected the failure bound k")
	}
	if p.pos-start > 9 {
		return 0, p.errf("number %s has more than 9 digits", p.s[start:p.pos])
	}
	n := 0
	for _, c := range p.s[start:p.pos] {
		n = n*10 + int(c-'0')
	}
	return n, nil
}

// ---------- expressions ----------

// grammar is one of Definition 5's two expression languages: label
// expressions (the headers a and c) and link expressions (the path b).
// Both share one recursive descent (alternation, concatenation, the
// postfix repetitions, grouping, complement and the '.' wildcard) and
// differ only in these fields.
type grammar struct {
	// noun names the language in error messages.
	noun string
	// end closes a concatenation besides '|', ')' and the end of input:
	// the '>' after a header, the '<' after the path.
	end byte
	// universe is the symbol count '.' ranges over.
	universe func(*network.Network) int
	// bracket parses a bracketed atom after its '['.
	bracket func(*parser) (rex.Node, error)
	// names admits bare label names and abbreviations as atoms.
	names bool
}

var (
	labelExpr = &grammar{
		noun:     "label",
		end:      '>',
		universe: func(n *network.Network) int { return n.Labels.Len() },
		bracket:  (*parser).parseLabelSet,
		names:    true,
	}
	linkExpr = &grammar{
		noun:     "link",
		end:      '<',
		universe: func(n *network.Network) int { return n.Topo.NumLinks() },
		bracket:  (*parser).parseLinkAtom,
	}
)

func (p *parser) parseAlt(g *grammar) (rex.Node, error) {
	first, err := p.parseCat(g)
	if err != nil {
		return nil, err
	}
	parts := []rex.Node{first}
	for p.eat('|') {
		n, err := p.parseCat(g)
		if err != nil {
			return nil, err
		}
		parts = append(parts, n)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return rex.Union{Parts: parts}, nil
}

func (p *parser) parseCat(g *grammar) (rex.Node, error) {
	var parts []rex.Node
	for {
		switch p.peek() {
		case g.end, '|', ')', 0:
			if len(parts) == 0 {
				return rex.Eps{}, nil
			}
			if len(parts) == 1 {
				return parts[0], nil
			}
			return rex.Concat{Parts: parts}, nil
		}
		n, err := p.parseRep(g)
		if err != nil {
			return nil, err
		}
		parts = append(parts, n)
	}
}

// parseRep parses a primary followed by any postfix repetitions.
func (p *parser) parseRep(g *grammar) (rex.Node, error) {
	n, err := p.parsePrim(g)
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek() {
		case '*':
			p.pos++
			n = rex.Star{X: n}
		case '+':
			p.pos++
			n = rex.Plus{X: n}
		case '?':
			p.pos++
			n = rex.Opt{X: n}
		case '{':
			p.pos++
			if n, err = p.parseRepeat(n); err != nil {
				return nil, err
			}
		default:
			return n, nil
		}
	}
}

// parseRepeat parses the bounded repetition "{n}", "{n,}" or "{n,m}" after
// the '{'.
func (p *parser) parseRepeat(x rex.Node) (rex.Node, error) {
	min, err := p.parseInt()
	if err != nil {
		return nil, err
	}
	max := min
	if p.eat(',') {
		if p.peek() == '}' {
			max = -1
		} else {
			max, err = p.parseInt()
			if err != nil {
				return nil, err
			}
			if max < min {
				return nil, p.errf("repetition bound {%d,%d} is empty", min, max)
			}
		}
	}
	if !p.eat('}') {
		return nil, p.errf("expected '}' closing repetition")
	}
	return rex.Repeat{X: x, Min: min, Max: max}, nil
}

func (p *parser) parsePrim(g *grammar) (rex.Node, error) {
	switch p.peek() {
	case '(':
		p.pos++
		n, err := p.parseAlt(g)
		if err != nil {
			return nil, err
		}
		if !p.eat(')') {
			return nil, p.errf("expected ')'")
		}
		return n, nil
	case '^':
		p.pos++
		n, err := p.parsePrim(g)
		if err != nil {
			return nil, err
		}
		return rex.Not{X: n}, nil
	case '.':
		p.pos++
		return rex.AnyAtom(g.universe(p.net)), nil
	case '[':
		p.pos++
		return g.bracket(p)
	case 0:
		return nil, p.errf("unexpected end of query in %s expression", g.noun)
	}
	if g.names {
		if name := p.scanLabelName(); name != "" {
			return p.labelAtom(name)
		}
	}
	return nil, p.errf("unexpected character %q in %s expression", p.peek(), g.noun)
}

// ---------- label atoms ----------

func (p *parser) scanLabelName() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.s) && isLabelChar(p.s[p.pos]) {
		p.pos++
	}
	return p.s[start:p.pos]
}

func isLabelChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '$' || c == '_' || c == '-' || c == ':'
}

// labelAtom resolves a bare name: abbreviation or concrete label.
func (p *parser) labelAtom(name string) (rex.Node, error) {
	u := p.net.Labels.Len()
	mk := func(ids []labels.ID) rex.Node {
		set := nfa.NewSet(u)
		for _, id := range ids {
			set.Add(LabelSym(id))
		}
		return rex.Atom{Set: set, Name: name}
	}
	switch name {
	case "ip":
		return mk(p.net.Labels.OfKind(labels.IP)), nil
	case "mpls":
		return mk(p.net.Labels.OfKind(labels.MPLS)), nil
	case "smpls":
		return mk(p.net.Labels.OfKind(labels.BottomMPLS)), nil
	}
	id := p.net.Labels.Lookup(name)
	if id == labels.None {
		return nil, p.errf("unknown label %q", name)
	}
	return mk([]labels.ID{id}), nil
}

// parseLabelSet parses "[l1,l2,...]" after the '['.
func (p *parser) parseLabelSet() (rex.Node, error) {
	u := p.net.Labels.Len()
	set := nfa.NewSet(u)
	var names []string
	for {
		name := p.scanLabelName()
		if name == "" {
			return nil, p.errf("expected label name in set")
		}
		names = append(names, name)
		// Abbreviations are allowed inside sets too.
		atom, err := p.labelAtom(name)
		if err != nil {
			return nil, err
		}
		set = set.Union(atom.(rex.Atom).Set)
		if p.eat(',') {
			continue
		}
		if p.eat(']') {
			return rex.Atom{Set: set, Name: "[" + strings.Join(names, ",") + "]"}, nil
		}
		return nil, p.errf("expected ',' or ']' in label set")
	}
}

// ---------- link atoms ----------

// parseLinkAtom parses the body of "[side#side]" after the '['; a leading
// '^' complements the resulting link set ([^v#u] = any link except v→u).
func (p *parser) parseLinkAtom() (rex.Node, error) {
	p.skipSpace()
	negate := false
	if p.pos < len(p.s) && p.s[p.pos] == '^' {
		negate = true
		p.pos++
	}
	fromRouter, fromIfc, err := p.parseLinkSide('#')
	if err != nil {
		return nil, err
	}
	if !p.eat('#') {
		return nil, p.errf("expected '#' in link atom")
	}
	toRouter, toIfc, err := p.parseLinkSide(']')
	if err != nil {
		return nil, err
	}
	if !p.eat(']') {
		return nil, p.errf("expected ']' closing link atom")
	}
	set, name, err := p.resolveLinkSet(fromRouter, fromIfc, toRouter, toIfc)
	if err != nil {
		return nil, err
	}
	if negate {
		set = set.Complement()
		name = "^" + name
	}
	return rex.Atom{Set: set, Name: "[" + name + "]"}, nil
}

// parseLinkSide scans a side of a link atom up to stop ('#' or ']'):
// either "." (any router) or "router" or "router.interface". The router
// name ends at the first '.', '#' or the stop character; the interface name
// may itself contain dots (e.g. "ae1.11").
func (p *parser) parseLinkSide(stop byte) (router, ifc string, err error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.s) && p.s[p.pos] != '#' && p.s[p.pos] != ']' && p.s[p.pos] != ' ' {
		p.pos++
	}
	side := p.s[start:p.pos]
	if side == "" {
		return "", "", p.errf("empty link side")
	}
	if side == "." {
		return ".", "", nil
	}
	if i := strings.IndexByte(side, '.'); i >= 0 {
		return side[:i], side[i+1:], nil
	}
	return side, "", nil
}

// resolveLinkSet resolves a link atom against the topology.
func (p *parser) resolveLinkSet(fromRouter, fromIfc, toRouter, toIfc string) (*nfa.Set, string, error) {
	g := p.net.Topo
	set := nfa.NewSet(g.NumLinks())
	var from, to topology.RouterID = topology.NoRouter, topology.NoRouter
	if fromRouter != "." {
		from = g.RouterByName(fromRouter)
		if from == topology.NoRouter {
			return nil, "", p.errf("unknown router %q", fromRouter)
		}
	}
	if toRouter != "." {
		to = g.RouterByName(toRouter)
		if to == topology.NoRouter {
			return nil, "", p.errf("unknown router %q", toRouter)
		}
	}
	for i := 0; i < g.NumLinks(); i++ {
		l := topology.LinkID(i)
		lk := g.Links[l]
		if from != topology.NoRouter && lk.From != from {
			continue
		}
		if to != topology.NoRouter && lk.To != to {
			continue
		}
		if fromIfc != "" && lk.FromIfc != fromIfc {
			continue
		}
		if toIfc != "" && lk.ToIfc != toIfc {
			continue
		}
		set.Add(LinkSym(l))
	}
	name := sideName(fromRouter, fromIfc) + "#" + sideName(toRouter, toIfc)
	return set, name, nil
}

func sideName(router, ifc string) string {
	if ifc != "" {
		return router + "." + ifc
	}
	return router
}
