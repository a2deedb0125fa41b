package xmlio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// errUnsupported marks well-formed XML that Appendix A files do not use
// and the scanner does not read: DOCTYPE and other <! declarations, CDATA
// sections, and namespace-prefixed or non-ASCII names.
var errUnsupported = errors.New("unsupported XML construct")

// window is the scanner's initial window size. The window grows only for
// a single tag or processing instruction that does not fit in it.
const window = 64 << 10

// A token is what scanner.next stops at.
type token uint8

const (
	tokStart token = iota // a start tag, possibly self-closing
	tokEnd                // an end tag
)

// attr is one attribute of the last start tag. Both slices point into the
// scanner's buffers and stay valid until the next call to next.
type attr struct {
	name, val []byte
}

// span locates an attribute while its tag is scanned. name is a window
// range; val is a window range, or a range of scanner.vals if decoded.
type span struct {
	name, val [2]int
	decoded   bool
}

// scanner tokenises one XML document for the readers. It reads through a
// window that it refills as it goes and reports start and end tags; text,
// comments and processing instructions in between are checked and
// skipped. It accepts what encoding/xml's strict Decoder accepts, except
// the constructs errUnsupported names, and stops where the caller stops
// asking: nothing after the root's end tag is read.
type scanner struct {
	file string // "topology" or "routing", for errors
	r    io.Reader
	buf  []byte // the window: buf[pos:end] is read but not yet scanned
	pos  int
	end  int
	eof  bool
	line int // newlines in the input that has left the window

	// The last tag: its name, attributes, whether it closes itself, and
	// the window offset of its '<'.
	name  []byte
	attrs []attr
	empty bool
	at    int

	spans []span
	vals  []byte // attribute values decoded from entities or CRs

	// open holds the names of the open elements back to back; starts[i]
	// is where the i-th begins.
	open   []byte
	starts []int
}

func newScanner(file string, r io.Reader) *scanner {
	return &scanner{file: file, r: r, buf: make([]byte, window)}
}

// fill reads more input into the window. It keeps the unscanned bytes,
// moving them to the front and doubling the window when they fill it. At
// the end of the input it fails with an unexpected-EOF syntax error.
func (s *scanner) fill() error {
	if s.pos > 0 {
		s.line += bytes.Count(s.buf[:s.pos], []byte{'\n'})
		s.end = copy(s.buf, s.buf[s.pos:s.end])
		s.pos = 0
	}
	if s.end == len(s.buf) {
		s.buf = slices.Grow(s.buf, len(s.buf))[:2*len(s.buf)]
	}
	for empty := 0; !s.eof; empty++ {
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		if err == io.EOF {
			s.eof = true
		} else if err != nil {
			return fmt.Errorf("xmlio: %s: %w", s.file, err)
		}
		if n > 0 {
			return nil
		}
		if empty == 100 {
			return fmt.Errorf("xmlio: %s: %w", s.file, io.ErrNoProgress)
		}
	}
	return s.errAt(s.end, "unexpected EOF")
}

// lineAt is the 1-based line of window offset off.
func (s *scanner) lineAt(off int) int {
	return s.line + bytes.Count(s.buf[:off], []byte{'\n'}) + 1
}

// errAt is a syntax error at window offset off.
func (s *scanner) errAt(off int, format string, args ...any) error {
	return fmt.Errorf("xmlio: %s: line %d: %s", s.file, s.lineAt(off), fmt.Sprintf(format, args...))
}

// unsupported is the error for a construct errUnsupported names.
func (s *scanner) unsupported(off int, what string) error {
	return fmt.Errorf("xmlio: %s: line %d: %w: %s", s.file, s.lineAt(off), errUnsupported, what)
}

// wrap places a reader's error at the last tag.
func (s *scanner) wrap(err error) error {
	return fmt.Errorf("xmlio: %s: line %d: %w", s.file, s.lineAt(s.at), err)
}

// attr returns the value of the last tag's last attribute called name, or
// nil: with duplicate attributes the last one wins, as in encoding/xml.
func (s *scanner) attr(name string) []byte {
	for i := len(s.attrs) - 1; i >= 0; i-- {
		if string(s.attrs[i].name) == name {
			return s.attrs[i].val
		}
	}
	return nil
}

// next scans up to the next start or end tag and reports which it is.
func (s *scanner) next() (token, error) {
	for {
		if s.end-s.pos < 4 && !s.eof {
			// Four bytes tell the kinds of markup apart below, and no
			// document can end in fewer: its last token is the root's end.
			if err := s.fill(); err != nil {
				return 0, err
			}
			continue
		}
		if s.end-s.pos < 2 {
			return 0, s.errAt(s.end, "unexpected EOF")
		}
		if s.buf[s.pos] != '<' {
			if err := s.text(); err != nil {
				return 0, err
			}
			continue
		}
		switch s.buf[s.pos+1] {
		case '/':
			return tokEnd, s.tag((*scanner).scanEnd)
		case '?':
			if err := s.tag((*scanner).scanProcInst); err != nil {
				return 0, err
			}
		case '!':
			if err := s.comment(); err != nil {
				return 0, err
			}
		default:
			return tokStart, s.tag((*scanner).scanStart)
		}
	}
}

// tag runs scan, which scans a whole start tag, end tag or processing
// instruction at the front of the window and returns its length, or 0 if
// the window ends inside it. tag refills the window and rescans from the
// '<' until scan sees the tag in one piece.
func (s *scanner) tag(scan func(*scanner, []byte) (int, error)) error {
	for {
		n, err := scan(s, s.buf[s.pos:s.end])
		if err != nil {
			return err
		}
		if n > 0 {
			s.at = s.pos
			s.pos += n
			return nil
		}
		if err := s.fill(); err != nil {
			return err
		}
	}
}

// comment scans the comment at the front of the window; other "<!"
// constructs are unsupported. next has made sure that four bytes are
// there, or the input ends sooner.
func (s *scanner) comment() error {
	b := s.buf[s.pos:s.end]
	switch {
	case len(b) < 4:
		return s.errAt(s.end, "unexpected EOF")
	case b[2] == '[':
		return s.unsupported(s.pos, "CDATA section")
	case b[2] != '-':
		return s.unsupported(s.pos, "DOCTYPE or other <! declaration")
	case b[3] != '-':
		return s.errAt(s.pos+3, "invalid sequence <!- not part of <!--")
	}
	// The comment's content is not checked; "--" must end it.
	i := 4
	var b0, b1 byte
	for {
		for ; i < s.end-s.pos; i++ {
			c := s.buf[s.pos+i]
			if b0 == '-' && b1 == '-' {
				if c != '>' {
					return s.errAt(s.pos+i, `invalid sequence "--" not allowed in comments`)
				}
				s.pos += i + 1
				return nil
			}
			b0, b1 = b1, c
		}
		s.pos += i
		i = 0
		if err := s.fill(); err != nil {
			return err
		}
	}
}

// text scans character data up to the next '<', which it leaves in the
// window. The data is ignored, but it must be well formed as encoding/xml
// requires: valid references, UTF-8 and XML characters, and no "]]>".
func (s *scanner) text() error {
	var b0, b1 byte // the last two bytes, for "]]>"
	for {
		b := s.buf[s.pos:s.end]
		i := 0
	scan:
		for i < len(b) {
			c := b[i]
			if class[c]&plainText != 0 {
				for i++; i < len(b) && class[b[i]]&plainText != 0; i++ {
				}
				b0, b1 = 0, 0
				continue
			}
			n := 1
			switch {
			case c == '<':
				s.pos += i
				return nil
			case c == '>' && b0 == ']' && b1 == ']':
				return s.errAt(s.pos+i, "unescaped ]]> not in CDATA section")
			case c == '&':
				_, m, err := s.entity(b, i)
				if err != nil {
					return err
				}
				if m == 0 {
					break scan
				}
				i += m
				b0, b1 = 0, 0
				continue
			case c < utf8.RuneSelf:
				if !xmlByte(c) {
					return s.errAt(s.pos+i, "illegal character code %U", rune(c))
				}
			default:
				r, m := utf8.DecodeRune(b[i:])
				if r == utf8.RuneError && m == 1 {
					if !utf8.FullRune(b[i:]) {
						break scan
					}
					return s.errAt(s.pos+i, "invalid UTF-8")
				}
				if !xmlRune(r) {
					return s.errAt(s.pos+i, "illegal character code %U", r)
				}
				n = m
			}
			b0, b1 = b1, c
			i += n
		}
		s.pos += i
		if err := s.fill(); err != nil {
			return err
		}
	}
}

// scanName returns the end of the XML name at b[i:]: i if there is none,
// and len(b) if b may end inside it. Names outside ASCII and names with a
// namespace prefix are unsupported.
func (s *scanner) scanName(b []byte, i int) (int, error) {
	lo := i
	for i < len(b) && class[b[i]]&nameByte != 0 {
		i++
	}
	switch {
	case i < len(b) && b[i] >= utf8.RuneSelf:
		return 0, s.unsupported(s.pos+i, "non-ASCII name")
	case i == lo:
		return i, nil
	case b[lo] == '-' || b[lo] == '.' || b[lo] >= '0' && b[lo] <= '9':
		return 0, s.errAt(s.pos+lo, "invalid XML name: %s", b[lo:i])
	case bytes.IndexByte(b[lo:i], ':') >= 0:
		return 0, s.unsupported(s.pos+lo, "namespace prefix in "+string(b[lo:i]))
	}
	return i, nil
}

// skipSpace returns the offset of the first byte at or after b[i] that is
// not XML white space.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// scanStart scans the start tag at the front of b. It returns the tag's
// length, or 0 if b ends inside it.
func (s *scanner) scanStart(b []byte) (int, error) {
	s.spans = s.spans[:0]
	s.vals = s.vals[:0]
	i, err := s.scanName(b, 1)
	if err != nil || i == len(b) {
		return 0, err
	}
	if i == 1 {
		return 0, s.errAt(s.pos+1, "expected element name after <")
	}
	nameEnd := i
	for {
		i = skipSpace(b, i)
		if i == len(b) {
			return 0, nil
		}
		switch b[i] {
		case '>':
			s.empty = false
			return s.startTag(b, nameEnd, i+1), nil
		case '/':
			if i+1 == len(b) {
				return 0, nil
			}
			if b[i+1] != '>' {
				return 0, s.errAt(s.pos+i+1, "expected /> in element")
			}
			s.empty = true
			return s.startTag(b, nameEnd, i+2), nil
		}
		var sp span
		sp.name[0] = i
		if i, err = s.scanName(b, i); err != nil || i == len(b) {
			return 0, err
		}
		if i == sp.name[0] {
			return 0, s.errAt(s.pos+i, "expected attribute name in element")
		}
		sp.name[1] = i
		if i = skipSpace(b, i); i == len(b) {
			return 0, nil
		}
		if b[i] != '=' {
			return 0, s.errAt(s.pos+i, "attribute name without = in element")
		}
		if i = skipSpace(b, i+1); i == len(b) {
			return 0, nil
		}
		if b[i] != '"' && b[i] != '\'' {
			return 0, s.errAt(s.pos+i, "unquoted or missing attribute value in element")
		}
		if i, err = s.scanValue(b, i, &sp); err != nil || i == 0 {
			return 0, err
		}
		s.spans = append(s.spans, sp)
	}
}

// startTag records the complete start tag b[:n], whose name ends at
// nameEnd, and opens its element unless it closes itself.
func (s *scanner) startTag(b []byte, nameEnd, n int) int {
	s.name = b[1:nameEnd]
	s.attrs = s.attrs[:0]
	for _, sp := range s.spans {
		v := b[sp.val[0]:sp.val[1]]
		if sp.decoded {
			v = s.vals[sp.val[0]:sp.val[1]]
		}
		s.attrs = append(s.attrs, attr{name: b[sp.name[0]:sp.name[1]], val: v})
	}
	if !s.empty {
		s.starts = append(s.starts, len(s.open))
		s.open = append(s.open, s.name...)
	}
	return n
}

// scanValue scans the quoted attribute value at b[i] and returns the
// offset past its closing quote, or 0 if b ends inside it. A value with
// references or carriage returns is decoded into s.vals as encoding/xml
// decodes it: CR LF and lone CR become LF.
func (s *scanner) scanValue(b []byte, i int, sp *span) (int, error) {
	q := b[i]
	i++
	lo := i
	dec := -1 // where the decoded value starts in s.vals, once decoding
	var prev byte
	for i < len(b) {
		c := b[i]
		if class[c]&plainAttr != 0 {
			j := i + 1
			for j < len(b) && class[b[j]]&plainAttr != 0 {
				j++
			}
			if dec >= 0 {
				if prev == '\r' && c == '\n' {
					i++
				}
				s.vals = append(s.vals, b[i:j]...)
			}
			prev = b[j-1]
			i = j
			continue
		}
		n := 1
		switch {
		case c == q:
			if dec < 0 {
				sp.val = [2]int{lo, i}
			} else {
				sp.val, sp.decoded = [2]int{dec, len(s.vals)}, true
			}
			return i + 1, nil
		case c == '<':
			return 0, s.errAt(s.pos+i, "unescaped < inside quoted string")
		case c == '&' || c == '\r':
			if dec < 0 {
				dec = len(s.vals)
				s.vals = append(s.vals, b[lo:i]...)
			}
			if c == '\r' {
				s.vals = append(s.vals, '\n')
				prev = c
				i++
				continue
			}
			r, m, err := s.entity(b, i)
			if err != nil || m == 0 {
				return 0, err
			}
			s.vals = utf8.AppendRune(s.vals, r)
			prev = 0
			i += m
			continue
		case c < utf8.RuneSelf:
			if !xmlByte(c) {
				return 0, s.errAt(s.pos+i, "illegal character code %U", rune(c))
			}
		default:
			r, m := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && m == 1 {
				if !utf8.FullRune(b[i:]) {
					return 0, nil
				}
				return 0, s.errAt(s.pos+i, "invalid UTF-8")
			}
			if !xmlRune(r) {
				return 0, s.errAt(s.pos+i, "illegal character code %U", r)
			}
			n = m
		}
		if dec >= 0 && !(c == '\n' && prev == '\r') {
			s.vals = append(s.vals, b[i:i+n]...)
		}
		prev = c
		i += n
	}
	return 0, nil
}

// entity decodes the reference at b[i], which is '&': one of the five
// predefined entities or a numeric character reference. It returns the
// character and the reference's length, or a length of 0 if b ends inside
// the reference.
func (s *scanner) entity(b []byte, i int) (rune, int, error) {
	j := i + 1
	if j == len(b) {
		return 0, 0, nil
	}
	if b[j] != '#' {
		k := j
		for k < len(b) && (class[b[k]]&nameByte != 0 || b[k] >= utf8.RuneSelf) {
			k++
		}
		if k == len(b) {
			return 0, 0, nil
		}
		if b[k] != ';' {
			return 0, 0, s.errAt(s.pos+i, "invalid character entity %s (no semicolon)", b[i:k])
		}
		switch string(b[j:k]) {
		case "lt":
			return '<', k + 1 - i, nil
		case "gt":
			return '>', k + 1 - i, nil
		case "amp":
			return '&', k + 1 - i, nil
		case "apos":
			return '\'', k + 1 - i, nil
		case "quot":
			return '"', k + 1 - i, nil
		}
		return 0, 0, s.errAt(s.pos+i, "invalid character entity %s", b[i:k+1])
	}
	j++
	if j == len(b) {
		return 0, 0, nil
	}
	base := rune(10)
	if b[j] == 'x' {
		base = 16
		j++
	}
	lo := j
	var r rune
	for ; j < len(b); j++ {
		d := digit(b[j], base)
		if d < 0 {
			break
		}
		// encoding/xml rejects a reference past the last code point, and
		// one too long for a uint64, alike.
		if r = r*base + d; r > unicode.MaxRune {
			return 0, 0, s.errAt(s.pos+i, "invalid character entity %s", b[i:j+1])
		}
	}
	if j == len(b) {
		return 0, 0, nil
	}
	if b[j] != ';' || j == lo {
		return 0, 0, s.errAt(s.pos+i, "invalid character entity %s", b[i:j+1])
	}
	if r >= 0xD800 && r <= 0xDFFF {
		// encoding/xml decodes a surrogate's reference to U+FFFD.
		r = utf8.RuneError
	}
	if !xmlRune(r) {
		return 0, 0, s.errAt(s.pos+i, "illegal character code %U", r)
	}
	return r, j + 1 - i, nil
}

// digit is the value of c as a digit in base 10 or 16, or -1.
func digit(c byte, base rune) rune {
	switch {
	case c >= '0' && c <= '9':
		return rune(c - '0')
	case base == 16 && c >= 'a' && c <= 'f':
		return rune(c-'a') + 10
	case base == 16 && c >= 'A' && c <= 'F':
		return rune(c-'A') + 10
	}
	return -1
}

// scanEnd scans the end tag at the front of b and closes the element it
// names. It returns the tag's length, or 0 if b ends inside it.
func (s *scanner) scanEnd(b []byte) (int, error) {
	i, err := s.scanName(b, 2)
	if err != nil || i == len(b) {
		return 0, err
	}
	if i == 2 {
		return 0, s.errAt(s.pos+2, "expected element name after </")
	}
	name := b[2:i]
	if i = skipSpace(b, i); i == len(b) {
		return 0, nil
	}
	if b[i] != '>' {
		return 0, s.errAt(s.pos+i, "invalid characters between </%s and >", name)
	}
	d := len(s.starts)
	if d == 0 {
		return 0, s.errAt(s.pos, "unexpected end element </%s>", name)
	}
	if open := s.open[s.starts[d-1]:]; !bytes.Equal(open, name) {
		return 0, s.errAt(s.pos, "element <%s> closed by </%s>", open, name)
	}
	s.open = s.open[:s.starts[d-1]]
	s.starts = s.starts[:d-1]
	return i + 1, nil
}

// scanProcInst scans the processing instruction at the front of b and
// checks an XML declaration's version and encoding as encoding/xml does.
// It returns the instruction's length, or 0 if b ends inside it.
func (s *scanner) scanProcInst(b []byte) (int, error) {
	i, err := s.scanName(b, 2)
	if err != nil || i == len(b) {
		return 0, err
	}
	if i == 2 {
		return 0, s.errAt(s.pos+2, "expected target name after <?")
	}
	target := b[2:i]
	i = skipSpace(b, i)
	k := bytes.Index(b[i:], []byte("?>"))
	if k < 0 {
		return 0, nil
	}
	if string(target) == "xml" {
		content := string(b[i : i+k])
		if v := declParam("version", content); v != "" && v != "1.0" {
			return 0, s.errAt(s.pos, "unsupported version %q; only version 1.0 is supported", v)
		}
		if enc := declParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return 0, s.errAt(s.pos, "unsupported encoding %q; only UTF-8 is supported", enc)
		}
	}
	return i + k + 2, nil
}

// declParam returns the value of param in an XML declaration, or "". Like
// encoding/xml, it takes the first `param=` followed by a quote and does
// not otherwise parse the declaration.
func declParam(param, s string) string {
	param += "="
	for i := 0; i < len(s); i++ {
		k := strings.Index(s[i:], param)
		if k < 0 || i+k+len(param) >= len(s) {
			return ""
		}
		i += k + len(param)
		if q := s[i]; q == '"' || q == '\'' {
			if j := strings.IndexByte(s[i+1:], q); j >= 0 {
				return s[i+1 : i+1+j]
			}
			return ""
		}
	}
	return ""
}

// Byte classes, for the scanner's inner loops.
const (
	nameByte  = 1 << iota // may appear in an XML name
	plainText             // character data that needs no further look
	plainAttr             // attribute value data that needs none
)

var class = func() (t [256]uint8) {
	for c := 0; c < utf8.RuneSelf; c++ {
		b := byte(c)
		if 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9' ||
			b == '_' || b == ':' || b == '.' || b == '-' {
			t[c] |= nameByte
		}
		if !xmlByte(b) || b == '<' || b == '&' || b == '\r' {
			continue
		}
		if b != ']' && b != '>' {
			t[c] |= plainText
		}
		if b != '"' && b != '\'' {
			t[c] |= plainAttr
		}
	}
	return t
}()

// xmlByte reports whether ASCII byte c is an XML character.
func xmlByte(c byte) bool {
	return c >= 0x20 || c == '\t' || c == '\n' || c == '\r'
}

// xmlRune reports whether r is in the XML character range.
func xmlRune(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
