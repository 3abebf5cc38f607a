package layout

import (
	"strings"

	"gator/internal/slab"
)

// scan builds the node tree of a document in the subset of XML that the
// layouts analyzed here use, in one pass over src. It returns nil for any
// other document and for any document with an error, which Parse then
// hands to parseXML; on the subset its tree is parseXML's. The subset:
//
//   - one root element, and around it and between tags only spaces, tabs
//     and newlines;
//   - element and attribute names are ASCII XML names with at most one
//     colon, and an end tag repeats its start tag's name as written;
//   - attribute values are double-quoted and hold printable ASCII, tabs
//     and newlines but no '&' or '<', so encoding/xml would neither expand
//     nor rewrite a byte of them;
//   - elements nest at most maxDepth deep.
//
// Names, ids and handler names are substrings of src, nodes and child
// lists come from slabs, and an ignored attribute costs no allocation.
func scan(src string) *Node {
	// Every element opens at a '<' that no '/' follows, so chunks of that
	// many values (capped by the slab) leave at most a chunk unused.
	tags := strings.Count(src, "<") - strings.Count(src, "</")
	s := scanner{src: src, nodes: slab.Paced[Node](tags, nil), lists: slab.Paced[*Node](tags, nil)}
	s.skipSpace()
	root := s.element(0)
	s.skipSpace()
	if root == nil || s.pos < len(src) {
		return nil // an error, or something after the root element
	}
	return root
}

// maxDepth bounds how deeply scan follows nested elements, and so its
// recursion; a deeper document goes to parseXML.
const maxDepth = 256

type scanner struct {
	src   string
	pos   int
	nodes slab.Slab[Node]
	lists slab.Slab[*Node]
}

// element reads the element that starts at s.pos, with its attributes and
// children, depth elements below the root.
func (s *scanner) element(depth int) *Node {
	if depth == maxDepth || !s.skip("<") {
		return nil
	}
	name, ok := s.name()
	if !ok {
		return nil
	}
	n := s.nodes.Alloc(Node{})
	if n.start(localName(name)) != nil {
		return nil
	}
	for {
		s.skipSpace()
		if s.skip("/>") {
			if n.end() != nil {
				return nil
			}
			return n
		}
		if s.skip(">") {
			break
		}
		attr, ok := s.name()
		if !ok {
			return nil
		}
		s.skipSpace()
		if !s.skip("=") {
			return nil
		}
		s.skipSpace()
		value, ok := s.value()
		if !ok || n.attr(localName(attr), value) != nil {
			return nil
		}
	}
	if n.end() != nil {
		return nil
	}
	var buf [8]*Node // most elements have fewer children
	kids := buf[:0]
	for {
		s.skipSpace()
		if s.skip("</") {
			break
		}
		kid := s.element(depth + 1)
		if kid == nil {
			return nil
		}
		kids = append(kids, kid)
	}
	end, ok := s.name()
	s.skipSpace()
	if !ok || end != name || !s.skip(">") {
		return nil
	}
	n.Children = s.lists.Copy(kids)
	return n
}

// skip advances past prefix if the source continues with it at s.pos.
func (s *scanner) skip(prefix string) bool {
	if !strings.HasPrefix(s.src[s.pos:], prefix) {
		return false
	}
	s.pos += len(prefix)
	return true
}

// name reads the name at s.pos: a letter, '_' or ':', then letters,
// digits and "_:.-", with at most one colon.
func (s *scanner) name() (string, bool) {
	start, colons := s.pos, 0
	for s.pos < len(s.src) && byteClass[s.src[s.pos]]&nameByte != 0 {
		if s.src[s.pos] == ':' {
			colons++
		}
		s.pos++
	}
	if s.pos == start || byteClass[s.src[start]]&nameStart == 0 || colons > 1 {
		return "", false
	}
	return s.src[start:s.pos], true
}

// value reads the double-quoted attribute value at s.pos and returns it
// without its quotes.
func (s *scanner) value() (string, bool) {
	if !s.skip(`"`) {
		return "", false
	}
	start := s.pos
	for i := start; i < len(s.src); i++ {
		c := s.src[i]
		if c == '"' {
			s.pos = i + 1
			return s.src[start:i], true
		}
		if byteClass[c]&valueByte == 0 {
			return "", false
		}
	}
	return "", false
}

func (s *scanner) skipSpace() {
	for s.pos < len(s.src) && byteClass[s.src[s.pos]]&space != 0 {
		s.pos++
	}
}

// Byte classes of the scanned subset.
const (
	space     = 1 << iota // whitespace the subset allows: space, tab, LF
	nameStart             // may start a name
	nameByte              // may continue a name
	valueByte             // may stand for itself in an attribute value
)

var byteClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c == ' ', c == '\t', c == '\n':
			t[c] |= space
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			t[c] |= nameStart | nameByte
		case c >= '0' && c <= '9', c == '.', c == '-':
			t[c] |= nameByte
		}
		if c == '\t' || c == '\n' || c >= 0x20 && c < 0x80 && c != '&' && c != '<' {
			t[c] |= valueByte
		}
	}
	return t
}()
