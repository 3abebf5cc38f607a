// Package layout parses Android layout XML definitions and assigns resource
// ids, reproducing the declarative-GUI substrate of the paper: a layout
// definition is a rooted tree of (view class, optional view id) nodes, each
// layout file has a generated R.layout constant, and each view id name has a
// generated R.id constant.
//
// Supported Android layout features: nested view elements, android:id
// ("@+id/name" and "@id/name"), <include layout="@layout/name"/> splicing,
// <merge> roots (transparent containers), and the android:onClick attribute
// (declarative click handlers).
//
// Parse reads a document in one pass when it stays within the subset of
// XML that the analyzed layouts use (see scan): ASCII names, double-quoted
// attribute values without references, and only spaces, tabs and newlines
// between tags. Every other document, and every document with an error,
// goes through encoding/xml, which also serves as the reference the
// scanner is tested against; the two give the same tree, and every error
// comes from encoding/xml.
package layout

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// Node is one view element in a layout definition.
type Node struct {
	// Class is the view class name (e.g. "RelativeLayout", "ImageView").
	Class string
	// ID is the view id name from android:id, or "" when absent.
	ID string
	// OnClick is the handler method name from android:onClick, or "".
	OnClick string
	// Include names a layout to splice in place of this node (from
	// <include layout="@layout/name"/>); resolved by Link.
	Include string
	// Merge marks a <merge> root, whose children attach directly to the
	// inflation parent.
	Merge bool
	// Children are the nested view elements.
	Children []*Node
}

// Count returns the number of view nodes in the subtree, excluding
// merge/include pseudo-nodes.
func (n *Node) Count() int {
	c := 0
	if !n.Merge && n.Include == "" {
		c = 1
	}
	for _, ch := range n.Children {
		c += ch.Count()
	}
	return c
}

// Walk visits every non-pseudo node in the subtree in preorder.
func (n *Node) Walk(visit func(*Node)) {
	if !n.Merge && n.Include == "" {
		visit(n)
	}
	for _, ch := range n.Children {
		ch.Walk(visit)
	}
}

// Layout is one parsed layout definition.
type Layout struct {
	// Name is the layout name (the file base name without extension).
	Name string
	// Root is the root view element.
	Root *Node
}

// IDNames returns the sorted set of view id names used in the layout.
func (l *Layout) IDNames() []string {
	return l.appendIDNames(nil)
}

// appendIDNames appends the layout's sorted, distinct view id names to dst.
func (l *Layout) appendIDNames(dst []string) []string {
	start := len(dst)
	l.Root.Walk(func(n *Node) {
		if n.ID != "" {
			dst = append(dst, n.ID)
		}
	})
	ids := dst[start:]
	slices.Sort(ids)
	return dst[:start+len(slices.Compact(ids))]
}

// Parse reads one layout XML document. name is the layout name.
func Parse(name, src string) (*Layout, error) {
	if root := scan(src); root != nil && validate(name, root, true) == nil {
		return &Layout{Name: name, Root: root}, nil
	}
	return parseXML(name, src)
}

// parseXML is Parse through encoding/xml: the path for every document scan
// leaves alone, the only one that reports errors, and the reference scan
// is tested against. An error raised at an element carries the element's
// line and column.
func parseXML(name, src string) (*Layout, error) {
	dec := xml.NewDecoder(strings.NewReader(src))
	var root *Node
	var stack []*Node
	for {
		// Each token starts where the previous one ended.
		line, col := dec.InputPos()
		tok, err := dec.Token()
		if err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("layout %s: %w", name, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n, err := elementNode(t)
			if err == nil && len(stack) == 0 && root != nil {
				err = errors.New("multiple root elements")
			}
			if err != nil {
				return nil, fmt.Errorf("layout %s: %d:%d: %w", name, line, col, err)
			}
			if len(stack) == 0 {
				root = n
			} else {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("layout %s: unbalanced end element", name)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if root == nil {
		return nil, fmt.Errorf("layout %s: no root element", name)
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("layout %s: unclosed elements", name)
	}
	if err := validate(name, root, true); err != nil {
		return nil, err
	}
	return &Layout{Name: name, Root: root}, nil
}

// MustParse is Parse that panics on error; for embedded corpora and tests.
func MustParse(name, src string) *Layout {
	l, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return l
}

func elementNode(t xml.StartElement) (*Node, error) {
	n := &Node{}
	if err := n.start(localName(t.Name.Local)); err != nil {
		return nil, err
	}
	for _, a := range t.Attr {
		if err := n.attr(localName(a.Name.Local), a.Value); err != nil {
			return nil, err
		}
	}
	if err := n.end(); err != nil {
		return nil, err
	}
	return n, nil
}

// includePending marks an <include> whose layout attribute has not been
// seen; no valid reference equals it.
const includePending = "?"

// start, attr and end are the element checks both parsers apply: start at
// the element's local name, attr at each attribute in document order, end
// after the last attribute.
func (n *Node) start(class string) error {
	n.Class = class
	switch class {
	case "merge":
		n.Merge = true
	case "include":
		n.Include = includePending
	default:
		if !validClassName(class) {
			return fmt.Errorf("bad view class name %q", class)
		}
	}
	return nil
}

// attr applies one attribute, by local name; attributes other than id,
// onClick and an include's layout are ignored.
func (n *Node) attr(local, value string) error {
	switch local {
	case "id":
		id, err := parseIDRef(value)
		if err != nil {
			return err
		}
		n.ID = id
	case "onClick":
		if !validIdent(value) {
			return fmt.Errorf("bad onClick handler name %q", value)
		}
		n.OnClick = value
	case "layout":
		if n.Include != "" {
			ref, ok := strings.CutPrefix(value, "@layout/")
			if !ok || !validIdent(ref) {
				return fmt.Errorf("bad include reference %q", value)
			}
			n.Include = ref
		}
	}
	return nil
}

func (n *Node) end() error {
	if n.Include == includePending {
		return errors.New("<include> without layout attribute")
	}
	return nil
}

func validate(layout string, n *Node, isRoot bool) error {
	if n.Merge && !isRoot {
		return fmt.Errorf("layout %s: <merge> must be the root element", layout)
	}
	if n.Include != "" && len(n.Children) > 0 {
		return fmt.Errorf("layout %s: <include> cannot have children", layout)
	}
	if n.Include != "" && isRoot {
		return fmt.Errorf("layout %s: <include> cannot be the root element", layout)
	}
	for _, ch := range n.Children {
		if err := validate(layout, ch, false); err != nil {
			return err
		}
	}
	return nil
}

// localName strips a name's namespace prefix. encoding/xml splits a name at
// its one colon (it rejects names with more) and keeps a colon at either
// end in Name.Local, so the local name is what follows the last colon of
// the name as written.
func localName(name string) string {
	return name[strings.LastIndexByte(name, ':')+1:]
}

// parseIDRef parses "@+id/name" or "@id/name".
func parseIDRef(v string) (string, error) {
	for _, prefix := range []string{"@+id/", "@id/"} {
		if name, ok := strings.CutPrefix(v, prefix); ok {
			if !validIdent(name) {
				return "", fmt.Errorf("bad view id name in %q", v)
			}
			return name, nil
		}
	}
	return "", fmt.Errorf("bad view id reference %q (want @+id/name)", v)
}

// validIdent reports whether s is a Java-style identifier — the form view
// id names, onClick handler names and include references take.
// Constraining names here keeps every accepted layout renderable (Render ∘
// Parse round-trips) and every name usable as an R constant.
func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validClassName is validIdent extended with interior dots, for qualified
// view classes such as android.widget.Button.
func validClassName(s string) bool {
	for {
		part, rest, dotted := strings.Cut(s, ".")
		if !validIdent(part) {
			return false
		}
		if !dotted {
			return true
		}
		s = rest
	}
}

// Link resolves <include> references across a set of layouts, splicing the
// included layout's tree (or a merge root's children) in place of the
// include node. Cyclic includes are an error.
func Link(layouts map[string]*Layout) error {
	state := map[string]int{} // 0 unvisited, 1 in progress, 2 done
	var expand func(name string) error
	expand = func(name string) error {
		switch state[name] {
		case 1:
			return fmt.Errorf("layout %s: cyclic <include>", name)
		case 2:
			return nil
		}
		state[name] = 1
		l := layouts[name]
		var fix func(n *Node) error
		fix = func(n *Node) error {
			for i := 0; i < len(n.Children); i++ {
				ch := n.Children[i]
				if ch.Include == "" {
					if err := fix(ch); err != nil {
						return err
					}
					continue
				}
				inc, ok := layouts[ch.Include]
				if !ok {
					return fmt.Errorf("layout %s: include of unknown layout %q", name, ch.Include)
				}
				if err := expand(ch.Include); err != nil {
					return err
				}
				repl := cloneNode(inc.Root)
				if repl.Merge {
					// Splice the merge children directly.
					kids := repl.Children
					n.Children = append(n.Children[:i], append(kids, n.Children[i+1:]...)...)
					i += len(kids) - 1
				} else {
					if ch.ID != "" {
						// <include android:id=...> overrides the root id.
						repl.ID = ch.ID
					}
					n.Children[i] = repl
				}
			}
			return nil
		}
		if err := fix(l.Root); err != nil {
			return err
		}
		state[name] = 2
		return nil
	}
	names := make([]string, 0, len(layouts))
	for name := range layouts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := expand(name); err != nil {
			return err
		}
	}
	return nil
}

// Render serializes a layout back to XML. Parse(Render(l)) yields an
// equivalent layout; useful for generated corpora and for re-linking a
// layout that was already spliced.
func Render(l *Layout) string {
	var b strings.Builder
	var render func(n *Node)
	render = func(n *Node) {
		cls := n.Class
		if n.Include != "" {
			b.WriteString(`<include layout="@layout/` + n.Include + `"`)
			if n.ID != "" {
				b.WriteString(` android:id="@+id/` + n.ID + `"`)
			}
			b.WriteString("/>")
			return
		}
		fmt.Fprintf(&b, "<%s", cls)
		if n.ID != "" {
			fmt.Fprintf(&b, " android:id=%q", "@+id/"+n.ID)
		}
		if n.OnClick != "" {
			fmt.Fprintf(&b, " android:onClick=%q", n.OnClick)
		}
		if len(n.Children) == 0 {
			b.WriteString("/>")
			return
		}
		b.WriteString(">")
		for _, c := range n.Children {
			render(c)
		}
		fmt.Fprintf(&b, "</%s>", cls)
	}
	render(l.Root)
	return b.String()
}

// Clone returns a deep copy of a layout, so one parse can be linked several
// times.
func Clone(l *Layout) *Layout {
	return &Layout{Name: l.Name, Root: cloneNode(l.Root)}
}

func cloneNode(n *Node) *Node {
	c := *n
	if n.Children == nil {
		return &c
	}
	c.Children = make([]*Node, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = cloneNode(ch)
	}
	return &c
}
