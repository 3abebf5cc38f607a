package layout

import (
	"strings"
	"testing"
)

// The two layout files from Figure 1 of the paper.
const actConsoleXML = `
<RelativeLayout xmlns:android="http://schemas.android.com/apk/res/android">
    <ViewFlipper android:id="@+id/console_flip" />
    <RelativeLayout android:id="@+id/keyboard_group">
        <ImageView android:id="@+id/button_esc" />
    </RelativeLayout>
</RelativeLayout>
`

const itemTerminalXML = `
<RelativeLayout>
    <TextView android:id="@+id/terminal_overlay" />
</RelativeLayout>
`

func TestParseFigure1Layouts(t *testing.T) {
	l, err := Parse("act_console", actConsoleXML)
	if err != nil {
		t.Fatal(err)
	}
	if l.Root.Class != "RelativeLayout" || l.Root.ID != "" {
		t.Errorf("root = %+v", l.Root)
	}
	if got := l.Root.Count(); got != 4 {
		t.Errorf("Count = %d, want 4", got)
	}
	if len(l.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(l.Root.Children))
	}
	flip := l.Root.Children[0]
	if flip.Class != "ViewFlipper" || flip.ID != "console_flip" {
		t.Errorf("flipper = %+v", flip)
	}
	kg := l.Root.Children[1]
	if kg.ID != "keyboard_group" || len(kg.Children) != 1 {
		t.Fatalf("keyboard_group = %+v", kg)
	}
	esc := kg.Children[0]
	if esc.Class != "ImageView" || esc.ID != "button_esc" {
		t.Errorf("esc = %+v", esc)
	}
	ids := l.IDNames()
	want := []string{"button_esc", "console_flip", "keyboard_group"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("ids[%d] = %q, want %q", i, ids[i], want[i])
		}
	}
}

func TestParseIDFormats(t *testing.T) {
	l, err := Parse("t", `<LinearLayout><Button android:id="@id/existing"/></LinearLayout>`)
	if err != nil {
		t.Fatal(err)
	}
	if l.Root.Children[0].ID != "existing" {
		t.Errorf("id = %q", l.Root.Children[0].ID)
	}
	if _, err := Parse("t", `<Button android:id="@+id/"/>`); err == nil {
		t.Error("want error for empty id")
	}
	if _, err := Parse("t", `<Button android:id="bogus"/>`); err == nil {
		t.Error("want error for malformed id")
	}
}

func TestParseOnClickAttr(t *testing.T) {
	l, err := Parse("t", `<LinearLayout><Button android:onClick="sendMessage"/></LinearLayout>`)
	if err != nil {
		t.Fatal(err)
	}
	if l.Root.Children[0].OnClick != "sendMessage" {
		t.Errorf("onClick = %q", l.Root.Children[0].OnClick)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := []string{
		``,                                    // empty
		`<A></A><B></B>`,                      // two roots
		`<A><B></A></B>`,                      // bad nesting
		`<A><include/></A>`,                   // include without layout
		`<A><include layout="main"/></A>`,     // bad include ref
		`<include layout="@layout/main"/>`,    // include as root
		`<A><merge></merge></A>`,              // merge not at root
		`<A><include layout="@layout/"/></A>`, // empty include ref
		`<A><include layout="@layout/x&quot;y"/></A>`, // include ref not an identifier
	}
	for _, src := range cases {
		if _, err := Parse("t", src); err == nil {
			t.Errorf("Parse(%q): want error", src)
		}
	}
	// An error raised at an element names the element's line and column.
	_, err := Parse("main", "<A>\n  <B android:id=\"bad\"/>\n</A>")
	if want := `layout main: 2:3: bad view id reference "bad" (want @+id/name)`; err == nil || err.Error() != want {
		t.Errorf("error = %v, want %s", err, want)
	}
}

func TestLinkInclude(t *testing.T) {
	layouts := map[string]*Layout{
		"main": MustParse("main", `<LinearLayout>
			<include layout="@layout/header" android:id="@+id/top"/>
			<Button android:id="@+id/go"/>
		</LinearLayout>`),
		"header": MustParse("header", `<FrameLayout android:id="@+id/hdr"><TextView android:id="@+id/title"/></FrameLayout>`),
	}
	if err := Link(layouts); err != nil {
		t.Fatal(err)
	}
	main := layouts["main"]
	if got := main.Root.Count(); got != 4 {
		t.Errorf("main count = %d, want 4", got)
	}
	hdr := main.Root.Children[0]
	if hdr.Class != "FrameLayout" {
		t.Fatalf("spliced child = %+v", hdr)
	}
	if hdr.ID != "top" {
		t.Errorf("include id override: got %q, want top", hdr.ID)
	}
	if hdr.Children[0].ID != "title" {
		t.Errorf("nested = %+v", hdr.Children[0])
	}
}

func TestLinkMergeInclude(t *testing.T) {
	layouts := map[string]*Layout{
		"main":   MustParse("main", `<LinearLayout><include layout="@layout/pieces"/><Button/></LinearLayout>`),
		"pieces": MustParse("pieces", `<merge><TextView android:id="@+id/a"/><TextView android:id="@+id/b"/></merge>`),
	}
	if err := Link(layouts); err != nil {
		t.Fatal(err)
	}
	kids := layouts["main"].Root.Children
	if len(kids) != 3 {
		t.Fatalf("children = %d, want 3 (2 merged + button)", len(kids))
	}
	if kids[0].ID != "a" || kids[1].ID != "b" || kids[2].Class != "Button" {
		t.Errorf("children = %+v %+v %+v", kids[0], kids[1], kids[2])
	}
}

func TestLinkTransitiveAndErrors(t *testing.T) {
	layouts := map[string]*Layout{
		"a": MustParse("a", `<LinearLayout><include layout="@layout/b"/></LinearLayout>`),
		"b": MustParse("b", `<LinearLayout><include layout="@layout/c"/></LinearLayout>`),
		"c": MustParse("c", `<TextView android:id="@+id/leaf"/>`),
	}
	if err := Link(layouts); err != nil {
		t.Fatal(err)
	}
	if got := layouts["a"].Root.Count(); got != 3 {
		t.Errorf("a count = %d, want 3", got)
	}

	cyc := map[string]*Layout{
		"x": MustParse("x", `<LinearLayout><include layout="@layout/y"/></LinearLayout>`),
		"y": MustParse("y", `<LinearLayout><include layout="@layout/x"/></LinearLayout>`),
	}
	if err := Link(cyc); err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("cyclic include: err = %v", err)
	}

	missing := map[string]*Layout{
		"m": MustParse("m", `<LinearLayout><include layout="@layout/nope"/></LinearLayout>`),
	}
	if err := Link(missing); err == nil || !strings.Contains(err.Error(), "unknown layout") {
		t.Errorf("missing include: err = %v", err)
	}
}

func TestRTable(t *testing.T) {
	layouts := map[string]*Layout{
		"act_console":   MustParse("act_console", actConsoleXML),
		"item_terminal": MustParse("item_terminal", itemTerminalXML),
	}
	rt := NewRTable(layouts)
	if rt.NumLayouts() != 2 {
		t.Errorf("NumLayouts = %d", rt.NumLayouts())
	}
	if rt.NumViewIDs() != 4 {
		t.Errorf("NumViewIDs = %d (%v)", rt.NumViewIDs(), rt.ViewIDNames())
	}
	id, ok := rt.LayoutID("act_console")
	if !ok || id < LayoutIDBase || id >= LayoutIDBase+2 {
		t.Errorf("LayoutID = %#x, %v", id, ok)
	}
	name, ok := rt.LayoutName(id)
	if !ok || name != "act_console" {
		t.Errorf("LayoutName(%#x) = %q", id, name)
	}
	vid, ok := rt.ViewID("button_esc")
	if !ok {
		t.Fatal("no id for button_esc")
	}
	if got := rt.DescribeID(vid); got != "R.id.button_esc" {
		t.Errorf("DescribeID = %q", got)
	}
	if got := rt.DescribeID(id); got != "R.layout.act_console" {
		t.Errorf("DescribeID = %q", got)
	}
	if got := rt.DescribeID(12345); got != "0x3039" {
		t.Errorf("DescribeID(unknown) = %q", got)
	}

	// AddViewID is idempotent and extends the table.
	v1 := rt.AddViewID("programmatic")
	v2 := rt.AddViewID("programmatic")
	if v1 != v2 {
		t.Errorf("AddViewID not idempotent: %#x vs %#x", v1, v2)
	}
	if rt.NumViewIDs() != 5 {
		t.Errorf("NumViewIDs after add = %d", rt.NumViewIDs())
	}

	// Ids are deterministic: rebuild and compare.
	rt2 := NewRTable(layouts)
	for _, n := range rt2.ViewIDNames() {
		a, _ := rt.ViewID(n)
		b, _ := rt2.ViewID(n)
		if a != b {
			t.Errorf("nondeterministic id for %s: %#x vs %#x", n, a, b)
		}
	}
}

func TestWalkOrder(t *testing.T) {
	l := MustParse("t", `<A><B><C/></B><D/></A>`)
	var order []string
	l.Root.Walk(func(n *Node) { order = append(order, n.Class) })
	want := []string{"A", "B", "C", "D"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %s, want %s", i, order[i], want[i])
		}
	}
}
