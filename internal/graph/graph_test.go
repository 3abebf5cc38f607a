package graph

import (
	"strings"
	"testing"

	"gator/internal/alite"
	"gator/internal/ir"
	"gator/internal/platform"
)

func testProgram(t *testing.T) *ir.Program {
	t.Helper()
	src := `
class L implements OnClickListener {
	void onClick(View v) { }
}
class A extends Activity {
	View root;
	void onCreate() {
		LinearLayout x = new LinearLayout();
		L l = new L();
	}
}`
	f, err := alite.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Build([]*alite.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNodeCreationIdempotent(t *testing.T) {
	p := testProgram(t)
	g := New()
	m := p.Class("A").Methods["onCreate()"]
	v := m.Locals[1]

	n1 := g.VarNode(v)
	n2 := g.VarNode(v)
	if n1 != n2 {
		t.Error("VarNode not idempotent")
	}
	f := p.Class("A").LookupField("root")
	if g.FieldNode(f) != g.FieldNode(f) {
		t.Error("FieldNode not idempotent")
	}
	if g.ActivityNode(p.Class("A")) != g.ActivityNode(p.Class("A")) {
		t.Error("ActivityNode not idempotent")
	}
	if g.LayoutIDNode(10, "l") != g.LayoutIDNode(10, "l") {
		t.Error("LayoutIDNode not idempotent")
	}
	if g.ViewIDNode(20, "v") != g.ViewIDNode(20, "v") {
		t.Error("ViewIDNode not idempotent")
	}

	// IDs are dense and unique.
	seen := map[int]bool{}
	for _, n := range g.Nodes() {
		if seen[n.ID()] {
			t.Errorf("duplicate node id %d", n.ID())
		}
		seen[n.ID()] = true
	}
}

func TestFlowEdgesDeduplicated(t *testing.T) {
	p := testProgram(t)
	g := New()
	m := p.Class("A").Methods["onCreate()"]
	a, b := g.VarNode(m.Locals[0]), g.VarNode(m.Locals[1])
	if !g.AddFlow(a, b) {
		t.Error("first AddFlow = false")
	}
	if g.AddFlow(a, b) {
		t.Error("duplicate AddFlow = true")
	}
	if g.NumFlowEdges() != 1 {
		t.Errorf("NumFlowEdges = %d", g.NumFlowEdges())
	}
	if len(g.FlowSucc(a)) != 1 || g.FlowSucc(a)[0] != (FlowEdge{Dst: int32(b.ID())}) {
		t.Errorf("FlowSucc = %v", g.FlowSucc(a))
	}
}

func TestRelationsAndGen(t *testing.T) {
	g := New()
	v1 := g.ViewIDNode(1, "a") // stand-in values
	v2 := g.ViewIDNode(2, "b")
	gen := g.Gen()
	if !g.AddChild(v1, v2) {
		t.Error("AddChild new = false")
	}
	if g.Gen() == gen {
		t.Error("Gen did not advance")
	}
	gen = g.Gen()
	if g.AddChild(v1, v2) {
		t.Error("duplicate AddChild = true")
	}
	if g.Gen() != gen {
		t.Error("Gen advanced on duplicate")
	}
	if g.Children(v1).Len() != 1 {
		t.Errorf("Children = %v", g.Children(v1).Slice())
	}
	var pairs int
	g.ChildPairs(func(p, c Value) { pairs++ })
	if pairs != 1 {
		t.Errorf("pairs = %d", pairs)
	}

	if !g.AddListener(v1, v2) || g.AddListener(v1, v2) {
		t.Error("listener relation dedup broken")
	}
	if !g.AddRoot(v1, v2) || g.AddRoot(v1, v2) {
		t.Error("root relation dedup broken")
	}
	lid := g.LayoutIDNode(3, "main")
	if !g.AddLayoutOf(v1, lid) {
		t.Error("AddLayoutOf new = false")
	}
	if g.LayoutOf(v1).Len() != 1 {
		t.Errorf("LayoutOf = %v", g.LayoutOf(v1).Slice())
	}
}

func TestValueClassification(t *testing.T) {
	p := testProgram(t)
	g := New()
	m := p.Class("A").Methods["onCreate()"]

	var allocStmts []*ir.New
	ir.WalkStmts(m.Body, func(s ir.Stmt) {
		if n, ok := s.(*ir.New); ok {
			allocStmts = append(allocStmts, n)
		}
	})
	if len(allocStmts) != 2 {
		t.Fatalf("allocs = %d", len(allocStmts))
	}
	viewAlloc := g.NewAllocNode(allocStmts[0], m, true, false, false)
	lstAlloc := g.NewAllocNode(allocStmts[1], m, false, true, false)

	if !IsViewValue(viewAlloc) || IsViewValue(lstAlloc) {
		t.Error("IsViewValue misclassifies allocs")
	}
	if IsListenerValue(viewAlloc) || !IsListenerValue(lstAlloc) {
		t.Error("IsListenerValue misclassifies allocs")
	}
	if ViewClass(viewAlloc) == nil || ViewClass(lstAlloc) != nil {
		t.Error("ViewClass misclassifies")
	}

	act := g.ActivityNode(p.Class("A"))
	if IsViewValue(act) {
		t.Error("activity is not a view")
	}
	if IsListenerValue(act) {
		t.Error("activity without listener interface classified as listener")
	}
	act.IsListener = true
	if !IsListenerValue(act) {
		t.Error("listener activity not classified")
	}

	op := g.NewOpNode(platform.OpFindView1, nil, m)
	infl := g.NewInflNode(op, "main", 0, p.Class("LinearLayout"), "box", "")
	if !IsViewValue(infl) || ViewClass(infl).Name != "LinearLayout" {
		t.Error("inflation node misclassified")
	}
	if len(g.Infls()) != 1 || len(g.Allocs()) != 2 || len(g.Ops()) != 1 {
		t.Error("registry counts wrong")
	}
}

func TestNodeStrings(t *testing.T) {
	p := testProgram(t)
	g := New()
	m := p.Class("A").Methods["onCreate()"]

	cases := []struct {
		node Node
		want string
	}{
		{g.VarNode(m.This), "Var[A.onCreate:this]"},
		{g.FieldNode(p.Class("A").LookupField("root")), "Field[A.root]"},
		{g.ActivityNode(p.Class("A")), "Activity[A]"},
		{g.LayoutIDNode(0x7f030000, "main"), "LayoutId[main]"},
		{g.ViewIDNode(0x7f080000, "go"), "ViewId[go]"},
	}
	for _, c := range cases {
		if got := c.node.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	op := g.NewOpNode(platform.OpSetListener, nil, m)
	if !strings.Contains(op.String(), "SetListener") {
		t.Errorf("op string = %q", op.String())
	}
	infl := g.NewInflNode(op, "main", 2, p.Class("Button"), "go", "")
	if !strings.Contains(infl.String(), "main:2") || !strings.Contains(infl.String(), "go") {
		t.Errorf("infl string = %q", infl.String())
	}
}

func TestExtensionNodesAndRelations(t *testing.T) {
	p := testProgram(t)
	g := New()
	a := p.Class("A")

	// Menus.
	menu := g.MenuNode(a)
	if g.MenuNode(a) != menu {
		t.Error("MenuNode not idempotent")
	}
	op := g.NewOpNode(platform.OpMenuAdd, nil, a.Methods["onCreate()"])
	item := g.MenuItemNode(op)
	if g.MenuItemNode(op) != item {
		t.Error("MenuItemNode not idempotent")
	}
	if !g.AddMenuItem(menu, item) || g.AddMenuItem(menu, item) {
		t.Error("AddMenuItem dedup broken")
	}
	if g.MenuItems(menu).Len() != 1 {
		t.Errorf("MenuItems = %v", g.MenuItems(menu).Slice())
	}
	pairs := 0
	g.MenuPairs(func(m, i Value) { pairs++ })
	if pairs != 1 {
		t.Errorf("MenuPairs = %d", pairs)
	}
	if len(g.Menus()) != 1 {
		t.Errorf("Menus = %v", g.Menus())
	}
	if menu.String() != "Menu[A]" || item.String() == "" {
		t.Errorf("strings: %q %q", menu, item)
	}

	// Class literals and intent targets.
	cn := g.ClassNode(a)
	if g.ClassNode(a) != cn || cn.String() != "Class[A]" {
		t.Errorf("ClassNode = %v", cn)
	}
	intent := g.ViewIDNode(99, "standin") // any value works structurally
	if !g.AddIntentTarget(intent, cn) || g.AddIntentTarget(intent, cn) {
		t.Error("AddIntentTarget dedup broken")
	}
	if got := g.IntentTargets(intent).Slice(); len(got) != 1 || got[0] != Value(cn) {
		t.Errorf("IntentTargets = %v", got)
	}

	// Parents inverse index.
	v1, v2 := g.ViewIDNode(1, "a"), g.ViewIDNode(2, "b")
	g.AddChild(v1, v2)
	if got := g.Parents(v2).Slice(); len(got) != 1 || got[0] != Value(v1) {
		t.Errorf("Parents = %v", got)
	}

	// Registry accessors.
	g.ActivityNode(a)
	g.LayoutIDNode(10, "main")
	if len(g.Activities()) != 1 || len(g.LayoutIDs()) != 1 || len(g.ViewIDs()) != 3 {
		t.Errorf("registries: %d %d %d", len(g.Activities()), len(g.LayoutIDs()), len(g.ViewIDs()))
	}

	// Remaining relation accessors.
	if !g.AddViewID(v1, g.ViewIDNode(3, "c")) {
		t.Error("AddViewID new = false")
	}
	if g.ViewIDValues(v1).Len() != 1 {
		t.Errorf("ViewIDValues = %v", g.ViewIDValues(v1).Slice())
	}
	g.AddListener(v1, v2)
	if g.Listeners(v1).Len() != 1 {
		t.Errorf("Listeners = %v", g.Listeners(v1).Slice())
	}
	lp := 0
	g.ListenerPairs(func(a, b Value) { lp++ })
	if lp != 1 {
		t.Errorf("ListenerPairs = %d", lp)
	}
	g.AddRoot(v1, v2)
	if g.Roots(v1).Len() != 1 {
		t.Errorf("Roots = %v", g.Roots(v1).Slice())
	}
	rp := 0
	g.RootPairs(func(a, b Value) { rp++ })
	if rp != 1 {
		t.Errorf("RootPairs = %d", rp)
	}
	lid := g.LayoutIDNode(10, "main")
	g.AddLayoutOf(v1, lid)
	if g.LayoutOf(v1).Len() != 1 {
		t.Errorf("LayoutOf = %v", g.LayoutOf(v1).Slice())
	}

	// Value marker strings for all value kinds.
	for _, v := range []Value{menu, item, cn, g.ActivityNode(a), lid} {
		if v.String() == "" {
			t.Errorf("empty String for %T", v)
		}
	}
}

func TestVarNodeContexts(t *testing.T) {
	p := testProgram(t)
	g := New()
	m := p.Class("A").Methods["onCreate()"]
	v := m.Locals[1]
	base := g.VarNode(v)
	c1 := g.VarNodeCtx(v, g.InternContext("cs:1"))
	c2 := g.VarNodeCtx(v, g.InternContext("cs:2"))
	if base == c1 || c1 == c2 {
		t.Error("contexts not distinguished")
	}
	if g.VarNodeCtx(v, g.InternContext("cs:1")) != c1 {
		t.Error("VarNodeCtx not idempotent")
	}
	if base.String() == c1.String() {
		t.Errorf("context missing from String: %q", c1)
	}
}
