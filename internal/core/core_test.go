package core

import (
	"testing"

	"gator/internal/alite"
	"gator/internal/corpus"
	"gator/internal/graph"
	"gator/internal/ir"
	"gator/internal/layout"
)

func analyzeSrc(t *testing.T, src string, layouts map[string]string, opts Options) *Result {
	t.Helper()
	f, err := alite.Parse("test.alite", src)
	if err != nil {
		t.Fatal(err)
	}
	ls := map[string]*layout.Layout{}
	for name, xml := range layouts {
		ls[name] = layout.MustParse(name, xml)
	}
	p, err := ir.Build([]*alite.File{f}, ls)
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(p, opts)
}

func analyzeFigure1(t *testing.T, opts Options) *Result {
	t.Helper()
	p, err := ir.Build(corpus.Figure1Files(), corpus.Figure1Layouts())
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(p, opts)
}

// localVar finds a variable by name in a method.
func localVar(t *testing.T, r *Result, class, methodKey, name string) *ir.Var {
	t.Helper()
	c := r.Prog.Class(class)
	if c == nil {
		t.Fatalf("no class %s", class)
	}
	m := c.Methods[methodKey]
	if m == nil {
		t.Fatalf("no method %s.%s", class, methodKey)
	}
	for _, v := range m.Locals {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("no variable %s in %s.%s", name, class, methodKey)
	return nil
}

func valueNames(vals []graph.Value) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.String()
	}
	return out
}

// inflByPath finds the inflation node for (layout, preorder path).
func inflByPath(t *testing.T, r *Result, layoutName string, path int) *graph.InflNode {
	t.Helper()
	for _, n := range r.Graph.Infls() {
		if n.LayoutName == layoutName && n.Path == path {
			return n
		}
	}
	t.Fatalf("no inflation node %s:%d", layoutName, path)
	return nil
}

func singleView(t *testing.T, r *Result, v *ir.Var) graph.Value {
	t.Helper()
	vals := r.VarPointsTo(v).Slice()
	if len(vals) != 1 {
		t.Fatalf("pts(%s) = %v, want a single value", v, valueNames(vals))
	}
	return vals[0]
}

func containsValue(vals []graph.Value, v graph.Value) bool {
	for _, x := range vals {
		if x == v {
			return true
		}
	}
	return false
}

// TestFigure4Inflation checks the six view inflation nodes of Figure 4.
func TestFigure4Inflation(t *testing.T) {
	r := analyzeFigure1(t, Options{})
	infls := r.Graph.Infls()
	if len(infls) != 6 {
		t.Fatalf("got %d inflation nodes, want 6 (4 from act_console + 2 from item_terminal)", len(infls))
	}
	classes := map[string]int{}
	for _, n := range infls {
		classes[n.Class.Name]++
	}
	if classes["RelativeLayout"] != 3 || classes["ViewFlipper"] != 1 ||
		classes["ImageView"] != 1 || classes["TextView"] != 1 {
		t.Errorf("inflated classes = %v", classes)
	}
}

// TestFigure4ParentChild checks the parent-child edges of Figure 4,
// including the two created by AddView2 operations.
func TestFigure4ParentChild(t *testing.T) {
	r := analyzeFigure1(t, Options{})
	g := r.Graph

	actRoot := inflByPath(t, r, "act_console", 0) // RelativeLayout 9.1
	flipper := inflByPath(t, r, "act_console", 1) // ViewFlipper 9.2
	kbGroup := inflByPath(t, r, "act_console", 2) // RelativeLayout 9.3
	escBtn := inflByPath(t, r, "act_console", 3)  // ImageView 9.4
	itemRoot := inflByPath(t, r, "item_terminal", 0)
	overlay := inflByPath(t, r, "item_terminal", 1)

	// The TerminalView allocation node.
	var tvAlloc *graph.AllocNode
	for _, an := range g.Allocs() {
		if an.Class.Name == "TerminalView" {
			tvAlloc = an
		}
	}
	if tvAlloc == nil {
		t.Fatal("no TerminalView allocation node")
	}

	wantChild := func(parent, child graph.Value) {
		t.Helper()
		if !containsValue(g.Succ(graph.RelChild, parent).Slice(), child) {
			t.Errorf("missing parent-child edge %s => %s", parent, child)
		}
	}
	// Layout-derived edges.
	wantChild(actRoot, flipper)
	wantChild(actRoot, kbGroup)
	wantChild(kbGroup, escBtn)
	wantChild(itemRoot, overlay)
	// AddView2-derived edges: n.addView(m) and p.addView(n).
	wantChild(itemRoot, tvAlloc)
	wantChild(flipper, itemRoot)

	// Activity root association (Inflate2 rule).
	act := g.ActivityNode(r.Prog.Class("ConsoleActivity"))
	if !containsValue(g.Succ(graph.RelRoot, act).Slice(), actRoot) {
		t.Errorf("activity => root edge missing; roots = %v", valueNames(g.Succ(graph.RelRoot, act).Slice()))
	}
	// Layout provenance (root => layout id).
	if lids := g.Succ(graph.RelLayoutOf, actRoot).Slice(); len(lids) != 1 || lids[0].(*graph.LayoutIDNode).Name != "act_console" {
		t.Errorf("layoutOf(actRoot) = %v", valueNames(lids))
	}
}

// TestFigure4IdsAndListeners checks the id and listener edges of Figure 4.
func TestFigure4IdsAndListeners(t *testing.T) {
	r := analyzeFigure1(t, Options{})
	g := r.Graph

	flipper := inflByPath(t, r, "act_console", 1)
	escBtn := inflByPath(t, r, "act_console", 3)

	// ViewFlipper 9.2 => console_flip from the layout.
	ids := g.Succ(graph.RelViewID, flipper).Slice()
	if len(ids) != 1 || ids[0].(*graph.ViewIDNode).Name != "console_flip" {
		t.Errorf("ids(flipper) = %v", ids)
	}

	// SetId: TerminalView alloc => console_flip.
	var tvAlloc *graph.AllocNode
	for _, an := range g.Allocs() {
		if an.Class.Name == "TerminalView" {
			tvAlloc = an
		}
	}
	ids = g.Succ(graph.RelViewID, tvAlloc).Slice()
	if len(ids) != 1 || ids[0].(*graph.ViewIDNode).Name != "console_flip" {
		t.Errorf("ids(TerminalView) = %v", ids)
	}

	// SetListener: ImageView 9.4 => EscapeButtonListener allocation.
	lsts := g.Succ(graph.RelListener, escBtn).Slice()
	if len(lsts) != 1 {
		t.Fatalf("listeners(escBtn) = %v", valueNames(lsts))
	}
	if an, ok := lsts[0].(*graph.AllocNode); !ok || an.Class.Name != "EscapeButtonListener" {
		t.Errorf("listener = %v", lsts[0])
	}
}

// TestFigure1FlowSolution checks the variable solutions the paper walks
// through in Sections 2 and 4.
func TestFigure1FlowSolution(t *testing.T) {
	r := analyzeFigure1(t, Options{})

	flipper := inflByPath(t, r, "act_console", 1)
	escBtn := inflByPath(t, r, "act_console", 3)
	itemRoot := inflByPath(t, r, "item_terminal", 0)

	// g in onCreate: findViewById(R.id.button_esc) resolves to exactly the
	// ImageView ("the analysis can conclude that ImageView flowsTo g").
	gVals := r.VarPointsTo(localVar(t, r, "ConsoleActivity", "onCreate()", "g")).Slice()
	if len(gVals) != 1 || gVals[0] != escBtn {
		t.Errorf("pts(g) = %v, want the ImageView", valueNames(gVals))
	}

	// e: findViewById(R.id.console_flip). The flipper matches; so does the
	// TerminalView allocation (setId(console_flip)) once it is reachable
	// under the activity root — the expected flow-insensitive result.
	eVals := r.VarPointsTo(localVar(t, r, "ConsoleActivity", "onCreate()", "e")).Slice()
	if !containsValue(eVals, flipper) {
		t.Errorf("pts(e) = %v, missing the ViewFlipper", valueNames(eVals))
	}

	// k: the root of the inflated item_terminal hierarchy.
	if got := singleView(t, r, localVar(t, r, "ConsoleActivity", "addNewTerminalView(R)", "k")); got != itemRoot {
		t.Errorf("pts(k) = %v, want item_terminal root", got)
	}

	// c in findCurrentView: getCurrentView is child-only, so exactly the
	// RelativeLayout added by p.addView(n).
	cVals := r.VarPointsTo(localVar(t, r, "ConsoleActivity", "findCurrentView(I)", "c")).Slice()
	if len(cVals) != 1 || cVals[0] != itemRoot {
		t.Errorf("pts(c) = %v, want only item_terminal root", valueNames(cVals))
	}

	// d: findViewById(console_flip) under the item root = the TerminalView.
	dVals := r.VarPointsTo(localVar(t, r, "ConsoleActivity", "findCurrentView(I)", "d")).Slice()
	if len(dVals) != 1 {
		t.Fatalf("pts(d) = %v", valueNames(dVals))
	}
	if an, ok := dVals[0].(*graph.AllocNode); !ok || an.Class.Name != "TerminalView" {
		t.Errorf("pts(d) = %v, want TerminalView allocation", valueNames(dVals))
	}

	// Event handler callback: r (the onClick parameter) receives the
	// ImageView; this receives the listener allocation.
	rVals := r.VarPointsTo(localVar(t, r, "EscapeButtonListener", "onClick(R)", "r")).Slice()
	if len(rVals) != 1 || rVals[0] != escBtn {
		t.Errorf("pts(onClick r) = %v, want the ImageView", valueNames(rVals))
	}
	thisVals := r.VarPointsTo(localVar(t, r, "EscapeButtonListener", "onClick(R)", "this")).Slice()
	if len(thisVals) != 1 {
		t.Fatalf("pts(onClick this) = %v", valueNames(thisVals))
	}

	// t in onClick: the interprocedural result of findCurrentView.
	tVals := r.VarPointsTo(localVar(t, r, "EscapeButtonListener", "onClick(R)", "t")).Slice()
	if len(tVals) != 1 {
		t.Fatalf("pts(t) = %v", valueNames(tVals))
	}
	if an, ok := tVals[0].(*graph.AllocNode); !ok || an.Class.Name != "TerminalView" {
		t.Errorf("pts(t) = %v, want TerminalView allocation", valueNames(tVals))
	}
}

// TestFigure3OpNodes checks that the statement-derived operation nodes of
// Figure 3 all exist.
func TestFigure3OpNodes(t *testing.T) {
	r := analyzeFigure1(t, Options{})
	kinds := map[string]int{}
	for _, op := range r.Graph.Ops() {
		kinds[op.Kind.String()]++
	}
	want := map[string]int{
		"Inflate2":    1, // setContentView
		"Inflate1":    1, // inflater.inflate
		"FindView2":   2, // two activity findViewById calls
		"FindView1":   1, // c.findViewById(a)
		"FindView3":   1, // getCurrentView
		"SetListener": 1,
		"SetId":       1,
		"AddView2":    2,
	}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("%s ops = %d, want %d (all: %v)", k, kinds[k], n, kinds)
		}
	}
}

func TestFindView3RefinementAblation(t *testing.T) {
	r := analyzeFigure1(t, Options{NoFindView3Refinement: true})
	// Without the child-only refinement, getCurrentView returns any
	// descendant of the flipper, including the flipper itself.
	cVals := r.VarPointsTo(localVar(t, r, "ConsoleActivity", "findCurrentView(I)", "c")).Slice()
	if len(cVals) < 2 {
		t.Errorf("unrefined pts(c) = %v, want several descendants", valueNames(cVals))
	}
}

func TestCastFilteringAblation(t *testing.T) {
	base := analyzeFigure1(t, Options{})
	filt := analyzeFigure1(t, Options{FilterCasts: true})
	// pts(f) after (ViewFlipper) e: filtering drops the TerminalView.
	fBase := base.VarPointsTo(localVar(t, base, "ConsoleActivity", "onCreate()", "f")).Slice()
	fFilt := filt.VarPointsTo(localVar(t, filt, "ConsoleActivity", "onCreate()", "f")).Slice()
	if len(fFilt) > len(fBase) {
		t.Errorf("filtering enlarged the solution: %v vs %v", valueNames(fFilt), valueNames(fBase))
	}
	if len(fFilt) != 1 {
		t.Errorf("filtered pts(f) = %v, want exactly the ViewFlipper", valueNames(fFilt))
	}
}

func TestSharedInflationAblation(t *testing.T) {
	src := `
class A extends Activity {
	void onCreate() {
		LayoutInflater i = this.getLayoutInflater();
		View a = i.inflate(R.layout.main);
		View b = i.inflate(R.layout.main);
	}
}`
	layouts := map[string]string{"main": `<LinearLayout><Button/></LinearLayout>`}
	// Wait: two inflate calls are two distinct sites.
	perSite := analyzeSrc(t, src, layouts, Options{})
	if got := len(perSite.Graph.Infls()); got != 4 {
		t.Errorf("per-site inflation nodes = %d, want 4", got)
	}
	shared := analyzeSrc(t, src, layouts, Options{SharedInflation: true})
	if got := len(shared.Graph.Infls()); got != 2 {
		t.Errorf("shared inflation nodes = %d, want 2", got)
	}
	// Under sharing, both variables see the same root.
	aVals := shared.VarPointsTo(localVar(t, shared, "A", "onCreate()", "a")).Slice()
	bVals := shared.VarPointsTo(localVar(t, shared, "A", "onCreate()", "b")).Slice()
	if len(aVals) != 1 || len(bVals) != 1 || aVals[0] != bVals[0] {
		t.Errorf("shared roots differ: %v vs %v", valueNames(aVals), valueNames(bVals))
	}
}

func TestInflateAttachParent(t *testing.T) {
	src := `
class A extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		LinearLayout box = (LinearLayout) this.findViewById(R.id.box);
		LayoutInflater i = this.getLayoutInflater();
		i.inflate(R.layout.row, box);
	}
}`
	layouts := map[string]string{
		"main": `<LinearLayout android:id="@+id/box"/>`,
		"row":  `<TextView android:id="@+id/cell"/>`,
	}
	r := analyzeSrc(t, src, layouts, Options{})
	box := inflByPath(t, r, "main", 0)
	row := inflByPath(t, r, "row", 0)
	if !containsValue(r.Graph.Succ(graph.RelChild, box).Slice(), row) {
		t.Errorf("inflate-into-parent did not attach: children(box) = %v",
			valueNames(r.Graph.Succ(graph.RelChild, box).Slice()))
	}
	// And the attached row is now findable through the activity.
	src2 := src[:len(src)-len("}\n}`")] // not used; separate check below
	_ = src2
}

func TestDialogContentAndFindView(t *testing.T) {
	src := `
class HelpDialog extends Dialog {
	void onCreate() {
		this.setContentView(R.layout.help);
	}
}
class A extends Activity {
	void onCreate() {
		HelpDialog d = new HelpDialog();
		View v = d.findViewById(R.id.text);
	}
}`
	layouts := map[string]string{"help": `<LinearLayout><TextView android:id="@+id/text"/></LinearLayout>`}
	r := analyzeSrc(t, src, layouts, Options{})
	text := inflByPath(t, r, "help", 1)
	vVals := r.VarPointsTo(localVar(t, r, "A", "onCreate()", "v")).Slice()
	if len(vVals) != 1 || vVals[0] != text {
		t.Errorf("dialog findViewById: pts(v) = %v, want the TextView", valueNames(vVals))
	}
}

func TestXMLOnClickBinding(t *testing.T) {
	src := `
class A extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
	}
	void sendMessage(View v) {
	}
}`
	layouts := map[string]string{"main": `<LinearLayout><Button android:id="@+id/go" android:onClick="sendMessage"/></LinearLayout>`}
	r := analyzeSrc(t, src, layouts, Options{})
	btn := inflByPath(t, r, "main", 1)
	vVals := r.VarPointsTo(localVar(t, r, "A", "sendMessage(R)", "v")).Slice()
	if len(vVals) != 1 || vVals[0] != btn {
		t.Errorf("onClick param pts = %v, want the Button", valueNames(vVals))
	}
	lsts := r.Graph.Succ(graph.RelListener, btn).Slice()
	if len(lsts) != 1 {
		t.Fatalf("listeners = %v", valueNames(lsts))
	}
	if an, ok := lsts[0].(*graph.ActivityNode); !ok || an.Class.Name != "A" {
		t.Errorf("listener = %v, want Activity[A]", lsts[0])
	}
}

func TestActivityAsListener(t *testing.T) {
	src := `
class A extends Activity implements OnClickListener {
	void onCreate() {
		this.setContentView(R.layout.main);
		View b = this.findViewById(R.id.go);
		b.setOnClickListener(this);
	}
	void onClick(View v) {
	}
}`
	layouts := map[string]string{"main": `<LinearLayout><Button android:id="@+id/go"/></LinearLayout>`}
	r := analyzeSrc(t, src, layouts, Options{})
	btn := inflByPath(t, r, "main", 1)
	lsts := r.Graph.Succ(graph.RelListener, btn).Slice()
	if len(lsts) != 1 {
		t.Fatalf("listeners = %v", valueNames(lsts))
	}
	if _, ok := lsts[0].(*graph.ActivityNode); !ok {
		t.Errorf("listener = %v, want the activity", lsts[0])
	}
	vVals := r.VarPointsTo(localVar(t, r, "A", "onClick(R)", "v")).Slice()
	if len(vVals) != 1 || vVals[0] != btn {
		t.Errorf("pts(onClick v) = %v", valueNames(vVals))
	}
}

func TestAddViewCycleTerminates(t *testing.T) {
	src := `
class A extends Activity {
	void onCreate() {
		LinearLayout x = new LinearLayout();
		LinearLayout y = new LinearLayout();
		if (*) {
			x.addView(y);
		} else {
			y.addView(x);
		}
		x.setId(R.id.probe);
		View f = x.findViewById(R.id.probe);
	}
}`
	r := analyzeSrc(t, src, nil, Options{})
	fVals := r.VarPointsTo(localVar(t, r, "A", "onCreate()", "f")).Slice()
	if len(fVals) != 1 {
		t.Errorf("pts(f) = %v", valueNames(fVals))
	}
}

func TestDeclaredDispatchOnlyAblation(t *testing.T) {
	src := `
class Base {
	View pick(View v) { return v; }
}
class Derived extends Base {
	View pick(View v) { return v.findFocus(); }
}
class A extends Activity {
	void onCreate() {
		LinearLayout w = new LinearLayout();
		Base b = new Derived();
		View r = b.pick(w);
	}
}`
	cha := analyzeSrc(t, src, nil, Options{})
	// CHA: both Base.pick and Derived.pick are targets; Base.pick returns
	// its argument, so w flows to r.
	rVals := cha.VarPointsTo(localVar(t, cha, "A", "onCreate()", "r")).Slice()
	if len(rVals) != 1 {
		t.Errorf("CHA pts(r) = %v", valueNames(rVals))
	}
	decl := analyzeSrc(t, src, nil, Options{DeclaredDispatchOnly: true})
	rVals2 := decl.VarPointsTo(localVar(t, decl, "A", "onCreate()", "r")).Slice()
	if len(rVals2) != 1 {
		t.Errorf("declared-only pts(r) = %v", valueNames(rVals2))
	}
}

func TestInterfaceDispatchForListeners(t *testing.T) {
	src := `
class L1 implements OnClickListener {
	void onClick(View v) { }
}
class L2 implements OnClickListener {
	void onClick(View v) { }
}
class A extends Activity {
	OnClickListener chosen;
	void onCreate() {
		if (*) {
			this.chosen = new L1();
		} else {
			this.chosen = new L2();
		}
		Button b = new Button();
		OnClickListener l = this.chosen;
		b.setOnClickListener(l);
	}
}`
	r := analyzeSrc(t, src, nil, Options{})
	// Both listener classes' onClick receive the button: CHA over the
	// declared interface type.
	for _, cls := range []string{"L1", "L2"} {
		vVals := r.VarPointsTo(localVar(t, r, cls, "onClick(R)", "v")).Slice()
		if len(vVals) != 1 {
			t.Errorf("pts(%s.onClick v) = %v", cls, valueNames(vVals))
		}
		thisVals := r.VarPointsTo(localVar(t, r, cls, "onClick(R)", "this")).Slice()
		if len(thisVals) != 1 {
			t.Errorf("pts(%s.onClick this) = %v, want own allocation only", cls, valueNames(thisVals))
		}
	}
}

func TestIterationsAndDeterminism(t *testing.T) {
	r1 := analyzeFigure1(t, Options{})
	r2 := analyzeFigure1(t, Options{})
	if r1.Iterations != r2.Iterations {
		t.Errorf("iterations differ: %d vs %d", r1.Iterations, r2.Iterations)
	}
	if r1.Iterations < 2 {
		t.Errorf("iterations = %d, expected at least 2 (ops must re-fire)", r1.Iterations)
	}
	// Same solution for a representative variable, in the same order.
	v1 := valueNames(r1.VarPointsTo(localVar(t, r1, "ConsoleActivity", "findCurrentView(I)", "d")).Slice())
	v2 := valueNames(r2.VarPointsTo(localVar(t, r2, "ConsoleActivity", "findCurrentView(I)", "d")).Slice())
	if len(v1) != len(v2) {
		t.Fatalf("solutions differ: %v vs %v", v1, v2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Errorf("solution order differs at %d: %q vs %q", i, v1[i], v2[i])
		}
	}
}

func TestMergeLayoutInflation(t *testing.T) {
	src := `
class A extends Activity {
	void onCreate() {
		LayoutInflater i = this.getLayoutInflater();
		View v = i.inflate(R.layout.pieces);
	}
}`
	layouts := map[string]string{"pieces": `<merge><TextView android:id="@+id/a"/><TextView android:id="@+id/b"/></merge>`}
	r := analyzeSrc(t, src, layouts, Options{})
	vVals := r.VarPointsTo(localVar(t, r, "A", "onCreate()", "v")).Slice()
	if len(vVals) != 1 {
		t.Fatalf("pts(v) = %v", valueNames(vVals))
	}
	root, ok := vVals[0].(*graph.InflNode)
	if !ok || root.Class.Name != "ViewGroup" {
		t.Errorf("merge root = %v, want synthetic ViewGroup", vVals[0])
	}
	if got := r.Graph.Succ(graph.RelChild, root).Len(); got != 2 {
		t.Errorf("merge children = %d, want 2", got)
	}
}
