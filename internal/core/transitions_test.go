package core

import (
	"testing"

	"gator/internal/graph"
)

// transitionApp is a three-activity application whose launches happen from
// event handlers — the exact pattern Section 6 of the paper argues requires
// GUI-object analysis to model: (1) the activity-view association, (2) the
// view-handler association, (3) the activities the handler starts.
const transitionApp = `
class MainActivity extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		View s = this.findViewById(R.id.settings);
		OpenSettings l = new OpenSettings(this);
		s.setOnClickListener(l);
	}
}
class SettingsActivity extends Activity {
	void onCreate() {
		this.setContentView(R.layout.settings);
		View a = this.findViewById(R.id.about);
		OpenAbout l = new OpenAbout(this);
		a.setOnClickListener(l);
	}
}
class AboutActivity extends Activity {
	void onCreate() {
	}
}
class OpenSettings implements OnClickListener {
	MainActivity owner;
	OpenSettings(MainActivity a) { this.owner = a; }
	void onClick(View v) {
		MainActivity a = this.owner;
		Intent i = new Intent(SettingsActivity.class);
		a.startActivity(i);
	}
}
class OpenAbout implements OnClickListener {
	SettingsActivity owner;
	OpenAbout(SettingsActivity a) { this.owner = a; }
	void onClick(View v) {
		SettingsActivity a = this.owner;
		Intent i = new Intent(AboutActivity.class);
		a.startActivity(i);
	}
}
`

var transitionLayouts = map[string]string{
	"main":     `<LinearLayout><Button android:id="@+id/settings"/></LinearLayout>`,
	"settings": `<LinearLayout><Button android:id="@+id/about"/></LinearLayout>`,
}

func TestTransitionsFromHandlers(t *testing.T) {
	r := analyzeSrc(t, transitionApp, transitionLayouts, Options{})
	trs := r.Transitions()
	if len(trs) != 2 {
		t.Fatalf("transitions = %v", trs)
	}
	want := map[[2]string]bool{
		{"MainActivity", "SettingsActivity"}:  true,
		{"SettingsActivity", "AboutActivity"}: true,
	}
	for _, tr := range trs {
		key := [2]string{tr.Source.Name, tr.Target.Name}
		if !want[key] {
			t.Errorf("unexpected transition %s -> %s via %s", tr.Source, tr.Target, tr.Via)
		}
		delete(want, key)
	}
	for k := range want {
		t.Errorf("missing transition %s -> %s", k[0], k[1])
	}
}

func TestIntentSetClassChaining(t *testing.T) {
	src := `
class B extends Activity { void onCreate() { } }
class A extends Activity {
	void onCreate() {
		Intent i = new Intent(B.class);
		Intent j = i.setClass(B.class);
		this.startActivity(j);
	}
}`
	r := analyzeSrc(t, src, nil, Options{})
	trs := r.Transitions()
	if len(trs) != 1 || trs[0].Source.Name != "A" || trs[0].Target.Name != "B" {
		t.Fatalf("transitions = %v", trs)
	}
}

func TestIntentThroughFieldsAndBranches(t *testing.T) {
	src := `
class B extends Activity { void onCreate() { } }
class C extends Activity { void onCreate() { } }
class Router {
	Intent pending;
	void set(Intent i) { this.pending = i; }
	Intent get() { Intent i = this.pending; return i; }
}
class A extends Activity {
	void onCreate() {
		Router r = new Router();
		if (*) {
			Intent x = new Intent(B.class);
			r.set(x);
		} else {
			Intent y = new Intent(C.class);
			r.set(y);
		}
		Intent z = r.get();
		this.startActivity(z);
	}
}`
	r := analyzeSrc(t, src, nil, Options{})
	targets := map[string]bool{}
	for _, tr := range r.Transitions() {
		if tr.Source.Name != "A" {
			t.Errorf("source = %s", tr.Source)
		}
		targets[tr.Target.Name] = true
	}
	if !targets["B"] || !targets["C"] || len(targets) != 2 {
		t.Errorf("targets = %v", targets)
	}
}

func TestNoTransitionWithoutTarget(t *testing.T) {
	src := `
class B { }
class A extends Activity {
	void onCreate() {
		Intent i = new Intent(B.class);
		this.startActivity(i);
	}
}`
	r := analyzeSrc(t, src, nil, Options{})
	// B is not an activity class; Transitions still reports the static
	// edge (the class node is recorded), and the interpreter would not
	// launch it. Here we only check nothing panics and the edge targets B.
	for _, tr := range r.Transitions() {
		if tr.Target.Name != "B" {
			t.Errorf("target = %s", tr.Target)
		}
	}
}

func TestClassLiteralValues(t *testing.T) {
	src := `
class B extends Activity { void onCreate() { } }
class A extends Activity {
	void onCreate() {
		Intent i = new Intent(B.class);
	}
}`
	r := analyzeSrc(t, src, nil, Options{})
	iVals := r.VarPointsTo(localVar(t, r, "A", "onCreate()", "i")).Slice()
	if len(iVals) != 1 {
		t.Fatalf("pts(i) = %v", valueNames(iVals))
	}
	alloc, ok := iVals[0].(*graph.AllocNode)
	if !ok || alloc.Class.Name != "Intent" {
		t.Fatalf("pts(i) = %v", valueNames(iVals))
	}
	targets := r.Graph.Succ(graph.RelIntent, alloc).Slice()
	if len(targets) != 1 || targets[0].(*graph.ClassNode).Class.Name != "B" {
		t.Errorf("targets = %v", targets)
	}
}

func TestCtx1CFAFixesSharedHelper(t *testing.T) {
	src := `
class Finder {
	View byId(View root, int id) {
		View r = root.findViewById(id);
		return r;
	}
}
class A extends Activity {
	void onCreate() {
		this.setContentView(R.layout.la);
		View ra = this.findViewById(R.id.roota);
		Finder f = new Finder();
		View x = f.byId(ra, R.id.childa);
	}
}
class B extends Activity {
	void onCreate() {
		this.setContentView(R.layout.lb);
		View rb = this.findViewById(R.id.rootb);
		Finder f = new Finder();
		View y = f.byId(rb, R.id.childb);
	}
}`
	layouts := map[string]string{
		"la": `<LinearLayout android:id="@+id/roota"><Button android:id="@+id/childa"/></LinearLayout>`,
		"lb": `<LinearLayout android:id="@+id/rootb"><Button android:id="@+id/childb"/></LinearLayout>`,
	}

	// Context-insensitive: the helper's receiver set merges both roots and
	// its result (both children) flows back to both callers.
	base := analyzeSrc(t, src, layouts, Options{})
	xVals := base.VarPointsTo(localVar(t, base, "A", "onCreate()", "x")).Slice()
	if len(xVals) != 2 {
		t.Errorf("insensitive pts(x) = %v, want 2 (merged)", valueNames(xVals))
	}

	// 1-CFA: each call site gets its own clone; the spurious result is
	// gone.
	ctx := analyzeSrc(t, src, layouts, Options{ContextSensitivity: Ctx1CFA})
	xVals = ctx.VarPointsTo(localVar(t, ctx, "A", "onCreate()", "x")).Slice()
	if len(xVals) != 1 {
		t.Fatalf("context-sensitive pts(x) = %v, want 1", valueNames(xVals))
	}
	if infl, ok := xVals[0].(*graph.InflNode); !ok || infl.IDName != "childa" {
		t.Errorf("pts(x) = %v, want childa", valueNames(xVals))
	}
	yVals := ctx.VarPointsTo(localVar(t, ctx, "B", "onCreate()", "y")).Slice()
	if len(yVals) != 1 {
		t.Errorf("context-sensitive pts(y) = %v, want 1", valueNames(yVals))
	}
}
