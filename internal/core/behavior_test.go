package core

import (
	"testing"

	"gator/internal/graph"
)

// TestFieldBasedMerging documents the field-based abstraction: one node per
// field signature, so two objects of the same class share their field
// solutions (the paper's stated design; field-sensitive variants are future
// work).
func TestFieldBasedMerging(t *testing.T) {
	src := `
class Holder {
	View slot;
	void put(View v) { this.slot = v; }
	View get() { View r = this.slot; return r; }
}
class A extends Activity {
	void onCreate() {
		Holder h1 = new Holder();
		Holder h2 = new Holder();
		Button b1 = new Button();
		Button b2 = new Button();
		h1.put(b1);
		h2.put(b2);
		View x = h1.get();
	}
}`
	r := analyzeSrc(t, src, nil, Options{})
	xVals := r.VarPointsTo(localVar(t, r, "A", "onCreate()", "x")).Slice()
	// Field-based: x sees both buttons even though h1 only ever held b1.
	if len(xVals) != 2 {
		t.Errorf("pts(x) = %v, want 2 (field-based merging)", valueNames(xVals))
	}
}

// TestActivityIsolation: two activities inflating different layouts do not
// pollute each other's find-view results.
func TestActivityIsolation(t *testing.T) {
	src := `
class A extends Activity {
	void onCreate() {
		this.setContentView(R.layout.la);
		View va = this.findViewById(R.id.wa);
	}
}
class B extends Activity {
	void onCreate() {
		this.setContentView(R.layout.lb);
		View vb = this.findViewById(R.id.wb);
	}
}`
	layouts := map[string]string{
		"la": `<LinearLayout><Button android:id="@+id/wa"/></LinearLayout>`,
		"lb": `<LinearLayout><Button android:id="@+id/wb"/></LinearLayout>`,
	}
	r := analyzeSrc(t, src, layouts, Options{})
	va := r.VarPointsTo(localVar(t, r, "A", "onCreate()", "va")).Slice()
	vb := r.VarPointsTo(localVar(t, r, "B", "onCreate()", "vb")).Slice()
	if len(va) != 1 || len(vb) != 1 {
		t.Fatalf("pts(va)=%v pts(vb)=%v", valueNames(va), valueNames(vb))
	}
	if va[0] == vb[0] {
		t.Error("activities share view abstractions")
	}
}

// TestSameLayoutTwoActivities: the same layout inflated by two activities
// yields distinct per-site view nodes (the paper's per-site inflation), so
// each activity's lookups stay precise.
func TestSameLayoutTwoActivities(t *testing.T) {
	src := `
class A extends Activity {
	void onCreate() {
		this.setContentView(R.layout.shared);
		View v = this.findViewById(R.id.w);
	}
}
class B extends Activity {
	void onCreate() {
		this.setContentView(R.layout.shared);
		View v = this.findViewById(R.id.w);
	}
}`
	layouts := map[string]string{"shared": `<LinearLayout><Button android:id="@+id/w"/></LinearLayout>`}
	r := analyzeSrc(t, src, layouts, Options{})
	if got := len(r.Graph.Infls()); got != 4 {
		t.Errorf("inflation nodes = %d, want 4 (2 per site)", got)
	}
	for _, cls := range []string{"A", "B"} {
		vals := r.VarPointsTo(localVar(t, r, cls, "onCreate()", "v")).Slice()
		if len(vals) != 1 {
			t.Errorf("%s pts(v) = %v, want its own button only", cls, valueNames(vals))
		}
	}
	// Under shared inflation they merge.
	rs := analyzeSrc(t, src, layouts, Options{SharedInflation: true})
	if got := len(rs.Graph.Infls()); got != 2 {
		t.Errorf("shared inflation nodes = %d, want 2", got)
	}
}

// TestSetContentViewProgrammaticRoot: AddView1 with a programmatic root
// makes the whole programmatic tree findable.
func TestSetContentViewProgrammaticRoot(t *testing.T) {
	src := `
class A extends Activity {
	void onCreate() {
		LinearLayout root = new LinearLayout();
		Button b = new Button();
		b.setId(R.id.go);
		root.addView(b);
		this.setContentView(root);
		View found = this.findViewById(R.id.go);
	}
}`
	r := analyzeSrc(t, src, nil, Options{})
	vals := r.VarPointsTo(localVar(t, r, "A", "onCreate()", "found")).Slice()
	if len(vals) != 1 {
		t.Fatalf("pts(found) = %v", valueNames(vals))
	}
	an, ok := vals[0].(*graph.AllocNode)
	if !ok || an.Class.Name != "Button" {
		t.Errorf("found = %v", vals[0])
	}
}

// TestIdPropagationThroughIntMath is a negative capability test: ids
// reaching operations through plain integer constants (not R references)
// are not tracked — the documented limitation.
func TestIdConstantNotTracked(t *testing.T) {
	src := `
class A extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		View v = this.findViewById(2131230720); // raw constant, not R.id
	}
}`
	layouts := map[string]string{"main": `<LinearLayout><Button android:id="@+id/w"/></LinearLayout>`}
	r := analyzeSrc(t, src, layouts, Options{})
	vals := r.VarPointsTo(localVar(t, r, "A", "onCreate()", "v")).Slice()
	if len(vals) != 0 {
		t.Errorf("raw int constant tracked: %v", valueNames(vals))
	}
}

// TestInterproceduralIdFlow: ids pass through int parameters, returns, and
// int fields.
func TestInterproceduralIdFlow(t *testing.T) {
	src := `
class Ids {
	int stored;
	void keep(int id) { this.stored = id; }
	int fetch() { int r = this.stored; return r; }
}
class A extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		Ids ids = new Ids();
		ids.keep(R.id.deep);
		int got = ids.fetch();
		View v = this.findViewById(got);
	}
}`
	layouts := map[string]string{"main": `<LinearLayout><Button android:id="@+id/deep"/></LinearLayout>`}
	r := analyzeSrc(t, src, layouts, Options{})
	vals := r.VarPointsTo(localVar(t, r, "A", "onCreate()", "v")).Slice()
	if len(vals) != 1 {
		t.Errorf("pts(v) = %v, id lost through field/return", valueNames(vals))
	}
}

// TestDeadOpHasEmptySolution: operations in never-called methods stay
// empty (no spurious seeding).
func TestDeadOpHasEmptySolution(t *testing.T) {
	src := `
class Dead {
	void never(View v, int id) {
		View w = v.findViewById(id);
	}
}
class A extends Activity {
	void onCreate() { }
}`
	r := analyzeSrc(t, src, nil, Options{})
	for _, op := range r.Graph.Ops() {
		if len(r.OpReceivers(op).Slice()) != 0 || len(r.OpResults(op).Slice()) != 0 {
			t.Errorf("dead op %s has a solution", op)
		}
	}
}

// TestRemoveViewIsStaticNoOp: removal never shrinks the static relations
// (monotone abstraction) but the program still type-checks and the removed
// view remains findable statically.
func TestRemoveViewIsStaticNoOp(t *testing.T) {
	src := `
class A extends Activity {
	void onCreate() {
		LinearLayout root = new LinearLayout();
		Button b = new Button();
		b.setId(R.id.gone);
		root.addView(b);
		root.removeView(b);
		root.removeAllViews();
		this.setContentView(root);
		View v = this.findViewById(R.id.gone);
	}
}`
	r := analyzeSrc(t, src, nil, Options{})
	vals := r.VarPointsTo(localVar(t, r, "A", "onCreate()", "v")).Slice()
	if len(vals) != 1 {
		t.Errorf("pts(v) = %v, want the removed button (sound over-approximation)", valueNames(vals))
	}
}
