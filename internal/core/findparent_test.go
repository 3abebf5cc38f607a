package core

import (
	"testing"

	"gator/internal/graph"
)

func TestFindParentOp(t *testing.T) {
	src := `
class A extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		View btn = this.findViewById(R.id.go);
		ViewGroup parent = btn.getParent();
		parent.setId(R.id.probe);
	}
}`
	layouts := map[string]string{
		"main": `<LinearLayout><FrameLayout android:id="@+id/box"><Button android:id="@+id/go"/></FrameLayout></LinearLayout>`,
	}
	r := analyzeSrc(t, src, layouts, Options{})
	box := inflByPath(t, r, "main", 1)
	pVals := r.VarPointsTo(localVar(t, r, "A", "onCreate()", "parent")).Slice()
	if len(pVals) != 1 || pVals[0] != box {
		t.Errorf("pts(parent) = %v, want the FrameLayout", valueNames(pVals))
	}
	// SetId applied through the parent lands on the FrameLayout.
	ids := r.Graph.ViewIDValues(box).Slice()
	found := false
	for _, id := range ids {
		if id.(*graph.ViewIDNode).Name == "probe" {
			found = true
		}
	}
	if !found {
		t.Errorf("ids(box) = %v", ids)
	}
}

func TestFindParentAfterAddView(t *testing.T) {
	src := `
class A extends Activity {
	void onCreate() {
		LinearLayout root = new LinearLayout();
		Button b = new Button();
		root.addView(b);
		ViewGroup p = b.getParent();
	}
}`
	r := analyzeSrc(t, src, nil, Options{})
	pVals := r.VarPointsTo(localVar(t, r, "A", "onCreate()", "p")).Slice()
	if len(pVals) != 1 {
		t.Fatalf("pts(p) = %v", valueNames(pVals))
	}
}

func TestFindParentOfRootIsEmpty(t *testing.T) {
	src := `
class A extends Activity {
	void onCreate() {
		LinearLayout root = new LinearLayout();
		ViewGroup p = root.getParent();
	}
}`
	r := analyzeSrc(t, src, nil, Options{})
	if pVals := r.VarPointsTo(localVar(t, r, "A", "onCreate()", "p")).Slice(); len(pVals) != 0 {
		t.Errorf("pts(p) = %v, want empty", valueNames(pVals))
	}
}
