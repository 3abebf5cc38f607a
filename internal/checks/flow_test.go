package checks

import (
	"strings"
	"testing"
)

func TestFindViewBeforeSetContentView(t *testing.T) {
	src := `
class Early extends Activity {
	void onCreate() {
		View v = this.findViewById(R.id.root);
		this.setContentView(R.layout.main);
	}
}
class Fine extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		View v = this.findViewById(R.id.root);
	}
}`
	layouts := map[string]string{"main": `<LinearLayout android:id="@+id/root"/>`}
	fs := findingsOf(Run(analyze(t, src, layouts)), "findview-before-setcontentview")
	if len(fs) != 1 {
		t.Fatalf("findings = %v", fs)
	}
	if !strings.Contains(fs[0].Msg, "R.id.root") || !fs[0].Pos.IsValid() {
		t.Errorf("finding = %v", fs[0])
	}
	if fs[0].Pos.Line != 4 {
		t.Errorf("pos = %v, want the early findViewById line", fs[0].Pos)
	}
	if fs[0].SuggestedFix == "" {
		t.Error("missing suggested fix")
	}
}

func TestFindViewBeforeSetContentViewBranch(t *testing.T) {
	// Content is set on only one branch: the lookup after the join is still
	// unsafe on the other path.
	src := `
class Branchy extends Activity {
	void onCreate() {
		if (*) {
			this.setContentView(R.layout.main);
		}
		View v = this.findViewById(R.id.root);
	}
}`
	layouts := map[string]string{"main": `<LinearLayout android:id="@+id/root"/>`}
	fs := findingsOf(Run(analyze(t, src, layouts)), "findview-before-setcontentview")
	if len(fs) != 1 {
		t.Fatalf("findings = %v", fs)
	}

	// Both branches set it: safe.
	safe := `
class BothWays extends Activity {
	void onCreate() {
		if (*) {
			this.setContentView(R.layout.main);
		} else {
			this.setContentView(R.layout.main);
		}
		View v = this.findViewById(R.id.root);
	}
}`
	if fs := findingsOf(Run(analyze(t, safe, layouts)), "findview-before-setcontentview"); len(fs) != 0 {
		t.Errorf("both-branches case flagged: %v", fs)
	}
}

func TestFindViewInHelperNotFlagged(t *testing.T) {
	// The helper only reads; ordering across methods is out of scope, so no
	// finding may appear for it.
	src := `
class Helper extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		this.bind();
	}
	void bind() {
		View v = this.findViewById(R.id.root);
	}
}`
	layouts := map[string]string{"main": `<LinearLayout android:id="@+id/root"/>`}
	if fs := findingsOf(Run(analyze(t, src, layouts)), "findview-before-setcontentview"); len(fs) != 0 {
		t.Errorf("helper method flagged: %v", fs)
	}
}

func TestNullViewDeref(t *testing.T) {
	src := `
class A extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		View gone = this.findViewById(R.id.gone);
		gone.setId(R.id.root);
		View ok = this.findViewById(R.id.root);
		ok.setId(R.id.root);
	}
}`
	layouts := map[string]string{
		"main":  `<LinearLayout android:id="@+id/root"/>`,
		"other": `<LinearLayout android:id="@+id/gone"/>`,
	}
	fs := findingsOf(Run(analyze(t, src, layouts)), "null-view-deref")
	if len(fs) != 1 {
		t.Fatalf("findings = %v", fs)
	}
	f := fs[0]
	if !strings.Contains(f.Msg, "gone") || !strings.Contains(f.Msg, "NullPointerException") {
		t.Errorf("msg = %q", f.Msg)
	}
	// The diagnostic is at the dereference, not the findViewById call.
	if f.Pos.Line != 6 {
		t.Errorf("pos = %v, want the dereference line", f.Pos)
	}
}

func TestNullViewDerefGuarded(t *testing.T) {
	// A null test dominates the dereference: no finding.
	src := `
class A extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		View gone = this.findViewById(R.id.gone);
		if (gone != null) {
			gone.setId(R.id.root);
		}
	}
}`
	layouts := map[string]string{
		"main":  `<LinearLayout android:id="@+id/root"/>`,
		"other": `<LinearLayout android:id="@+id/gone"/>`,
	}
	if fs := findingsOf(Run(analyze(t, src, layouts)), "null-view-deref"); len(fs) != 0 {
		t.Errorf("guarded deref flagged: %v", fs)
	}
}

func TestNullViewDerefConstNull(t *testing.T) {
	src := `
class A extends Activity {
	void onCreate() {
		Button b = null;
		b.setId(R.id.x);
	}
}`
	fs := findingsOf(Run(analyze(t, src, nil)), "null-view-deref")
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "null assigned") {
		t.Fatalf("findings = %v", fs)
	}
}

// TestNullViewDerefTestedNull: a null test is the method's only source of
// Null — the lookup succeeds and nothing assigns null — so the dereference
// inside the tested-null branch or loop body reports only if the method is
// solved at all.
func TestNullViewDerefTestedNull(t *testing.T) {
	for _, stmt := range []string{"if", "while"} {
		src := `
class A extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		View b = this.findViewById(R.id.go);
		` + stmt + ` (b == null) {
			b.setId(R.id.go);
		}
	}
}`
		layouts := map[string]string{"main": `<LinearLayout><Button android:id="@+id/go"/></LinearLayout>`}
		fs := findingsOf(Run(analyze(t, src, layouts)), "null-view-deref")
		if len(fs) != 1 || !strings.Contains(fs[0].Msg, "tested == null") || fs[0].Pos.Line != 7 {
			t.Errorf("%s: findings = %v, want one tested-null dereference on line 7", stmt, fs)
		}
	}
}

func TestListenerReset(t *testing.T) {
	src := `
class H1 implements OnClickListener {
	void onClick(View v) { }
}
class H2 implements OnClickListener {
	void onClick(View v) { }
}
class A extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		View b = this.findViewById(R.id.go);
		H1 h1 = new H1();
		b.setOnClickListener(h1);
		H2 h2 = new H2();
		b.setOnClickListener(h2);
	}
}`
	layouts := map[string]string{"main": `<LinearLayout><Button android:id="@+id/go"/></LinearLayout>`}
	fs := findingsOf(Run(analyze(t, src, layouts)), "listener-reset")
	if len(fs) != 1 {
		t.Fatalf("findings = %v", fs)
	}
	if !strings.Contains(fs[0].Msg, "replaces the click listener") {
		t.Errorf("msg = %q", fs[0].Msg)
	}
	if fs[0].Pos.Line != 15 {
		t.Errorf("pos = %v, want the second setOnClickListener", fs[0].Pos)
	}
}

func TestListenerResetBranchesNotFlagged(t *testing.T) {
	// The two registrations are on exclusive paths: neither replaces the
	// other.
	src := `
class H1 implements OnClickListener {
	void onClick(View v) { }
}
class H2 implements OnClickListener {
	void onClick(View v) { }
}
class A extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		View b = this.findViewById(R.id.go);
		if (*) {
			H1 h1 = new H1();
			b.setOnClickListener(h1);
		} else {
			H2 h2 = new H2();
			b.setOnClickListener(h2);
		}
	}
}`
	layouts := map[string]string{"main": `<LinearLayout><Button android:id="@+id/go"/></LinearLayout>`}
	if fs := findingsOf(Run(analyze(t, src, layouts)), "listener-reset"); len(fs) != 0 {
		t.Errorf("exclusive branches flagged: %v", fs)
	}
}

func TestListenerResetDistinctViewsNotFlagged(t *testing.T) {
	src := `
class H implements OnClickListener {
	void onClick(View v) { }
}
class A extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		View x = this.findViewById(R.id.one);
		View y = this.findViewById(R.id.two);
		H h1 = new H();
		x.setOnClickListener(h1);
		H h2 = new H();
		y.setOnClickListener(h2);
	}
}`
	layouts := map[string]string{
		"main": `<LinearLayout><Button android:id="@+id/one"/><Button android:id="@+id/two"/></LinearLayout>`,
	}
	if fs := findingsOf(Run(analyze(t, src, layouts)), "listener-reset"); len(fs) != 0 {
		t.Errorf("distinct views flagged: %v", fs)
	}
}

func TestFindingsSortedByPosition(t *testing.T) {
	src := `
class A extends Activity {
	void onCreate() {
		View v = this.findViewById(R.id.root);
		this.setContentView(R.layout.main);
		View gone = this.findViewById(R.id.gone);
		gone.setId(R.id.root);
	}
}`
	layouts := map[string]string{
		"main":  `<LinearLayout android:id="@+id/root"/>`,
		"other": `<LinearLayout android:id="@+id/gone"/>`,
	}
	fs := Run(analyze(t, src, layouts))
	for i := 1; i < len(fs); i++ {
		a, b := fs[i-1], fs[i]
		if a.Pos.File > b.Pos.File ||
			(a.Pos.File == b.Pos.File && a.Pos.Line > b.Pos.Line) {
			t.Errorf("findings out of position order: %v before %v", a, b)
		}
	}
}
