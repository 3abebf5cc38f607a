package checks

import (
	"sort"
	"strings"
	"testing"

	"gator/internal/alite"
	"gator/internal/core"
	"gator/internal/graph"
	"gator/internal/ir"
	"gator/internal/layout"
)

func analyzeOpts(t *testing.T, src string, layouts map[string]string, opts core.Options) *core.Result {
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
	return core.Analyze(p, opts)
}

func methodOf(t *testing.T, res *core.Result, qualified string) *ir.Method {
	t.Helper()
	for _, cl := range res.Prog.AppClasses() {
		for _, m := range cl.MethodsSorted() {
			if m.QualifiedName() == qualified {
				return m
			}
		}
	}
	t.Fatalf("method %s not found", qualified)
	return nil
}

func viewIDsOf(res *core.Result, vals []graph.Value) []string {
	var out []string
	for _, v := range vals {
		ids := res.Graph.Succ(graph.RelViewID, v)
		for k := range ids.Len() {
			out = append(out, ids.At(k).(*graph.ViewIDNode).Name)
		}
	}
	sort.Strings(out)
	return out
}

// TestFlowsToAtReassigned: a reassigned view variable merges both lookups
// flow-insensitively; FlowsToAt splits them per program point.
func TestFlowsToAtReassigned(t *testing.T) {
	src := `
class H implements OnClickListener {
	void onClick(View v) { }
}
class A extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		View b = this.findViewById(R.id.one);
		H h1 = new H();
		b.setOnClickListener(h1);
		b = this.findViewById(R.id.two);
		H h2 = new H();
		b.setOnClickListener(h2);
	}
}`
	layouts := map[string]string{
		"main": `<LinearLayout><Button android:id="@+id/one"/><Button android:id="@+id/two"/></LinearLayout>`,
	}
	res := analyzeOpts(t, src, layouts, core.Options{})
	ctx := NewContext(res)
	m := methodOf(t, res, "A.onCreate")

	var regs []*ir.Invoke
	var b *ir.Var
	ir.WalkStmts(m.Body, func(s ir.Stmt) {
		if inv, ok := s.(*ir.Invoke); ok && strings.HasPrefix(inv.Key, "setOnClickListener") {
			regs = append(regs, inv)
			b = inv.Recv
		}
	})
	if len(regs) != 2 || b == nil {
		t.Fatalf("found %d registration sites", len(regs))
	}

	merged := viewIDsOf(res, res.VarPointsTo(b).Slice())
	if got := strings.Join(merged, ","); got != "one,two" {
		t.Fatalf("flow-insensitive solution = %v, want both views", merged)
	}
	at1 := viewIDsOf(res, ctx.FlowsToAt(m, regs[0], b).Slice())
	at2 := viewIDsOf(res, ctx.FlowsToAt(m, regs[1], b).Slice())
	if strings.Join(at1, ",") != "one" || strings.Join(at2, ",") != "two" {
		t.Errorf("point-specific flowsTo = %v / %v, want [one] / [two]", at1, at2)
	}
}

// TestListenerResetReassignedNotFlagged: the two registrations target
// different views through one reused variable. The whole-method receiver
// solutions overlap, but the program-point sets do not — no finding.
func TestListenerResetReassignedNotFlagged(t *testing.T) {
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
		View b = this.findViewById(R.id.one);
		H1 h1 = new H1();
		b.setOnClickListener(h1);
		b = this.findViewById(R.id.two);
		H2 h2 = new H2();
		b.setOnClickListener(h2);
	}
}`
	layouts := map[string]string{
		"main": `<LinearLayout><Button android:id="@+id/one"/><Button android:id="@+id/two"/></LinearLayout>`,
	}
	if fs := findingsOf(Run(analyzeOpts(t, src, layouts, core.Options{})), "listener-reset"); len(fs) != 0 {
		t.Errorf("reassigned variable flagged: %v", fs)
	}
}

// TestFlowsToAtParamEntryValue: a parameter redefined on only one path may
// still hold its caller-supplied value at the merge. FlowsToAt must keep
// the entry contribution — falling back to the flow-insensitive solution —
// rather than narrow to the explicit definitions.
func TestFlowsToAtParamEntryValue(t *testing.T) {
	src := `
class H implements OnClickListener {
	void onClick(View v) { }
}
class A extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		View a = this.findViewById(R.id.one);
		this.reg(a);
	}
	void reg(View p) {
		if (*) {
			p = this.findViewById(R.id.two);
		}
		H h = new H();
		p.setOnClickListener(h);
	}
}`
	layouts := map[string]string{
		"main": `<LinearLayout><Button android:id="@+id/one"/><Button android:id="@+id/two"/></LinearLayout>`,
	}
	res := analyzeOpts(t, src, layouts, core.Options{})
	ctx := NewContext(res)
	m := methodOf(t, res, "A.reg")
	var reg *ir.Invoke
	ir.WalkStmts(m.Body, func(s ir.Stmt) {
		if inv, ok := s.(*ir.Invoke); ok && strings.HasPrefix(inv.Key, "setOnClickListener") {
			reg = inv
		}
	})
	if reg == nil {
		t.Fatal("registration site not found")
	}
	merged := viewIDsOf(res, res.VarPointsTo(reg.Recv).Slice())
	if got := strings.Join(merged, ","); got != "one,two" {
		t.Fatalf("flow-insensitive solution = %v, want both views", merged)
	}
	at := viewIDsOf(res, ctx.FlowsToAt(m, reg, reg.Recv).Slice())
	if got := strings.Join(at, ","); got != "one,two" {
		t.Errorf("point-specific flowsTo = %v, want both views (the entry value may reach)", at)
	}
}

// TestListenerResetParamEntryValueFlagged: on the path where the parameter
// keeps its caller-supplied view, the second registration replaces the
// first one's handler on that same view. Narrowing the registration-site
// receiver to the parameter's explicit definition alone would hide the
// defect.
func TestListenerResetParamEntryValueFlagged(t *testing.T) {
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
		View a = this.findViewById(R.id.one);
		this.reg(a);
	}
	void reg(View p) {
		View q = this.findViewById(R.id.one);
		H1 h1 = new H1();
		q.setOnClickListener(h1);
		if (*) {
			p = this.findViewById(R.id.two);
		}
		H2 h2 = new H2();
		p.setOnClickListener(h2);
	}
}`
	layouts := map[string]string{
		"main": `<LinearLayout><Button android:id="@+id/one"/><Button android:id="@+id/two"/></LinearLayout>`,
	}
	if fs := findingsOf(Run(analyzeOpts(t, src, layouts, core.Options{})), "listener-reset"); len(fs) != 1 {
		t.Errorf("parameter-entry replacement findings = %v, want exactly one", fs)
	}
}

// helperSrc: A1 asks its shared find-view helper for an id that exists only
// in A2's layout. The merged insensitive solution keeps A1's result alive
// through A2's hierarchy; the context-sensitive split proves it empty, and
// the empty-helper-call seed turns that into a null-view-deref at the use.
const helperSrc = `
class BaseAct extends Activity {
	View find(int id) {
		View v = this.findViewById(id);
		return v;
	}
}
class A1 extends BaseAct {
	void onCreate() {
		this.setContentView(R.layout.l1);
		View w = this.find(R.id.two);
		w.setId(R.id.one);
	}
}
class A2 extends BaseAct {
	void onCreate() {
		this.setContentView(R.layout.l2);
		View w = this.find(R.id.two);
		w.setId(R.id.two);
	}
}`

var helperLayouts = map[string]string{
	"l1": `<LinearLayout><Button android:id="@+id/one"/></LinearLayout>`,
	"l2": `<LinearLayout><Button android:id="@+id/two"/></LinearLayout>`,
}

// TestNullViewDerefHelperNeedsCtx is the precision-frontier regression:
// the same defect is invisible to the insensitive analysis and reported
// under 1-CFA, at the dereference.
func TestNullViewDerefHelperNeedsCtx(t *testing.T) {
	if fs := findingsOf(Run(analyzeOpts(t, helperSrc, helperLayouts, core.Options{})), "null-view-deref"); len(fs) != 0 {
		t.Fatalf("insensitive analysis flagged the helper call: %v", fs)
	}
	res := analyzeOpts(t, helperSrc, helperLayouts, core.Options{ContextSensitivity: core.Ctx1CFA})
	fs := findingsOf(Run(res), "null-view-deref")
	if len(fs) != 1 {
		t.Fatalf("findings = %v", fs)
	}
	f := fs[0]
	if !strings.Contains(f.Msg, "find at") || !strings.Contains(f.Msg, "can never return a view") {
		t.Errorf("msg = %q", f.Msg)
	}
	// At A1's dereference (w.setId), not the call or the helper body.
	if f.Pos.Line != 12 {
		t.Errorf("pos = %v, want A1's dereference line", f.Pos)
	}
}

// helperOpaqueSrc: the shared helper performs a find-view operation, but
// what it returns flows through an unmodeled platform call. Its empty
// solved result proves nothing — at runtime the call may hand back a real
// view — so no mode may seed null on it.
const helperOpaqueSrc = `
class BaseAct extends Activity {
	View find(int id) {
		View v = this.findViewById(id);
		View w = this.decorate(v);
		return w;
	}
}
class A1 extends BaseAct {
	void onCreate() {
		this.setContentView(R.layout.l1);
		View w = this.find(R.id.one);
		w.setId(R.id.two);
	}
}`

func TestNullViewDerefHelperOpaqueReturnNotFlagged(t *testing.T) {
	layouts := map[string]string{
		"l1": `<LinearLayout><Button android:id="@+id/one"/></LinearLayout>`,
	}
	for _, mode := range []core.CtxMode{core.CtxOff, core.Ctx1CFA} {
		res := analyzeOpts(t, helperOpaqueSrc, layouts, core.Options{ContextSensitivity: mode})
		if fs := findingsOf(Run(res), "null-view-deref"); len(fs) != 0 {
			t.Errorf("%s: opaque-return helper flagged: %v", mode, fs)
		}
	}
}
