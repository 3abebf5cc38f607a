package gator

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gator/internal/corpus"
	"gator/internal/flagdoc"
)

func figure1App(t *testing.T) *App {
	t.Helper()
	app, err := Load(
		map[string]string{"connectbot.alite": corpus.Figure1Source},
		map[string]string{
			"act_console":   corpus.Figure1ActConsoleXML,
			"item_terminal": corpus.Figure1ItemTerminalXML,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	app.Name = "ConnectBot-Fig1"
	return app
}

func TestLoadAndAnalyzeFigure1(t *testing.T) {
	res := figure1App(t).Analyze(Options{})
	if res.Iterations() < 2 {
		t.Errorf("iterations = %d", res.Iterations())
	}
	views := res.Views()
	if len(views) != 7 {
		t.Fatalf("views = %d, want 7 (6 inflated + 1 allocated)", len(views))
	}
	byOrigin := map[string]View{}
	for _, v := range views {
		byOrigin[v.Origin] = v
	}
	flip, ok := byOrigin["layout:act_console:1"]
	if !ok || flip.Class != "ViewFlipper" || flip.ID != "console_flip" {
		t.Errorf("flipper view = %+v", flip)
	}
}

func TestVarViews(t *testing.T) {
	res := figure1App(t).Analyze(Options{})
	views, err := res.VarViews("ConsoleActivity", "onCreate", "g")
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0].Class != "ImageView" {
		t.Errorf("VarViews(g) = %+v", views)
	}
	if _, err := res.VarViews("Nope", "m", "x"); err == nil {
		t.Error("want error for unknown class")
	}
	if _, err := res.VarViews("ConsoleActivity", "onCreate", "zzz"); err == nil {
		t.Error("want error for unknown var")
	}
}

func TestEventTuples(t *testing.T) {
	res := figure1App(t).Analyze(Options{})
	tuples := res.EventTuples()
	if len(tuples) == 0 {
		t.Fatal("no event tuples")
	}
	found := false
	for _, tu := range tuples {
		if tu.Activity == "ConsoleActivity" && tu.Event == "click" &&
			tu.Handler == "EscapeButtonListener.onClick" && tu.View.Class == "ImageView" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing ESC-button tuple; got %+v", tuples)
	}
}

func TestActivitiesAndHierarchy(t *testing.T) {
	res := figure1App(t).Analyze(Options{})
	acts := res.Activities()
	if len(acts) != 1 || acts[0].Activity != "ConsoleActivity" || len(acts[0].Roots) != 1 {
		t.Fatalf("activities = %+v", acts)
	}
	edges := res.Hierarchy()
	if len(edges) < 6 {
		t.Errorf("hierarchy edges = %d, want >= 6", len(edges))
	}
}

func TestExploreSoundness(t *testing.T) {
	app, err := Load(
		map[string]string{"cb.alite": corpus.Figure1Source + figure1ClosedExtra(t)},
		map[string]string{
			"act_console":   corpus.Figure1ActConsoleXML,
			"item_terminal": corpus.Figure1ItemTerminalXML,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	res := app.Analyze(Options{})
	rep := res.Explore(7)
	if !rep.Sound {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.ObservedSites == 0 || rep.Steps == 0 {
		t.Errorf("report = %+v", rep)
	}
}

// figure1ClosedExtra returns just the companion listener of the closed
// variant (without the onCreate modification, the interpreter still covers
// most sites).
func figure1ClosedExtra(t *testing.T) string {
	return `
class OpenTerminalListener2 implements OnClickListener {
	ConsoleActivity owner;
	OpenTerminalListener2(ConsoleActivity a) { this.owner = a; }
	void onClick(View w) {
		ConsoleActivity a = this.owner;
		TerminalBridge bridge = new TerminalBridge();
		a.addNewTerminalView(bridge);
	}
}`
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "app.alite"), []byte(corpus.Figure1Source), 0o644); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, "layout")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "act_console.xml"), []byte(corpus.Figure1ActConsoleXML), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "item_terminal.xml"), []byte(corpus.Figure1ItemTerminalXML), 0o644); err != nil {
		t.Fatal(err)
	}
	app, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := app.Analyze(Options{})
	row := res.Table1()
	if row.LayoutIDs != 2 || row.ViewIDs != 4 {
		t.Errorf("table1 = %+v", row)
	}

	if _, err := LoadDir(filepath.Join(dir, "nonexistent")); err == nil {
		t.Error("want error for missing dir")
	}
	empty := t.TempDir()
	if _, err := LoadDir(empty); err == nil {
		t.Error("want error for empty dir")
	}
}

// TestNotepadEndToEnd drives the checked-in demo application through the
// whole public API: load from disk, analyze, query every report, check,
// and validate against the dynamic oracle.
func TestNotepadEndToEnd(t *testing.T) {
	app, err := LoadDir("testdata/notepad")
	if err != nil {
		t.Fatal(err)
	}
	res := app.Analyze(Options{})

	t1 := res.Table1()
	if t1.Classes != 5 || t1.LayoutIDs != 3 {
		t.Errorf("table1 = %+v", t1)
	}

	// Both activities have content; the list holds adapter rows.
	acts := res.Activities()
	if len(acts) != 2 {
		t.Fatalf("activities = %+v", acts)
	}

	// Transitions: list -> editor from both the listener and the
	// declarative shortcut.
	trs := res.Transitions()
	if len(trs) == 0 {
		t.Fatal("no transitions")
	}
	for _, tr := range trs {
		if tr.Source != "NoteListActivity" || tr.Target != "EditNoteActivity" {
			t.Errorf("transition = %+v", tr)
		}
	}

	// Menu model.
	menus := res.MenuEntries()
	if len(menus) != 2 {
		t.Errorf("menus = %+v", menus)
	}

	// Event tuples include the declarative shortcut.
	foundShortcut := false
	for _, tu := range res.EventTuples() {
		if tu.Handler == "NoteListActivity.openEditor" {
			foundShortcut = true
		}
	}
	if !foundShortcut {
		t.Error("declarative onClick tuple missing")
	}

	// The checkers find nothing alarming.
	for _, f := range res.Check() {
		if f.Severity == "warning" {
			t.Errorf("unexpected warning: %+v", f)
		}
	}

	// Dynamic validation.
	for seed := int64(1); seed <= 3; seed++ {
		rep := res.Explore(seed)
		if !rep.Sound {
			t.Fatalf("seed %d violations: %v", seed, rep.Violations)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(map[string]string{"x.alite": "class {"}, nil); err == nil {
		t.Error("want parse error")
	}
	if _, err := Load(map[string]string{"x.alite": "class A extends Zorp { }"}, nil); err == nil {
		t.Error("want resolve error")
	}
	if _, err := Load(map[string]string{"x.alite": "class A { }"},
		map[string]string{"bad": "<"}); err == nil {
		t.Error("want layout parse error")
	}
}

func TestTransitionsAPI(t *testing.T) {
	src := `
class Second extends Activity { void onCreate() { } }
class First extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
	}
	void next(View v) {
		Intent i = new Intent(Second.class);
		this.startActivity(i);
	}
}`
	app, err := Load(map[string]string{"a.alite": src},
		map[string]string{"main": `<LinearLayout><Button android:onClick="next"/></LinearLayout>`})
	if err != nil {
		t.Fatal(err)
	}
	res := app.Analyze(Options{})
	trs := res.Transitions()
	if len(trs) != 1 {
		t.Fatalf("transitions = %+v", trs)
	}
	if trs[0].Source != "First" || trs[0].Target != "Second" || trs[0].Via != "First.next" {
		t.Errorf("transition = %+v", trs[0])
	}
	rep := res.Explore(2)
	if !rep.Sound {
		t.Errorf("violations: %v", rep.Violations)
	}
}

func TestCheckAPI(t *testing.T) {
	src := `
class A extends Activity {
	void onCreate() {
		View v = this.findViewById(R.id.x);
	}
}`
	app, err := Load(map[string]string{"a.alite": src},
		map[string]string{"main": `<LinearLayout><Button android:id="@+id/x"/></LinearLayout>`})
	if err != nil {
		t.Fatal(err)
	}
	findings := app.Analyze(Options{}).Check()
	hasMissing := false
	for _, f := range findings {
		if f.Check == "missing-content-view" && f.Severity == "warning" {
			hasMissing = true
			if f.Pos == "" {
				t.Error("finding has no position")
			}
		}
	}
	if !hasMissing {
		t.Errorf("missing-content-view not reported: %+v", findings)
	}

	// The Figure 1 closed app is warning-free through the API too.
	clean := figure1App(t).Analyze(Options{})
	for _, f := range clean.Check() {
		if f.Severity == "warning" && f.Check != "unfired-handler" {
			t.Errorf("unexpected warning on Figure 1: %+v", f)
		}
	}
}

func TestExplainOrderingAPI(t *testing.T) {
	res := figure1App(t).Analyze(Options{})
	tree, err := res.ExplainOrdering("ConsoleActivity", "onPause", "onResume")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tree, "[Lifestate]") || !strings.Contains(tree, "onResume") ||
		!strings.Contains(tree, "[Rule]") {
		t.Errorf("ordering justification missing derivation structure:\n%s", tree)
	}
	tree, err = res.ExplainOrdering("ConsoleActivity", "onDestroy", "onResume")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tree, "= false") || !strings.Contains(tree, "absorbing") {
		t.Errorf("impossible ordering should render a refutation:\n%s", tree)
	}
	if _, err := res.ExplainOrdering("Nope", "onPause", "onResume"); err == nil {
		t.Error("want error for a non-component class")
	}
	if _, err := res.ExplainOrdering("ConsoleActivity", "onPause", "onFrobnicate"); err == nil {
		t.Error("want error for an unknown callback")
	}
}

func TestMenuEntriesAPI(t *testing.T) {
	src := `
class A extends Activity {
	void onCreate() { }
	void onCreateOptionsMenu(Menu menu) {
		MenuItem a = menu.add(R.id.save);
		MenuItem b = menu.add(R.id.quit);
	}
	void onOptionsItemSelected(MenuItem item) { }
}`
	app, err := Load(map[string]string{"a.alite": src}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := app.Analyze(Options{})
	entries := res.MenuEntries()
	if len(entries) != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].Activity != "A" || entries[0].Handler != "A.onOptionsItemSelected" {
		t.Errorf("entry = %+v", entries[0])
	}
	ids := map[string]bool{entries[0].ItemID: true, entries[1].ItemID: true}
	if !ids["save"] || !ids["quit"] {
		t.Errorf("ids = %v", ids)
	}
	rep := res.Explore(1)
	if !rep.Sound {
		t.Errorf("violations: %v", rep.Violations)
	}
}

func TestDotAndDumpIR(t *testing.T) {
	res := figure1App(t).Analyze(Options{})
	dot := res.Dot()
	if !strings.HasPrefix(dot, "digraph gator {") {
		t.Errorf("Dot output malformed: %.60q", dot)
	}
	irDump := res.DumpIR()
	for _, want := range []string{"class ConsoleActivity", "class EscapeButtonListener", ":= new TerminalView"} {
		if !strings.Contains(irDump, want) {
			t.Errorf("DumpIR missing %q", want)
		}
	}
}

func TestTable2Metrics(t *testing.T) {
	res := figure1App(t).Analyze(Options{})
	row := res.Table2()
	if row.AvgReceivers < 1.0 {
		t.Errorf("receivers = %v", row.AvgReceivers)
	}
	if !row.HasAddView {
		t.Error("Figure 1 has AddView ops")
	}
	if row.AvgListeners != 1.0 {
		t.Errorf("listeners = %v, want 1.0", row.AvgListeners)
	}
}

func TestLoadDirUppercaseExtensions(t *testing.T) {
	dir := t.TempDir()
	src := `
class A extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		View v = this.findViewById(R.id.x);
	}
}`
	if err := os.WriteFile(filepath.Join(dir, "app.alite"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// Uppercase layout extension must still load as layout "main".
	xml := `<LinearLayout><Button android:id="@+id/x"/></LinearLayout>`
	if err := os.WriteFile(filepath.Join(dir, "main.XML"), []byte(xml), 0o644); err != nil {
		t.Fatal(err)
	}
	app, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := app.Analyze(Options{})
	for _, f := range res.Check() {
		if f.Check == "missing-content-view" || f.Check == "dangling-findview" {
			t.Errorf("main.XML was not loaded as a layout: %+v", f)
		}
	}
}

func TestLoadDirSurfacesReadErrors(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "app.alite"), []byte("class A { }"), 0o644); err != nil {
		t.Fatal(err)
	}
	// layout as a *file* makes the subdirectory read fail with something
	// other than fs.ErrNotExist; the error must surface and name the path.
	if err := os.WriteFile(filepath.Join(dir, "layout"), []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDir(dir)
	if err == nil {
		t.Fatal("want error for unreadable layout entry")
	}
	if !strings.Contains(err.Error(), filepath.Join(dir, "layout")) {
		t.Errorf("error does not name the offending path: %v", err)
	}
}

func TestCheckDeterministicTiebreak(t *testing.T) {
	// Both dangling-findview and missing-content-view report at the same
	// findViewById position: the (Pos, Check, Msg) order must break the tie
	// by check name, identically on every run.
	src := `
class A extends Activity {
	void onCreate() {
		View v = this.findViewById(R.id.x);
	}
}`
	app, err := Load(map[string]string{"a.alite": src},
		map[string]string{"main": `<LinearLayout><Button android:id="@+id/x"/></LinearLayout>`})
	if err != nil {
		t.Fatal(err)
	}
	var first []CheckFinding
	for i := 0; i < 25; i++ {
		fs := app.Analyze(Options{}).Check()
		if i == 0 {
			first = fs
			samePos := 0
			for j := 1; j < len(fs); j++ {
				if fs[j].Pos == fs[j-1].Pos && fs[j].Pos != "" {
					samePos++
					if fs[j-1].Check > fs[j].Check {
						t.Errorf("tie not broken by check name: %s before %s", fs[j-1].Check, fs[j].Check)
					}
				}
			}
			if samePos == 0 {
				t.Error("test app no longer produces findings at one position")
			}
			continue
		}
		if len(fs) != len(first) {
			t.Fatalf("run %d: %d findings, first run had %d", i, len(fs), len(first))
		}
		for j := range fs {
			if fs[j] != first[j] {
				t.Fatalf("run %d: finding %d = %+v, first run had %+v", i, j, fs[j], first[j])
			}
		}
	}
}

func TestCheckReportAPI(t *testing.T) {
	src := `
class Main extends Activity {
	void onCreate() {
		View early = this.findViewById(R.id.root);
		this.setContentView(R.layout.main);
		View gone = this.findViewById(R.id.gone);
		gone.setId(R.id.root);
	}
}`
	app, err := Load(map[string]string{"app.alite": src}, map[string]string{
		"main":  `<LinearLayout android:id="@+id/root"/>`,
		"other": `<LinearLayout android:id="@+id/gone"/>`,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := app.Analyze(Options{})

	rep, err := res.CheckReport()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"findview-before-setcontentview": false, "null-view-deref": false}
	for _, f := range rep.Findings {
		if _, ok := want[f.Check]; ok {
			want[f.Check] = true
			if f.Pos == "" || f.SuggestedFix == "" {
				t.Errorf("finding incomplete: %+v", f)
			}
		}
	}
	for id, seen := range want {
		if !seen {
			t.Errorf("missing %s in %+v", id, rep.Findings)
		}
	}
	if rep.Warnings() == 0 || len(rep.Passes) == 0 {
		t.Errorf("warnings = %d, passes = %d", rep.Warnings(), len(rep.Passes))
	}
	if out := rep.PassTimings(); !strings.Contains(out, "null-view-deref") {
		t.Errorf("pass timings = %q", out)
	}

	sarif, err := rep.SARIF()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"version": "2.1.0"`, `"ruleId"`, `"startLine"`, `"gator"`} {
		if !strings.Contains(string(sarif), frag) {
			t.Errorf("SARIF misses %s", frag)
		}
	}

	// Selection narrows the run; unknown names fail loudly.
	only, err := res.CheckReport("null-view-deref")
	if err != nil {
		t.Fatal(err)
	}
	if len(only.Passes) != 1 {
		t.Errorf("passes = %+v", only.Passes)
	}
	if _, err := res.CheckReport("bogus"); err == nil {
		t.Error("unknown check accepted")
	}
}

func TestCheckSuppressionAPI(t *testing.T) {
	src := `
class Main extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		View gone = this.findViewById(R.id.gone);
		gone.setId(R.id.root); // gator:disable null-view-deref
	}
}`
	app, err := Load(map[string]string{"app.alite": src}, map[string]string{
		"main":  `<LinearLayout android:id="@+id/root"/>`,
		"other": `<LinearLayout android:id="@+id/gone"/>`,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := app.Analyze(Options{}).CheckReport("null-view-deref")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 || rep.Suppressed != 1 {
		t.Errorf("findings = %+v, suppressed = %d", rep.Findings, rep.Suppressed)
	}
}

func TestListChecksAndTable(t *testing.T) {
	list := ListChecks()
	table := CheckTable()
	for _, id := range []string{"dangling-findview", "null-view-deref", "listener-reset", "findview-before-setcontentview"} {
		if !strings.Contains(list, id) {
			t.Errorf("ListChecks misses %s", id)
		}
		if !strings.Contains(table, "`"+id+"`") {
			t.Errorf("CheckTable misses %s", id)
		}
	}
}

// TestReadmeCheckerTable pins the README's generated checker table to the
// live registry: edit the pass Docs, regenerate the block between the
// markers with CheckTable(), or this fails.
func TestReadmeCheckerTable(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	begin, end := "<!-- checks:begin -->\n", "<!-- checks:end -->"
	i := strings.Index(s, begin)
	j := strings.Index(s, end)
	if i < 0 || j < 0 || j < i {
		t.Fatal("README.md checker-table markers missing")
	}
	got := s[i+len(begin) : j]
	if want := CheckTable(); got != want {
		t.Errorf("README checker table is stale; regenerate from CheckTable().\n--- README ---\n%s--- registry ---\n%s", got, want)
	}
}

// TestLoadLayoutErrorDeterministic: with two bad layouts, Load reports the
// first by name every time; map order used to pick either.
func TestLoadLayoutErrorDeterministic(t *testing.T) {
	sources := map[string]string{"x.alite": "class A { }"}
	layouts := map[string]string{"alpha": `<A android:id="bad"/>`, "beta": `<B`}
	for i := 0; i < 20; i++ {
		_, err := Load(sources, layouts)
		if err == nil || !strings.HasPrefix(err.Error(), "layout alpha: ") {
			t.Fatalf("load %d: error %v, want alpha's", i, err)
		}
	}
}

// TestLoadDirDeterministicOrder: LoadDir pins the combined file order of the
// app directory and its layout/ subdirectory by sorting full paths, so the
// duplicate-name overwrite order (and with it the whole analysis, whose node
// numbering follows load order) cannot depend on filesystem enumeration.
// "layout/main.xml" sorts before "main.xml", so the root-directory file wins
// a basename collision.
func TestLoadDirDeterministicOrder(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "app.alite"),
		[]byte("class A extends Activity {\n\tvoid onCreate() {\n\t\tthis.setContentView(R.layout.main);\n\t}\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, "layout")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	// The same layout name in both places, with different view ids.
	if err := os.WriteFile(filepath.Join(sub, "main.xml"),
		[]byte(`<LinearLayout android:id="@+id/from_subdir"/>`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "main.xml"),
		[]byte(`<LinearLayout android:id="@+id/from_root"/>`), 0o644); err != nil {
		t.Fatal(err)
	}

	var first []byte
	for i := 0; i < 3; i++ {
		app, err := LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		res := app.Analyze(Options{})
		m := res.Model()
		m.Elapsed = ""
		data, err := m.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = data
			if !strings.Contains(string(data), "from_root") || strings.Contains(string(data), "from_subdir") {
				t.Errorf("root-directory layout should win the collision:\n%s", data)
			}
			continue
		}
		if !bytes.Equal(data, first) {
			t.Errorf("LoadDir order drifted between runs:\nrun 0:\n%s\nrun %d:\n%s", first, i, data)
		}
	}
}

// TestOptionsMatchREADME: Options' fields are exactly the rows of README's
// gator.Options table, each of which names what justifies the field.
func TestOptionsMatchREADME(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	want, err := flagdoc.Table(readme, "gator.Options")
	if err != nil {
		t.Fatal(err)
	}
	if got := flagdoc.Fields(reflect.TypeOf(Options{})); !slices.Equal(got, want) {
		t.Errorf("Options fields %v, README table %v", got, want)
	}
}
