package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gator/internal/flagdoc"
	"gator/internal/report"
	"gator/internal/server"
)

// buildCLI compiles the command once per test binary.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gator")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func runCLI(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out)
	}
	return string(out), code
}

// runCLIStdout is runCLI with stdout alone, stderr dropped.
func runCLIStdout(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	var stdout bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &stdout
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return stdout.String(), code
}

// TestCLIRemoteMatchesLocal: the CLI builds one report request and one
// option set from its flags and hands the same pair to the local render
// and to gatord, so -remote prints the local bytes and exits alike, on its
// first request and on a cache replay — every report kind, check
// selections and explains included.
func TestCLIRemoteMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI exec test skipped in -short mode")
	}
	bin := buildCLI(t)
	srv, err := server.New(server.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Drain()
		ts.Close()
	})
	buggy := filepath.Join("..", "..", "examples", "buggyapp")
	notepad := filepath.Join("..", "..", "testdata", "notepad")

	type run struct {
		args []string
		dir  string
	}
	runs := []run{
		{[]string{"-report", "checks"}, buggy},
		{[]string{"-report", "sarif"}, buggy},
		{[]string{"-report", "checks", "-only", "unused-view-id"}, buggy},
		{[]string{"-report", "sarif", "-only", "dangling-findview"}, buggy},
		{[]string{"-explain", "order:Main.onDestroy.onResume"}, buggy},
		{[]string{"-explain", "Main.onCreate.btn"}, buggy},
	}
	// The notepad app prints something under every kind.
	for _, kind := range report.Kinds() {
		runs = append(runs, run{[]string{"-report", kind}, notepad})
	}
	for _, r := range runs {
		local, localCode := runCLIStdout(t, bin, append(r.args[:len(r.args):len(r.args)], r.dir)...)
		if local == "" {
			t.Errorf("%v: no local output", r.args)
		}
		for _, round := range []string{"first", "replayed"} {
			remote, remoteCode := runCLIStdout(t, bin, append(append([]string{"-remote", ts.URL}, r.args...), r.dir)...)
			if remote != local || remoteCode != localCode {
				t.Errorf("%v %s: %s -remote differs from local\n--- remote (exit %d) ---\n%s--- local (exit %d) ---\n%s",
					r.args, r.dir, round, remoteCode, remote, localCode, local)
			}
		}
	}
}

// TestFlagsMatchREADME: gator's flag set is exactly the rows of its README
// table, each of which names what justifies the flag.
func TestFlagsMatchREADME(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI exec test skipped in -short mode")
	}
	usage, code := runCLI(t, buildCLI(t), "-h")
	if code != 0 {
		t.Fatalf("-h: exit %d\n%s", code, usage)
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := flagdoc.Table(readme, "gator")
	if err != nil {
		t.Fatal(err)
	}
	if got := flagdoc.Usage([]byte(usage)); !slices.Equal(got, want) {
		t.Errorf("gator flags %v, README table %v", got, want)
	}
}

func TestCLIReports(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI exec test skipped in -short mode")
	}
	bin := buildCLI(t)
	appDir := filepath.Join("..", "..", "testdata", "notepad")

	cases := []struct {
		args []string
		want []string
		code int
	}{
		{[]string{appDir}, []string{"classes", "views:", "ops:"}, 0},
		{[]string{"-report", "views", appDir}, []string{"ListView", "layout:note_list"}, 0},
		{[]string{"-report", "tuples", appDir}, []string{"NoteListActivity", "click"}, 0},
		{[]string{"-report", "transitions", appDir}, []string{"NoteListActivity -> EditNoteActivity"}, 0},
		{[]string{"-report", "menus", appDir}, []string{"menu_clear", "onOptionsItemSelected"}, 0},
		{[]string{"-report", "check", appDir}, []string{"unused-view-id"}, 0},
		{[]string{"-report", "hierarchy", appDir}, []string{"=>"}, 0},
		{[]string{"-report", "activities", appDir}, []string{"EditNoteActivity:"}, 0},
		{[]string{"-report", "dot", appDir}, []string{"digraph gator"}, 0},
		{[]string{"-report", "ir", appDir}, []string{"class NoteListActivity", ":= new"}, 0},
		{[]string{"-report", "json", appDir}, []string{`"eventTuples"`}, 0},
		{[]string{"-report", "explore", appDir}, []string{"sound=true"}, 0},
		{[]string{"-explain", "SaveListener.onClick.body", appDir}, []string{"flowsTo(", "[Seed]"}, 0},
		{[]string{"-figure1"}, []string{"6 inflated"}, 0},
		{[]string{"-report", "bogus", appDir}, []string{"unknown report"}, 2},
		{[]string{"-ctx", "1obj", appDir}, []string{`unknown context mode "1obj" (known: off, 1cfa)`}, 2},
		{[]string{}, []string{"usage"}, 2},
		{[]string{"/nonexistent-dir-xyz"}, []string{"gator:"}, 1},
	}
	for _, c := range cases {
		out, code := runCLI(t, bin, c.args...)
		if code != c.code {
			t.Errorf("%v: exit %d, want %d\n%s", c.args, code, c.code, out)
		}
		for _, w := range c.want {
			if !strings.Contains(out, w) {
				t.Errorf("%v: output missing %q\n%s", c.args, w, out)
			}
		}
	}
}

// TestCLIBatch: several directories analyze as one batch; per-app sections
// come out in argument order, a bad directory fails its own app only, and
// -stats summarizes the pool.
func TestCLIBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI exec test skipped in -short mode")
	}
	bin := buildCLI(t)
	appDir := filepath.Join("..", "..", "testdata", "notepad")

	out, code := runCLI(t, bin, "-j", "2", "-stats", appDir, appDir)
	if code != 0 {
		t.Fatalf("batch exit %d\n%s", code, out)
	}
	if got := strings.Count(out, "== notepad =="); got != 2 {
		t.Errorf("want 2 app sections, got %d\n%s", got, out)
	}
	if !strings.Contains(out, "2 workers") {
		t.Errorf("missing -stats summary\n%s", out)
	}

	// One bad directory: its error is reported, the good app still prints,
	// and the exit code is 1.
	out, code = runCLI(t, bin, appDir, "/nonexistent-dir-xyz")
	if code != 1 {
		t.Errorf("mixed batch exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "5 classes") || !strings.Contains(out, "gator:") {
		t.Errorf("mixed batch output\n%s", out)
	}
}

// TestCLIExplainDeterministic: the acceptance contract of the provenance
// layer — `-explain` prints byte-identical derivation trees whether the
// batch runs on one worker or eight, and the buggy example's trees are the
// checked-in expected_explain.txt (which scripts/ci.sh diffs against too).
// Two copies of the app make the batch genuinely parallel under -j 8.
func TestCLIExplainDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI exec test skipped in -short mode")
	}
	bin := buildCLI(t)
	buggy := filepath.Join("..", "..", "examples", "buggyapp")

	for _, query := range []string{"Main.onCreate.btn", "id:go"} {
		out1, code1 := runCLI(t, bin, "-j", "1", "-explain", query, buggy, buggy)
		out8, code8 := runCLI(t, bin, "-j", "8", "-explain", query, buggy, buggy)
		if code1 != 0 || code8 != 0 {
			t.Fatalf("explain %q: exits %d/%d\n%s\n%s", query, code1, code8, out1, out8)
		}
		if out1 != out8 {
			t.Errorf("explain %q differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", query, out1, out8)
		}
	}

	// The tree names the paper's rule and bottoms out in seeds.
	out, code := runCLI(t, bin, "-explain", "Main.onCreate.btn", buggy)
	want, err := os.ReadFile(filepath.Join(buggy, "expected_explain.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || out != string(want) {
		t.Errorf("-explain Main.onCreate.btn (exit %d) differs from expected_explain.txt\n--- got ---\n%s--- want ---\n%s", code, out, want)
	}
	for _, w := range []string{"[FindView2]", "[Seed]", "rootView(", "ancestorOf(", "hasId("} {
		if !strings.Contains(out, w) {
			t.Errorf("-explain tree missing %q\n%s", w, out)
		}
	}
}

// TestCLITraceAndStatsJSON: -trace writes a loadable Chrome trace and
// -stats-json is byte-stable across runs (and excludes wall-clock fields).
func TestCLITraceAndStatsJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI exec test skipped in -short mode")
	}
	bin := buildCLI(t)
	appDir := filepath.Join("..", "..", "testdata", "notepad")

	traceFile := filepath.Join(t.TempDir(), "trace.json")
	out, code := runCLI(t, bin, "-trace", traceFile, appDir)
	if code != 0 {
		t.Fatalf("-trace exit %d\n%s", code, out)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{`"traceEvents"`, `notepad:parse`, `notepad:lower`, `notepad:build`, `notepad:solve`, `"ph": "B"`, `"ph": "C"`} {
		if !strings.Contains(string(data), w) {
			t.Errorf("trace file missing %s\n%s", w, data)
		}
	}

	stats1, code := runCLI(t, bin, "-stats-json", "-", "-report", "dot", appDir)
	if code != 0 {
		t.Fatalf("-stats-json exit %d\n%s", code, stats1)
	}
	stats2, _ := runCLI(t, bin, "-stats-json", "-", "-report", "dot", appDir)
	if stats1 != stats2 {
		t.Errorf("-stats-json is not byte-stable:\n--- run 1 ---\n%s--- run 2 ---\n%s", stats1, stats2)
	}
	for _, w := range []string{`"app": "notepad"`, `"iterations"`, `"status": "ok"`} {
		if !strings.Contains(stats1, w) {
			t.Errorf("-stats-json missing %s\n%s", w, stats1)
		}
	}
	if strings.Contains(stats1, "Wall") || strings.Contains(stats1, "wall") {
		t.Errorf("-stats-json leaks wall-clock fields\n%s", stats1)
	}
}

// TestCLIChecks: the diagnostics engine end-to-end — findings with
// positions, warning exit code, selection, SARIF output, and the registry
// listing.
func TestCLIChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI exec test skipped in -short mode")
	}
	bin := buildCLI(t)
	buggy := filepath.Join("..", "..", "examples", "buggyapp")
	notepad := filepath.Join("..", "..", "testdata", "notepad")

	out, code := runCLI(t, bin, "-checks", buggy)
	if code != 1 {
		t.Errorf("-checks on buggy app: exit %d, want 1\n%s", code, out)
	}
	for _, w := range []string{
		"app.alite:13:21: warning: [findview-before-setcontentview]",
		"app.alite:16:8: warning: [null-view-deref]",
		"app.alite:21:7: warning: [listener-reset]",
		"1 suppressed",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("-checks output missing %q\n%s", w, out)
		}
	}

	// A clean app (info findings only) exits 0.
	out, code = runCLI(t, bin, "-checks", notepad)
	if code != 0 {
		t.Errorf("-checks on notepad: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "0 warnings") {
		t.Errorf("-checks summary missing\n%s", out)
	}

	// -only restricts the run; unknown names exit 2.
	out, code = runCLI(t, bin, "-checks", "-only", "listener-reset", buggy)
	if code != 1 || strings.Contains(out, "null-view-deref") || !strings.Contains(out, "listener-reset") {
		t.Errorf("-only output (exit %d):\n%s", code, out)
	}
	if out, code = runCLI(t, bin, "-checks", "-only", "bogus", buggy); code != 2 || !strings.Contains(out, "bogus") {
		t.Errorf("unknown -only: exit %d\n%s", code, out)
	}

	// -sarif implies -checks and writes a SARIF 2.1.0 log.
	sarifFile := filepath.Join(t.TempDir(), "out.sarif")
	_, code = runCLI(t, bin, "-sarif", sarifFile, buggy)
	if code != 1 {
		t.Errorf("-sarif exit %d, want 1", code)
	}
	data, err := os.ReadFile(sarifFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{`"version": "2.1.0"`, `"ruleId": "null-view-deref"`, `"startLine": 16`, `"uri": "app.alite"`} {
		if !strings.Contains(string(data), w) {
			t.Errorf("SARIF missing %s\n%s", w, data)
		}
	}

	// -stats adds per-pass timing on stderr.
	out, _ = runCLI(t, bin, "-checks", "-stats", buggy)
	if !strings.Contains(out, "Pass") || !strings.Contains(out, "total") {
		t.Errorf("-stats pass table missing\n%s", out)
	}

	// -listchecks prints the registry and exits 0.
	out, code = runCLI(t, bin, "-listchecks")
	if code != 0 {
		t.Errorf("-listchecks exit %d", code)
	}
	for _, id := range []string{"dangling-findview", "findview-before-setcontentview", "null-view-deref", "listener-reset"} {
		if !strings.Contains(out, id) {
			t.Errorf("-listchecks missing %s\n%s", id, out)
		}
	}
}
