package gator

// The GitHub Actions workflows are plain data no compiler checks, and a
// YAML syntax slip (a stray tab, a typo'd trigger key) silently disables
// CI instead of failing it. These tests lint .github/workflows/*.yml with
// the strictness a config file deserves — structure, indentation, and the
// contract that CI actually invokes the repo's own gates — using only the
// stdlib (the repo takes no external dependencies, so no yaml package).

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"gator/internal/metrics"
)

// readWorkflow loads one workflow file and applies the YAML subset lint
// every workflow must pass: no tabs (YAML forbids them in indentation and
// GitHub rejects them), no trailing whitespace, even space indentation,
// and balanced ${{ }} expressions.
func readWorkflow(t *testing.T, name string) string {
	t.Helper()
	path := filepath.Join(".github", "workflows", name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("workflow missing: %v", err)
	}
	text := string(data)
	for i, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "\t") {
			t.Errorf("%s:%d: tab character (YAML indentation must be spaces)", path, i+1)
		}
		if line != strings.TrimRight(line, " ") {
			t.Errorf("%s:%d: trailing whitespace", path, i+1)
		}
		indent := len(line) - len(strings.TrimLeft(line, " "))
		if indent%2 != 0 && !strings.HasPrefix(strings.TrimSpace(line), "#") {
			t.Errorf("%s:%d: odd indentation (%d spaces)", path, i+1, indent)
		}
		if strings.Count(line, "${{") != strings.Count(line, "}}") {
			t.Errorf("%s:%d: unbalanced ${{ }} expression", path, i+1)
		}
	}
	return text
}

// topLevelKeys returns the zero-indent mapping keys of a workflow document.
func topLevelKeys(text string) map[string]bool {
	keys := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, " ") || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.Index(line, ":"); i > 0 {
			keys[line[:i]] = true
		}
	}
	return keys
}

// requireAll asserts each marker appears in the workflow text.
func requireAll(t *testing.T, path, text string, markers []string) {
	t.Helper()
	for _, m := range markers {
		if !strings.Contains(text, m) {
			t.Errorf("%s: missing %q", path, m)
		}
	}
}

// checkActionsPinned asserts every `uses:` references a major version tag,
// so an action update is an explicit diff rather than a moving target.
func checkActionsPinned(t *testing.T, path, text string) {
	t.Helper()
	for i, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "- "))
		if !strings.HasPrefix(trimmed, "uses:") {
			continue
		}
		ref := strings.TrimSpace(strings.TrimPrefix(trimmed, "uses:"))
		if !strings.Contains(ref, "@v") {
			t.Errorf("%s:%d: action %q not pinned to a major version", path, i+1, ref)
		}
	}
}

// checkJobTimeouts asserts every job carries its own timeout-minutes
// ceiling. GitHub's default is 6 hours; a hung smoke or fuzz target should
// fail the run, not hold a runner. Jobs are counted by their `runs-on`
// lines, so a new job without a timeout fails here rather than shipping.
func checkJobTimeouts(t *testing.T, path, text string) {
	t.Helper()
	jobs := strings.Count(text, "runs-on:")
	timeouts := strings.Count(text, "timeout-minutes:")
	if jobs == 0 {
		t.Errorf("%s: no runs-on lines; job counting is broken", path)
	}
	if timeouts != jobs {
		t.Errorf("%s: %d jobs but %d timeout-minutes lines; every job needs its own ceiling", path, jobs, timeouts)
	}
}

func TestCIWorkflow(t *testing.T) {
	text := readWorkflow(t, "ci.yml")
	keys := topLevelKeys(text)
	for _, k := range []string{"name", "on", "permissions", "jobs"} {
		if !keys[k] {
			t.Errorf("ci.yml: missing top-level key %q", k)
		}
	}
	requireAll(t, "ci.yml", text, []string{
		// Triggers: every push to main and every pull request.
		"push:", "pull_request:",
		// The gate job must run this repo's own tier-1 script, not an
		// inlined command list that can drift from it.
		"scripts/ci.sh",
		// Go version matrix: current and previous release.
		"matrix", "stable", "oldstable",
		"actions/checkout@", "actions/setup-go@",
		// Module/build caching and the separate full race-detector job.
		"cache: true", "go test -race ./...",
		// Failed runs keep their logs.
		"if: failure()", "actions/upload-artifact@",
	})
	checkActionsPinned(t, "ci.yml", text)
	checkJobTimeouts(t, "ci.yml", text)
}

func TestNightlyWorkflow(t *testing.T) {
	text := readWorkflow(t, "nightly.yml")
	keys := topLevelKeys(text)
	for _, k := range []string{"name", "on", "permissions", "jobs"} {
		if !keys[k] {
			t.Errorf("nightly.yml: missing top-level key %q", k)
		}
	}
	requireAll(t, "nightly.yml", text, []string{
		"schedule:", "cron:", "workflow_dispatch",
		// Benchmark regression gate over every checked-in record: the script
		// regenerates the whole set gatorbench's record table names
		// (TestBenchRecordWiringInSync) and checks it in one benchdiff run.
		"scripts/benchdiff.sh bench-new",
		"BenchmarkIncrementalEdit",
		// Fuzz budget: 30 seconds per target, all targets present.
		"-fuzztime 30s", "FuzzParse", "FuzzLayout", "FuzzOrderingScenario",
		// Crashers and regenerated records survive the failed run.
		"if: failure()", "actions/upload-artifact@",
	})
	checkActionsPinned(t, "nightly.yml", text)
	checkJobTimeouts(t, "nightly.yml", text)
}

// TestCIScriptsExist pins the coupling between the workflows and the
// scripts they invoke: renaming a script must fail the suite, not silently
// break CI.
func TestCIScriptsExist(t *testing.T) {
	for _, s := range []string{"scripts/ci.sh", "scripts/benchdiff.sh"} {
		info, err := os.Stat(s)
		if err != nil {
			t.Errorf("%s: %v", s, err)
			continue
		}
		if info.Mode()&0o111 == 0 {
			t.Errorf("%s: not executable", s)
		}
	}
}

// TestCIScriptsCoverPrecision pins the precision gate into both scripts:
// ci.sh must run the context-sensitivity smoke step (every table,
// including the oracle case study) and regenerate the records
// (BENCH_7.json among them), and benchdiff.sh must regenerate and check
// them nightly.
func TestCIScriptsCoverPrecision(t *testing.T) {
	for path, markers := range map[string][]string{
		"scripts/ci.sh":        {"-table all -app TippyTipper -ctx 1cfa", "./cmd/gatorbench -records"},
		"scripts/benchdiff.sh": {`./cmd/gatorbench -table 2 -records "$OUT"`, `./cmd/benchdiff . "$OUT"`},
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		requireAll(t, path, string(data), markers)
	}
}

// TestCIScriptKeepsRecords: a full ci.sh run regenerates the benchmark
// records into a temporary directory, never over the checked-in ones, so
// committing after a CI run cannot silently re-baseline a gate.
// Re-baselining is an explicit copy in a reviewed change.
func TestCIScriptKeepsRecords(t *testing.T) {
	data, err := os.ReadFile("scripts/ci.sh")
	if err != nil {
		t.Fatal(err)
	}
	script := strings.ReplaceAll(string(data), "\\\n", " ") // join continued lines
	recordFile := regexp.MustCompile(`BENCH_[0-9]+\.json`)
	recordsDir := regexp.MustCompile(`-records\s+"\$(\w+)"`)
	runs := 0
	for _, line := range strings.Split(script, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") || !strings.Contains(line, "gatorbench") {
			continue
		}
		if name := recordFile.FindString(line); name != "" {
			t.Errorf("scripts/ci.sh: gatorbench writes %s into the repository root: %s", name, line)
		}
		if !strings.Contains(line, "-records") {
			continue
		}
		runs++
		m := recordsDir.FindStringSubmatch(line)
		if m == nil || !strings.Contains(script, m[1]+"=$(mktemp -d)") {
			t.Errorf("scripts/ci.sh: -records must name a mktemp -d directory: %s", line)
		}
	}
	if runs == 0 {
		t.Error("scripts/ci.sh never regenerates the benchmark records")
	}
}

// TestCIScriptCoversBenchModule pins the benchmark module into the tier-1
// script. bench/ is its own Go module, so the root module's ./... patterns
// never compile it; without this step an internal API change could break
// the benchmark unnoticed.
func TestCIScriptCoversBenchModule(t *testing.T) {
	data, err := os.ReadFile("scripts/ci.sh")
	if err != nil {
		t.Fatal(err)
	}
	requireAll(t, "scripts/ci.sh", string(data), []string{
		"(cd bench && go vet ./... && go test ./...)",
	})
}

// TestCIScriptRunsZeroAllocGuards pins step 9's allocation guards: for each
// package below, one uncommented `go test` line over it must select all of
// its guards, and every guard must still exist in that package's tests, so
// no guard can drop out of CI silently (a -run pattern naming a missing
// test passes with nothing run).
func TestCIScriptRunsZeroAllocGuards(t *testing.T) {
	data, err := os.ReadFile("scripts/ci.sh")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range []struct {
		path   string // the go test package argument
		dir    string // its directory
		guards []string
	}{
		{"./internal/core", "internal/core", []string{"TestTracingDisabledZeroAlloc", "TestFindViewWalkZeroAlloc", "TestPropagateZeroAlloc", "TestApplyOpsZeroAlloc", "TestRelationViewsZeroAlloc"}},
		{".", ".", []string{"TestLoadAllocationPerByte"}},
		{"./internal/alite", "internal/alite", []string{"TestParseAllocationPerByte"}},
		{"./internal/layout", "internal/layout", []string{"TestLayoutParseAllocationPerByte"}},
		{"./internal/graph", "internal/graph", []string{"TestVarNodeAndFlowHitsZeroAlloc"}},
	} {
		found := false
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, "go test ") || !strings.HasSuffix(line, " "+pkg.path) {
				continue
			}
			all := true
			for _, g := range pkg.guards {
				all = all && strings.Contains(line, g)
			}
			found = found || all
		}
		if !found {
			t.Errorf("scripts/ci.sh: no go test line over %s runs %s", pkg.path, strings.Join(pkg.guards, " and "))
		}
		files, err := filepath.Glob(filepath.Join(pkg.dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		var src strings.Builder
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			src.Write(b)
		}
		for _, g := range pkg.guards {
			if !strings.Contains(src.String(), "func "+g+"(t *testing.T)") {
				t.Errorf("%s: test %s is gone; scripts/ci.sh step 9 would run nothing", pkg.dir, g)
			}
		}
	}
}

// TestBenchRecordWiringInSync derives the authoritative benchmark-record
// list from the checked-in BENCH_*.json files themselves. gatorbench's
// record table, which -records regenerates and benchdiff.sh checks in
// full, must name exactly those files; and no CI consumer may mention a
// record that is not checked in (a stale line would fail every CI or
// nightly run, and a stale comment documents a gate that is gone). Adding
// a BENCH_N.json without a measurement, or a measurement without a
// checked-in baseline, fails here instead of silently drifting ungated.
func TestBenchRecordWiringInSync(t *testing.T) {
	records, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no checked-in BENCH_*.json records; the glob is broken")
	}
	checked := map[string]bool{}
	for _, r := range records {
		checked[r] = true
	}

	table := gatorbenchRecordTable(t)
	seen := map[string]bool{}
	for _, name := range table {
		if seen[name] {
			t.Errorf("gatorbench record table lists %s twice", name)
		}
		seen[name] = true
		if !checked[name] {
			t.Errorf("gatorbench record table lists %s, which is not checked in", name)
		}
	}
	for _, r := range records {
		if !seen[r] {
			t.Errorf("%s is checked in but gatorbench's record table does not regenerate it", r)
		}
	}

	recordName := regexp.MustCompile(`BENCH_[0-9]+\.json`)
	for _, consumer := range []string{
		"scripts/ci.sh",
		"scripts/benchdiff.sh",
		filepath.Join(".github", "workflows", "nightly.yml"),
	} {
		data, err := os.ReadFile(consumer)
		if err != nil {
			t.Errorf("%s: %v", consumer, err)
			continue
		}
		for _, name := range recordName.FindAllString(string(data), -1) {
			if !checked[name] {
				t.Errorf("%s references %s, which is not checked in", consumer, name)
			}
		}
	}
}

// gatorbenchRecordTable returns the file names in cmd/gatorbench's records
// table, in order.
func gatorbenchRecordTable(t *testing.T) []string {
	t.Helper()
	const path = "cmd/gatorbench/records.go"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range regexp.MustCompile(`\{"(BENCH_[0-9]+\.json)", measure`).FindAllStringSubmatch(string(data), -1) {
		names = append(names, m[1])
	}
	if len(names) == 0 {
		t.Fatalf("%s: no records table entries found", path)
	}
	return names
}

// TestBenchRecordsCheckAgainstThemselves: every checked-in record reads in
// the one record format, names itself after its file, uses only the four
// gate kinds, gives every relative gate a direction, and passes benchdiff's
// check against itself.
func TestBenchRecordsCheckAgainstThemselves(t *testing.T) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{"floor": true, "ceiling": true, "exact": true, "relative": true}
	for _, p := range paths {
		rec, err := metrics.ReadRecord(p)
		if err != nil {
			t.Error(err)
			continue
		}
		if rec.Record+".json" != p || rec.GeneratedAt == "" || len(rec.Metrics) == 0 {
			t.Errorf("%s: record %q, generatedAt %q, %d metrics", p, rec.Record, rec.GeneratedAt, len(rec.Metrics))
		}
		for _, m := range rec.Metrics {
			for _, g := range m.Gates {
				if !kinds[g.Kind] {
					t.Errorf("%s: %s: unknown gate kind %q", p, m.Name, g.Kind)
				}
				if g.Kind == "relative" && m.Better != "lower" && m.Better != "higher" {
					t.Errorf("%s: %s: relative gate with better %q", p, m.Name, m.Better)
				}
			}
		}
		if _, failures := metrics.CheckRecord(rec, rec); len(failures) > 0 {
			t.Errorf("%s fails against itself: %q", p, failures)
		}
	}
}
