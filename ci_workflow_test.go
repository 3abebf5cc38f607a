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
		// Benchmark regression gate over the checked-in records, including
		// the precision record added with context sensitivity and the
		// lifecycle-recall record added with the ordering checkers.
		"scripts/benchdiff.sh", "BENCH_7.json", "BENCH_10.json",
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
// ci.sh must run the context-sensitivity smoke step and regenerate
// BENCH_7.json, and benchdiff.sh must regenerate and diff it nightly.
func TestCIScriptsCoverPrecision(t *testing.T) {
	for path, markers := range map[string][]string{
		"scripts/ci.sh":        {"-ctx 1cfa", "-table precision", "-precjson BENCH_7.json"},
		"scripts/benchdiff.sh": {"-precjson", "BENCH_7.json"},
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		requireAll(t, path, string(data), markers)
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

// TestBenchRecordWiringInSync derives the authoritative benchmark-record
// list from the checked-in BENCH_*.json files themselves and asserts every
// consumer knows about every record: ci.sh must regenerate it, benchdiff.sh
// must regenerate and diff it, and nightly.yml must document it. Adding a
// BENCH_N.json without wiring it everywhere — or wiring a record that was
// never checked in — fails here instead of silently ungated drift.
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
		requireAll(t, consumer, string(data), records)
		// The reverse direction: no consumer may mention a record that is
		// not checked in (a stale regenerate or diff line would fail every
		// CI or nightly run, and a stale comment documents a gate that is
		// gone).
		for _, name := range recordName.FindAllString(string(data), -1) {
			if !checked[name] {
				t.Errorf("%s references %s, which is not checked in", consumer, name)
			}
		}
	}
}
