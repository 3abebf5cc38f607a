package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gator/internal/metrics"
)

// copyRecords copies the checked-in records into a fresh directory,
// applying edit (if not nil) to each before writing it.
func copyRecords(t *testing.T, edit func(*metrics.Record)) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no checked-in records: %v", err)
	}
	dir := t.TempDir()
	for _, p := range paths {
		rec, err := metrics.ReadRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			edit(rec)
		}
		if err := metrics.WriteRecord(filepath.Join(dir, filepath.Base(p)), rec); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runBenchdiff(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestEveryFailureReported: regressions in two records both fail one run,
// the second still checked after the first fails.
func TestEveryFailureReported(t *testing.T) {
	base := copyRecords(t, nil)
	cur := copyRecords(t, func(r *metrics.Record) {
		for i := range r.Metrics {
			switch r.Record + "/" + r.Metrics[i].Name {
			case "BENCH_2/APV.findings":
				r.Metrics[i].Value++
			case "BENCH_4/speedup":
				r.Metrics[i].Value = 4
			}
		}
	})
	code, stdout, stderr := runBenchdiff(base, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s%s", code, stdout, stderr)
	}
	for _, want := range []string{
		"REGRESSION: BENCH_2/APV.findings: 1 count misses exact",
		"REGRESSION: BENCH_4/speedup: 4 x misses relative 0.15",
		"REGRESSION: BENCH_4/speedup: 4 x misses floor 5",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
	if n := strings.Count(stderr, "REGRESSION"); n != 3 {
		t.Errorf("%d failures, want 3:\n%s", n, stderr)
	}
	// Records after the failing ones are still checked and reported.
	if !strings.Contains(stdout, "BENCH_8/overhead_pct") {
		t.Errorf("stdout missing the BENCH_8 report:\n%s", stdout)
	}
}

func TestCheckedInRecordsPassAgainstThemselves(t *testing.T) {
	dir := filepath.Join("..", "..")
	code, stdout, stderr := runBenchdiff(dir, dir)
	if code != 0 || !strings.HasSuffix(stdout, "benchdiff: ok\n") {
		t.Fatalf("exit %d\n%s%s", code, stdout, stderr)
	}
}

func TestMissingRecordFails(t *testing.T) {
	base := copyRecords(t, nil)
	cur := copyRecords(t, nil)
	if err := os.Remove(filepath.Join(cur, "BENCH_7.json")); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runBenchdiff(base, cur)
	if code != 1 || !strings.Contains(stderr, "REGRESSION: BENCH_7: missing from the regenerated records") {
		t.Errorf("exit %d, stderr:\n%s", code, stderr)
	}
}

func TestBadInput(t *testing.T) {
	empty := t.TempDir()
	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, "BENCH_4.json"), []byte(`{"speedup": 9.1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{filepath.Join("..", "..")},
		{empty, filepath.Join("..", "..")},
		{old, old},
	} {
		if code, _, _ := runBenchdiff(args...); code != 2 {
			t.Errorf("benchdiff %q: exit %d, want 2", args, code)
		}
	}
}
