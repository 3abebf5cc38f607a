package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gator/internal/metrics"
)

// buildGatorbench builds the command into a temporary directory.
func buildGatorbench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gatorbench")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func TestGatorbenchSingleApp(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI exec test skipped in -short mode")
	}
	bin := buildGatorbench(t)

	out, err := exec.Command(bin, "-app", "ConnectBot", "-table", "all").CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"Table 1", "Table 2", "Case study",
		"ConnectBot", "371", "2366", // classes, methods from the paper
		"violations",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q\n%s", want, s)
		}
	}
	if strings.Contains(s, "SOUNDNESS VIOLATION") {
		t.Errorf("soundness violation reported:\n%s", s)
	}

	// The ablation flags parse and run.
	out, err = exec.Command(bin, "-app", "APV", "-table", "2", "-ctx", "1cfa", "-filter-casts").CombinedOutput()
	if err != nil {
		t.Fatalf("ablation run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "APV") {
		t.Errorf("ablation output:\n%s", out)
	}

	// Unknown table exits nonzero.
	cmd := exec.Command(bin, "-table", "9")
	if err := cmd.Run(); err == nil {
		t.Error("unknown table did not fail")
	}

	// An unknown context mode is a usage error that names the known modes.
	out, err = exec.Command(bin, "-app", "APV", "-ctx", "1obj").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 ||
		!strings.Contains(string(out), "known: off, 1cfa") {
		t.Errorf("-ctx 1obj: %v\n%s", err, out)
	}
}

// TestGatorbenchParallelDeterminism: the rendered tables must be
// byte-identical at -j 1 and -j 8 (tables 1 and precision carry no
// wall-clock columns, so any difference is a real nondeterminism bug).
func TestGatorbenchParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI exec test skipped in -short mode")
	}
	bin := buildGatorbench(t)

	for _, table := range []string{"1", "precision"} {
		var outputs []string
		for _, j := range []string{"1", "8"} {
			out, err := exec.Command(bin, "-table", table, "-j", j).Output()
			if err != nil {
				t.Fatalf("-table %s -j %s: %v", table, j, err)
			}
			outputs = append(outputs, string(out))
		}
		if outputs[0] != outputs[1] {
			t.Errorf("-table %s differs between -j 1 and -j 8:\n-- j1 --\n%s\n-- j8 --\n%s",
				table, outputs[0], outputs[1])
		}
		if !strings.Contains(outputs[0], "XBMC") {
			t.Errorf("-table %s output missing the corpus:\n%s", table, outputs[0])
		}
	}

	// -stats reports the batch accounting on stderr.
	cmd := exec.Command(bin, "-table", "1", "-j", "4", "-stats")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if _, err := cmd.Output(); err != nil {
		t.Fatalf("-stats run: %v", err)
	}
	if !strings.Contains(stderr.String(), "4 workers") {
		t.Errorf("-stats stderr missing batch summary:\n%s", stderr.String())
	}
}

// TestGatorbenchTraceAndMetrics: -trace writes a Chrome trace of the corpus
// run and -metrics the aggregated rule/worklist registry.
func TestGatorbenchTraceAndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI exec test skipped in -short mode")
	}
	bin := buildGatorbench(t)

	traceFile := filepath.Join(t.TempDir(), "trace.json")
	metricsFile := filepath.Join(t.TempDir(), "metrics.json")
	out, err := exec.Command(bin, "-app", "ConnectBot", "-table", "1",
		"-trace", traceFile, "-metrics", metricsFile).CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}

	traceData, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"traceEvents"`, "ConnectBot:parse", "ConnectBot:lower", "ConnectBot:build", "ConnectBot:solve", `"ph": "C"`} {
		if !strings.Contains(string(traceData), want) {
			t.Errorf("trace missing %s", want)
		}
	}

	metricsData, err := os.ReadFile(metricsFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"counters"`, `"rule/FindView2"`, `"solver/iterations"`, `"histograms"`, `"solver/worklist"`} {
		if !strings.Contains(string(metricsData), want) {
			t.Errorf("metrics missing %s\n%s", want, metricsData)
		}
	}
}

// TestRecordsIgnoreAnalysisFlags: -records measures every record under its
// own fixed configuration, so -app, -ctx, -seed and the ablation flags,
// which select what the tables show, change nothing in it. Each
// regenerated record has exactly its checked-in baseline's metrics, units,
// directions and gates, and every count and ratio — BENCH_2's per-app
// findings and warnings among them — reproduces the baseline exactly; only
// timings may differ.
func TestRecordsIgnoreAnalysisFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerating every record skipped in -short mode")
	}
	bin := buildGatorbench(t)
	dir := t.TempDir()
	out, err := exec.Command(bin, "-app", "APV", "-ctx", "1cfa", "-seed", "7", "-filter-casts",
		"-table", "1", "-records", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	written, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != len(records) {
		t.Errorf("-records wrote %d files, want %d", len(written), len(records))
	}
	for _, r := range records {
		base, err := metrics.ReadRecord(filepath.Join("..", "..", r.file))
		if err != nil {
			t.Fatal(err)
		}
		cur, err := metrics.ReadRecord(filepath.Join(dir, r.file))
		if err != nil {
			t.Fatal(err)
		}
		if cur.Record != base.Record || cur.Cores == 0 || len(cur.Metrics) != len(base.Metrics) {
			t.Errorf("%s: record %q, cores %d, %d metrics; want %q, cores > 0, %d metrics",
				r.file, cur.Record, cur.Cores, len(cur.Metrics), base.Record, len(base.Metrics))
		}
		want := map[string]metrics.Metric{}
		for _, m := range base.Metrics {
			want[m.Name] = m
		}
		for _, m := range cur.Metrics {
			w, ok := want[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s not in the checked-in record", r.file, m.Name)
			case m.Unit != w.Unit || m.Better != w.Better || !slices.Equal(m.Gates, w.Gates):
				t.Errorf("%s: %s is %s/%s/%v, checked in as %s/%s/%v", r.file, m.Name,
					m.Unit, m.Better, m.Gates, w.Unit, w.Better, w.Gates)
			case (m.Unit == "count" || m.Unit == "ratio") && m.Value != w.Value:
				t.Errorf("%s: %s = %v, checked-in baseline %v", r.file, m.Name, m.Value, w.Value)
			}
		}
	}
}
