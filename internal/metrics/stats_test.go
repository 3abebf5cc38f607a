package metrics

import (
	"strings"
	"testing"
	"time"

	"gator/internal/trace"
)

func TestAppStats(t *testing.T) {
	a := AppStats{App: "X", Stages: trace.Log{
		{Stage: trace.StageParse, Wall: 10 * time.Millisecond},
		{Stage: trace.StageLower, Wall: 5 * time.Millisecond},
		{Stage: trace.StageBuild, Wall: 5 * time.Millisecond},
		{Stage: trace.StageSolve, Wall: 20 * time.Millisecond},
	}}
	if got := a.Stages.Wall(trace.StageParse); got != 10*time.Millisecond {
		t.Errorf("Wall(parse) = %v", got)
	}
	if got := a.Stages.Wall("missing"); got != 0 {
		t.Errorf("Wall(missing) = %v", got)
	}
	if got := a.Stages.Total(); got != 40*time.Millisecond {
		t.Errorf("Total = %v", got)
	}
	s := FormatBatch(BatchStats{Workers: 1, Apps: []AppStats{a}})
	for _, want := range []string{"parse", "lower", "build", "solve", "10ms", "20ms", "40ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestBatchStatsSummary(t *testing.T) {
	b := BatchStats{
		Workers: 4,
		Wall:    25 * time.Millisecond,
		Apps: []AppStats{
			{App: "A", Stages: trace.Log{{Stage: trace.StageParse, Wall: 10 * time.Millisecond}, {Stage: trace.StageSolve, Wall: 40 * time.Millisecond}}},
			{App: "B", Stages: trace.Log{{Stage: trace.StageParse, Wall: 20 * time.Millisecond}}, Err: "boom\nstack..."},
		},
	}
	if got := b.TotalWork(); got != 70*time.Millisecond {
		t.Errorf("TotalWork = %v", got)
	}
	if got := b.Speedup(); got < 2.7 || got > 2.9 {
		t.Errorf("Speedup = %.2f, want 2.8", got)
	}
	if got := b.Failed(); got != 1 {
		t.Errorf("Failed = %d", got)
	}

	s := FormatBatch(b)
	for _, want := range []string{"A", "B", "ERROR: boom", "2 apps, 4 workers", "speedup 2.80x"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "stack...") {
		t.Errorf("summary should keep only the first error line:\n%s", s)
	}
}

func TestSpeedupZeroWall(t *testing.T) {
	if got := (BatchStats{}).Speedup(); got != 0 {
		t.Errorf("Speedup = %v", got)
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[uint64]string{
		512:     "512B",
		2 << 10: "2.00KiB",
		3 << 20: "3.00MiB",
		5 << 30: "5.00GiB",
	}
	for in, want := range cases {
		if got := fmtBytes(in); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatPasses(t *testing.T) {
	out := FormatPasses(trace.Log{
		{Stage: trace.CheckPrefix + "dangling-findview", Wall: 2 * time.Millisecond},
		{Stage: trace.CheckPrefix + "null-view-deref", Wall: 1 * time.Millisecond},
	}, map[string]int{"dangling-findview": 3, "null-view-deref": 1})
	if strings.Contains(out, trace.CheckPrefix) {
		t.Errorf("FormatPasses shows stage names, want pass ids:\n%s", out)
	}
	for _, w := range []string{"dangling-findview", "null-view-deref", "total", "4", "3ms"} {
		if !strings.Contains(out, w) {
			t.Errorf("FormatPasses missing %q:\n%s", w, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 4 {
		t.Errorf("want header + 2 rows + total, got %d lines:\n%s", lines, out)
	}
}

// TestStableJSON: the machine-readable rendering keeps only run-independent
// fields — identical batches serialize byte-identically even though their
// wall-clocks and allocation totals differ.
func TestStableJSON(t *testing.T) {
	mk := func(wall time.Duration, alloc uint64) BatchStats {
		return BatchStats{
			Workers:    4,
			Wall:       wall,
			AllocBytes: alloc,
			Apps: []AppStats{
				{App: "A", Stages: trace.Log{{Stage: trace.StageParse, Wall: wall}, {Stage: trace.StageSolve, Wall: wall * 2}}, Iterations: 3},
				{App: "B", Stages: trace.Log{{Stage: trace.StageParse, Wall: wall / 2}}, Err: "boom\ngoroutine 7 [running]: 0xc000123456"},
			},
		}
	}
	run1, err := mk(25*time.Millisecond, 1<<20).StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	run2, err := mk(99*time.Millisecond, 1<<30).StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(run1) != string(run2) {
		t.Errorf("StableJSON varies with timing/allocation:\n%s\nvs\n%s", run1, run2)
	}

	s := string(run1)
	for _, want := range []string{
		`"workers": 4`, `"failed": 1`, `"app": "A"`, `"iterations": 3`,
		`"status": "error"`, `"error": "boom"`, `"stages"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("StableJSON missing %s:\n%s", want, s)
		}
	}
	for _, leak := range []string{"goroutine", "0xc000", "Wall", "alloc"} {
		if strings.Contains(s, leak) {
			t.Errorf("StableJSON leaks %q:\n%s", leak, s)
		}
	}
}
