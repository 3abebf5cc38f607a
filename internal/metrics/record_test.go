package metrics

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestCheckRecord(t *testing.T) {
	rec := func(ms ...Metric) *Record { return &Record{Record: "BENCH_0", Metrics: ms} }
	row := func(name, unit, better string, v float64, gates ...Gate) Metric {
		return Metric{Name: name, Unit: unit, Better: better, Value: v, Gates: gates}
	}
	for _, tc := range []struct {
		name      string
		base, cur *Record
		want      []string // failure prefixes, in order; none means pass
	}{
		{name: "floor met", base: rec(row("s", "x", "", 9, Floor(5))), cur: rec(row("s", "x", "", 5, Floor(5)))},
		{name: "floor missed", base: rec(row("s", "x", "", 9, Floor(5))), cur: rec(row("s", "x", "", 4.9, Floor(5))),
			want: []string{"BENCH_0/s: 4.9 x misses floor 5"}},
		{name: "ceiling met", base: rec(row("v", "count", "", 0, Ceiling(0))), cur: rec(row("v", "count", "", 0, Ceiling(0)))},
		{name: "ceiling missed", base: rec(row("v", "count", "", 0, Ceiling(0))), cur: rec(row("v", "count", "", 1, Ceiling(0))),
			want: []string{"BENCH_0/v: 1 count misses ceiling 0"}},
		{name: "exact met", base: rec(row("f", "count", "", 5, Exact())), cur: rec(row("f", "count", "", 5, Exact()))},
		{name: "exact missed above", base: rec(row("f", "count", "", 5, Exact())), cur: rec(row("f", "count", "", 6, Exact())),
			want: []string{"BENCH_0/f: 6 count misses exact: = 5"}},
		{name: "exact missed below", base: rec(row("f", "count", "", 5, Exact())), cur: rec(row("f", "count", "", 4, Exact())),
			want: []string{"BENCH_0/f: 4 count misses exact"}},
		{name: "relative higher met", base: rec(row("s", "x", "higher", 10, Relative(0.15))), cur: rec(row("s", "x", "higher", 8.6, Relative(0.15)))},
		{name: "relative higher missed", base: rec(row("s", "x", "higher", 10, Relative(0.15))), cur: rec(row("s", "x", "higher", 8.4, Relative(0.15))),
			want: []string{"BENCH_0/s: 8.4 x misses relative 0.15: ≥ 8.5"}},
		{name: "relative higher improved", base: rec(row("s", "x", "higher", 10, Relative(0.15))), cur: rec(row("s", "x", "higher", 100, Relative(0.15)))},
		{name: "relative lower met", base: rec(row("t", "ms", "lower", 100, Relative(0.15))), cur: rec(row("t", "ms", "lower", 114.9, Relative(0.15)))},
		{name: "relative lower missed", base: rec(row("t", "ms", "lower", 100, Relative(0.15))), cur: rec(row("t", "ms", "lower", 116, Relative(0.15))),
			want: []string{"BENCH_0/t: 116 ms misses relative 0.15: ≤ 115"}},
		{name: "relative lower improved", base: rec(row("t", "ms", "lower", 100, Relative(0.15))), cur: rec(row("t", "ms", "lower", 1, Relative(0.15)))},
		{name: "every gate of a row", base: rec(row("s", "x", "higher", 10, Relative(0.15), Floor(5))), cur: rec(row("s", "x", "higher", 4, Relative(0.15), Floor(5))),
			want: []string{"BENCH_0/s: 4 x misses relative", "BENCH_0/s: 4 x misses floor"}},
		{name: "ungated row", base: rec(row("t", "ms", "lower", 1)), cur: rec(row("t", "ms", "lower", 1000))},
		{name: "metric missing from regenerated", base: rec(row("a", "count", "", 1), row("b", "count", "", 1)), cur: rec(row("a", "count", "", 1)),
			want: []string{"BENCH_0/b: missing from the regenerated record"}},
		{name: "metric missing from baseline", base: rec(row("a", "count", "", 1)), cur: rec(row("a", "count", "", 1), row("b", "count", "", 1)),
			want: []string{"BENCH_0/b: not in the baseline record"}},
		{name: "gate bound changed", base: rec(row("s", "x", "", 9, Floor(5))), cur: rec(row("s", "x", "", 9, Floor(4))),
			want: []string{"BENCH_0/s: unit \"x\", better \"\", gates [{floor 4}] differ"}},
		{name: "gate dropped", base: rec(row("s", "x", "", 9, Floor(5))), cur: rec(row("s", "x", "", 9)),
			want: []string{"BENCH_0/s: unit"}},
		{name: "direction changed", base: rec(row("s", "x", "higher", 9, Relative(0.1))), cur: rec(row("s", "x", "lower", 9, Relative(0.1))),
			want: []string{"BENCH_0/s: unit"}},
		{name: "NaN value", base: rec(row("r", "ratio", "", 1)), cur: rec(row("r", "ratio", "", math.NaN())),
			want: []string{"BENCH_0/r: invalid value NaN"}},
		{name: "infinite value", base: rec(row("s", "x", "", 1)), cur: rec(row("s", "x", "", math.Inf(1))),
			want: []string{"BENCH_0/s: invalid value +Inf"}},
		{name: "zero ms value", base: rec(row("t", "ms", "", 1)), cur: rec(row("t", "ms", "", 0)),
			want: []string{"BENCH_0/t: invalid value 0 ms"}},
		{name: "zero count value", base: rec(row("n", "count", "", 1)), cur: rec(row("n", "count", "", 0))},
		{name: "unknown gate kind", base: rec(row("s", "x", "", 1, Gate{"atLeast", 1})), cur: rec(row("s", "x", "", 1, Gate{"atLeast", 1})),
			want: []string{"BENCH_0/s: 1 x misses unknown gate \"atLeast\""}},
		{name: "relative gate without direction", base: rec(row("s", "x", "", 1, Relative(0.1))), cur: rec(row("s", "x", "", 1, Relative(0.1))),
			want: []string{"BENCH_0/s: 1 x misses unknown gate \"relative\""}},
		{name: "record missing from regenerated", base: rec(), cur: nil,
			want: []string{"BENCH_0: missing from the regenerated records"}},
		{name: "record missing from baseline", base: nil, cur: rec(),
			want: []string{"BENCH_0: not in the baseline records"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, failures := CheckRecord(tc.base, tc.cur)
			if len(failures) != len(tc.want) {
				t.Fatalf("failures = %q, want %d matching %q", failures, len(tc.want), tc.want)
			}
			for i, f := range failures {
				if !strings.HasPrefix(f, tc.want[i]) {
					t.Errorf("failure %d = %q, want prefix %q", i, f, tc.want[i])
				}
			}
		})
	}
}

// TestCheckRecordReport: every baseline metric gets one report line naming
// its value, baseline and each gate's limit and verdict.
func TestCheckRecordReport(t *testing.T) {
	base := &Record{Record: "BENCH_0", Metrics: []Metric{
		{Name: "speedup", Unit: "x", Better: "higher", Value: 10, Gates: []Gate{Relative(0.15), Floor(5)}},
		{Name: "cold_ms", Unit: "ms", Value: 4},
	}}
	cur := &Record{Record: "BENCH_0", Metrics: []Metric{
		{Name: "speedup", Unit: "x", Better: "higher", Value: 6, Gates: []Gate{Relative(0.15), Floor(5)}},
		{Name: "cold_ms", Unit: "ms", Value: 5},
	}}
	report, _ := CheckRecord(base, cur)
	want := []string{
		"BENCH_0/speedup = 6 x (baseline 10) [relative 0.15: ≥ 8.5 FAIL] [floor 5: ≥ 5 ok]",
		"BENCH_0/cold_ms = 5 ms (baseline 4)",
	}
	if !reflect.DeepEqual(report, want) {
		t.Errorf("report =\n%q\nwant\n%q", report, want)
	}
}

// TestRecordRoundTrip: WriteRecord and ReadRecord preserve every field, and
// ReadRecord rejects a field the format does not define.
func TestRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_0.json")
	r := &Record{Record: "BENCH_0", GeneratedAt: "2026-01-01T00:00:00Z", Cores: 2,
		Metrics: []Metric{{Name: "speedup", Unit: "x", Better: "higher", Value: 9.127899097635417, Gates: []Gate{Relative(0.15), Floor(5), Exact(), Ceiling(1)}}},
		Detail:  map[string]any{"app": "modular-30"}}
	if err := WriteRecord(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip = %+v, want %+v", got, r)
	}

	if err := WriteRecord(path, &Record{Metrics: []Metric{{Name: "s", Value: math.NaN()}}}); err == nil {
		t.Error("WriteRecord accepted a NaN value")
	}
	old := filepath.Join(t.TempDir(), "BENCH_4.json")
	for _, data := range []string{`{"record": "BENCH_4", "speedup": 9.1}`, `{"metrics": [{"name": "s", "bound": 5}]}`} {
		if err := os.WriteFile(old, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadRecord(old); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("ReadRecord(%s) error = %v, want an unknown-field error", data, err)
		}
	}
}
