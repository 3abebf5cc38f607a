package metrics

// Benchmark records: the one format of every checked-in BENCH_*.json. A
// record is a list of metric rows, and each row carries its own gates, so
// checking a regenerated record against its baseline is one loop that
// knows the four gate kinds and nothing about which record it reads.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// Record is one benchmark record. Detail holds the per-app, per-mode or
// per-scenario breakdown for readers; CheckRecord never reads it.
type Record struct {
	Record      string   `json:"record"`
	GeneratedAt string   `json:"generatedAt"`
	Cores       int      `json:"cores,omitempty"`
	Metrics     []Metric `json:"metrics"`
	Detail      any      `json:"detail,omitempty"`
}

// Metric is one measured quantity. Better ("lower" or "higher") is the
// direction a relative gate holds the value to.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Value  float64 `json:"value"`
	Gates  []Gate  `json:"gates,omitempty"`
}

// Gate bounds a metric's value. A floor requires value ≥ Bound and a
// ceiling value ≤ Bound; exact requires the baseline's value; relative
// allows the value to be worse than the baseline's by at most the fraction
// Bound, in the metric's Better direction.
type Gate struct {
	Kind  string  `json:"kind"`
	Bound float64 `json:"bound"`
}

// Floor, Ceiling, Exact and Relative build the four gate kinds.
func Floor(bound float64) Gate    { return Gate{"floor", bound} }
func Ceiling(bound float64) Gate  { return Gate{"ceiling", bound} }
func Exact() Gate                 { return Gate{Kind: "exact"} }
func Relative(bound float64) Gate { return Gate{"relative", bound} }

// ReadRecord reads one record. A field the format does not define is an
// error, so a record in another shape fails instead of checking nothing.
func ReadRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	r := &Record{}
	if err := dec.Decode(r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// WriteRecord writes r to path as indented JSON.
func WriteRecord(path string, r *Record) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CheckRecord checks the regenerated record cur against its baseline base
// under the baseline's gates; a nil record is one that is absent. It
// returns a report line for each metric and every failure, each named
// record/metric: a missed gate, a record or metric present on one side
// only, a NaN or infinite value, an ms value ≤ 0, an unknown gate, or a
// unit, direction or gate list that differs from the baseline's.
func CheckRecord(base, cur *Record) (report, failures []string) {
	if base == nil {
		return nil, []string{cur.Record + ": not in the baseline records"}
	}
	if cur == nil {
		return nil, []string{base.Record + ": missing from the regenerated records"}
	}
	fail := func(metric, format string, args ...any) {
		failures = append(failures, base.Record+"/"+metric+": "+fmt.Sprintf(format, args...))
	}
	unmatched := map[string]Metric{}
	for _, m := range cur.Metrics {
		unmatched[m.Name] = m
	}
	for _, want := range base.Metrics {
		got, ok := unmatched[want.Name]
		delete(unmatched, want.Name)
		if !ok {
			fail(want.Name, "missing from the regenerated record")
			continue
		}
		if got.Unit != want.Unit || got.Better != want.Better || !slices.Equal(got.Gates, want.Gates) {
			fail(want.Name, "unit %q, better %q, gates %v differ from the baseline's %q, %q, %v",
				got.Unit, got.Better, got.Gates, want.Unit, want.Better, want.Gates)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Unit == "ms" && got.Value <= 0 {
			fail(want.Name, "invalid value %v %s", got.Value, got.Unit)
			continue
		}
		line := fmt.Sprintf("%s/%s = %.6g %s (baseline %.6g)", base.Record, want.Name, got.Value, got.Unit, want.Value)
		for _, g := range want.Gates {
			pass, limit := g.check(want, got.Value)
			verdict := "ok"
			if !pass {
				verdict = "FAIL"
				fail(want.Name, "%.6g %s misses %s (baseline %.6g)", got.Value, got.Unit, limit, want.Value)
			}
			line += fmt.Sprintf(" [%s %s]", limit, verdict)
		}
		report = append(report, line)
	}
	for _, m := range cur.Metrics {
		if _, extra := unmatched[m.Name]; extra {
			fail(m.Name, "not in the baseline record")
		}
	}
	return report, failures
}

// check reports whether v passes g, where base is the baseline's row, and
// describes the limit it was held to. An unknown kind, or a relative gate
// without a direction, never passes.
func (g Gate) check(base Metric, v float64) (bool, string) {
	limit, atLeast := g.Bound, true
	switch {
	case g.Kind == "floor":
	case g.Kind == "ceiling":
		atLeast = false
	case g.Kind == "exact":
		return v == base.Value, fmt.Sprintf("exact: = %.6g", base.Value)
	case g.Kind == "relative" && base.Better == "higher":
		limit = base.Value * (1 - g.Bound)
	case g.Kind == "relative" && base.Better == "lower":
		limit, atLeast = base.Value*(1+g.Bound), false
	default:
		return false, fmt.Sprintf("unknown gate %q with better %q", g.Kind, base.Better)
	}
	if atLeast {
		return v >= limit, fmt.Sprintf("%s %g: ≥ %.6g", g.Kind, g.Bound, limit)
	}
	return v <= limit, fmt.Sprintf("%s %g: ≤ %.6g", g.Kind, g.Bound, limit)
}
