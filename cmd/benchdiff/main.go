// Command benchdiff compares a freshly regenerated benchmark record against
// the checked-in baseline and exits non-zero on regression. It detects the
// record's shape from which fields are populated and dispatches to one of
// seven checks:
//
//   - corpus records (BENCH_2.json, gatorbench -benchjson): per-app findings
//     and warnings must match the baseline exactly (a drift there is a
//     behavior change, not noise), and total analysis work may not grow by
//     more than the threshold.
//   - incremental records (BENCH_4.json, gatorbench -incjson): the warm/cold
//     speedup may not drop by more than the threshold, and never below the
//     5x floor the incremental re-solver is built to clear. The speedup is a
//     same-machine ratio, so it is stable across runner hardware in a way
//     absolute milliseconds are not.
//   - server records (BENCH_5.json, gatorbench -servejson): the warm-session
//     vs stateless-resubmission speedup over HTTP, guarded the same way with
//     a 3x floor (lower than the library floor: both sides carry transport
//     overhead). The latency percentiles in the record are informational.
//   - solver records (BENCH_6.json, gatorbench -solvejson): two floors. The
//     optimized engine (CSR + delta worklist) must beat the reference
//     schedule by at least 2x on the deep-fixpoint chain app, and the
//     >64-unit incremental warm/cold speedup must stay at or above 5x. Both
//     are same-machine ratios, floor-gated only: each divides two
//     independently measured times, so a relative threshold would trip on
//     runner noise alone. The baseline is printed for trend reading.
//   - precision records (BENCH_7.json, gatorbench -precjson): per
//     context-sensitivity mode, the solution/oracle ratio may not grow by
//     more than 5% over the baseline (a deterministic count-of-facts ratio,
//     so the tight bound holds on any runner), any soundness violation is a
//     hard failure, and the polymorphic-helper stressor must stay strict
//     (context-sensitive solutions strictly smaller than the insensitive
//     one).
//   - observability records (BENCH_8.json, gatorbench -obsjson): the
//     telemetry layer's request-latency overhead may not exceed the 5%
//     ceiling. The overhead is a same-machine on/off ratio of min-of-N
//     latencies, so like the solver ratios it gates on the absolute
//     ceiling only; the baseline is printed for trend reading.
//   - lifecycle-recall records (BENCH_10.json, gatorbench -lifejson): each
//     ordering checker's recall over the synthesized ordering-bug scenario
//     pack must stay at or above the 0.9 floor, and the clean twins (same
//     helper/branch shape, legal callback placement) must produce zero
//     findings. Both gates are deterministic counts over generated apps, so
//     they are absolute, not baseline-relative; the baseline recall is
//     printed for trend reading.
//
// Usage:
//
//	benchdiff [-threshold 0.15] BASELINE REGENERATED
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// speedupFloor is the minimum acceptable warm/cold speedup for incremental
// records, independent of the baseline (see DESIGN.md, "Incremental
// solving").
const speedupFloor = 5.0

// serveSpeedupFloor is the floor for server records: a warm session must
// beat stateless resubmission by at least this much end to end (see
// DESIGN.md, "Serving").
const serveSpeedupFloor = 3.0

// optSpeedupFloor is the floor for solver records: the CSR + delta-worklist
// engine must beat the reference schedule by at least this much on the
// chain-shaped deep-fixpoint app (see DESIGN.md, "Solver internals").
const optSpeedupFloor = 2.0

// obsOverheadCeiling is the maximum acceptable telemetry overhead, in
// percent, for observability records — the cost of the full request
// telemetry layer (trace propagation, per-request metrics and logs,
// head-sampled trace capture) relative to a telemetry-off daemon (see
// DESIGN.md, "Observability").
const obsOverheadCeiling = 5.0

// ratioSlack is the maximum tolerated growth of a precision record's
// solution/oracle ratio over the baseline. The ratio counts canonical facts,
// not time, so it is exactly reproducible and gets a bound far tighter than
// the timing threshold.
const ratioSlack = 0.05

// recallFloor is the minimum acceptable per-checker recall for
// lifecycle-recall records: the ordering checkers must locate at least 90%
// of the seeded scenario-pack bugs (see DESIGN.md, "Lifecycle & callback
// ordering").
const recallFloor = 0.9

type appRec struct {
	App      string `json:"app"`
	Findings int    `json:"findings"`
	Warnings int    `json:"warnings"`
}

type modeRec struct {
	Mode       string  `json:"mode"`
	Ratio      float64 `json:"ratio"`
	Violations int     `json:"violations"`
}

type stressorRec struct {
	App              string `json:"app"`
	InsensitiveFacts int    `json:"insensitiveFacts"`
	CfaFacts         int    `json:"cfaFacts"`
	ObjFacts         int    `json:"objFacts"`
	Strict           bool   `json:"strict"`
}

type checkerRec struct {
	Checker       string  `json:"checker"`
	Seeded        int     `json:"seeded"`
	Detected      int     `json:"detected"`
	Recall        float64 `json:"recall"`
	CleanFindings int     `json:"cleanFindings"`
}

// record is the superset of the benchmark file shapes; shape is detected
// by which fields are populated (precision records carry modes, corpus
// records carry apps, incremental records carry warmMs, server records
// carry coldP50Ms, solver records carry optSpeedup, observability records
// carry telemetryOnMs, and lifecycle-recall records carry checkers).
type record struct {
	TotalWorkMs    float64      `json:"totalWorkMs"`
	Speedup        float64      `json:"speedup"`
	WarmMs         float64      `json:"warmMs"`
	ColdMs         float64      `json:"coldMs"`
	ColdP50Ms      float64      `json:"coldP50Ms"`
	ColdP99Ms      float64      `json:"coldP99Ms"`
	OptSpeedup     float64      `json:"optSpeedup"`
	IncSpeedup     float64      `json:"incSpeedup"`
	TelemetryOffMs float64      `json:"telemetryOffMs"`
	TelemetryOnMs  float64      `json:"telemetryOnMs"`
	OverheadPct    float64      `json:"overheadPct"`
	Apps           []appRec     `json:"apps"`
	Modes          []modeRec    `json:"modes"`
	Checkers       []checkerRec `json:"checkers"`
	Stressor       stressorRec  `json:"stressor"`
}

func load(path string) (record, error) {
	var r record
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %v", path, err)
	}
	return r, nil
}

func main() {
	threshold := flag.Float64("threshold", 0.15, "maximum tolerated fractional regression")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold F] BASELINE REGENERATED")
		os.Exit(2)
	}
	old, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}

	switch {
	case len(old.Checkers) > 0:
		// Lifecycle-recall record: per-checker recall floor plus the
		// zero-findings contract on clean twins. Both are deterministic
		// counts over generated scenarios — absolute gates, no threshold.
		byChecker := map[string]checkerRec{}
		for _, c := range cur.Checkers {
			byChecker[c.Checker] = c
		}
		for _, want := range old.Checkers {
			got, ok := byChecker[want.Checker]
			if !ok {
				fail("checker %s: missing from regenerated record", want.Checker)
				continue
			}
			fmt.Printf("%s: checker %s recall %.2f (%d/%d) vs baseline %.2f (floor %.1f); clean-twin findings %d\n",
				flag.Arg(1), want.Checker, got.Recall, got.Detected, got.Seeded,
				want.Recall, recallFloor, got.CleanFindings)
			if got.Seeded == 0 {
				fail("checker %s: no scenarios seeded", want.Checker)
				continue
			}
			if got.Recall < recallFloor {
				fail("checker %s: recall %.2f (%d/%d) below the %.1f floor",
					want.Checker, got.Recall, got.Detected, got.Seeded, recallFloor)
			}
			if got.CleanFindings != 0 {
				fail("checker %s: %d finding(s) on clean twins (want 0)",
					want.Checker, got.CleanFindings)
			}
		}
		if len(cur.Checkers) < len(old.Checkers) {
			fail("checker count %d, baseline %d", len(cur.Checkers), len(old.Checkers))
		}

	case len(old.Modes) > 0:
		// Precision record: deterministic fact-count ratios per
		// context-sensitivity mode. Soundness violations and a non-strict
		// stressor are hard failures; the ratio gets the tight 5% bound.
		byMode := map[string]modeRec{}
		for _, m := range cur.Modes {
			byMode[m.Mode] = m
		}
		for _, want := range old.Modes {
			got, ok := byMode[want.Mode]
			if !ok {
				fail("mode %q: missing from regenerated record", want.Mode)
				continue
			}
			limit := want.Ratio * (1 + ratioSlack)
			fmt.Printf("%s: mode %s ratio %.3f vs baseline %.3f (limit %.3f), violations %d\n",
				flag.Arg(1), want.Mode, got.Ratio, want.Ratio, limit, got.Violations)
			if got.Violations > 0 {
				fail("mode %s: %d soundness violation(s) against the oracle", want.Mode, got.Violations)
			}
			if got.Ratio > limit {
				fail("mode %s: precision ratio %.3f regressed more than %.0f%% from baseline %.3f",
					want.Mode, got.Ratio, ratioSlack*100, want.Ratio)
			}
		}
		if old.Stressor.App != "" && cur.Stressor.App == "" {
			fail("stressor %s: missing from regenerated record", old.Stressor.App)
		}
		if cur.Stressor.App != "" && !cur.Stressor.Strict {
			fail("stressor %s: context-sensitive solution no longer strictly smaller (off=%d 1cfa=%d 1obj=%d)",
				cur.Stressor.App, cur.Stressor.InsensitiveFacts, cur.Stressor.CfaFacts, cur.Stressor.ObjFacts)
		}

	case len(old.Apps) > 0:
		// Corpus record: behavior exactly, cost within threshold.
		byName := map[string]appRec{}
		for _, a := range cur.Apps {
			byName[a.App] = a
		}
		for _, want := range old.Apps {
			got, ok := byName[want.App]
			if !ok {
				fail("%s: missing from regenerated record", want.App)
				continue
			}
			if got.Findings != want.Findings || got.Warnings != want.Warnings {
				fail("%s: findings/warnings %d/%d, baseline %d/%d",
					want.App, got.Findings, got.Warnings, want.Findings, want.Warnings)
			}
		}
		if len(cur.Apps) != len(old.Apps) {
			fail("app count %d, baseline %d", len(cur.Apps), len(old.Apps))
		}
		if old.TotalWorkMs > 0 {
			limit := old.TotalWorkMs * (1 + *threshold)
			fmt.Printf("%s: totalWorkMs %.1f vs baseline %.1f (limit %.1f)\n",
				flag.Arg(1), cur.TotalWorkMs, old.TotalWorkMs, limit)
			if cur.TotalWorkMs > limit {
				fail("totalWorkMs %.1f exceeds baseline %.1f by more than %.0f%%",
					cur.TotalWorkMs, old.TotalWorkMs, *threshold*100)
			}
		}

	case old.OptSpeedup > 0:
		// Solver record: two same-machine ratios, each gated by its own
		// hard floor. Unlike the single-ratio records below, no relative
		// threshold applies: each ratio divides two separately-measured
		// times, so its run-to-run noise is the *sum* of both sides' and
		// routinely exceeds 15% on busy runners without any code change.
		// The baseline comparison is printed for trend reading.
		fmt.Printf("%s: opt speedup %.2fx vs baseline %.2fx (floor %.1fx); incremental %.2fx (floor %.1fx)\n",
			flag.Arg(1), cur.OptSpeedup, old.OptSpeedup, optSpeedupFloor,
			cur.IncSpeedup, speedupFloor)
		if cur.OptSpeedup < optSpeedupFloor {
			fail("optimized-engine speedup %.2fx below the %.1fx floor", cur.OptSpeedup, optSpeedupFloor)
		}
		if cur.IncSpeedup < speedupFloor {
			fail("large-app incremental speedup %.2fx below the %.1fx floor", cur.IncSpeedup, speedupFloor)
		}

	case old.TelemetryOnMs > 0:
		// Observability record: the telemetry layer's request-latency
		// overhead, gated by the absolute ceiling. Like the solver ratios,
		// no relative-to-baseline threshold applies — the percentage divides
		// two independently measured latency sums, so run-to-run noise would
		// trip a relative gate without any code change. The baseline figure
		// is printed for trend reading; the ceiling is the contract.
		fmt.Printf("%s: telemetry overhead %.2f%% vs baseline %.2f%% (ceiling %.1f%%); on %.1fms off %.1fms\n",
			flag.Arg(1), cur.OverheadPct, old.OverheadPct, obsOverheadCeiling,
			cur.TelemetryOnMs, cur.TelemetryOffMs)
		if cur.TelemetryOnMs == 0 || cur.TelemetryOffMs == 0 {
			fail("regenerated record is not an observability record (on %.1fms, off %.1fms)",
				cur.TelemetryOnMs, cur.TelemetryOffMs)
		} else if cur.OverheadPct > obsOverheadCeiling {
			fail("telemetry overhead %.2f%% exceeds the %.1f%% ceiling", cur.OverheadPct, obsOverheadCeiling)
		}

	case old.ColdP50Ms > 0:
		// Server record: same ratio discipline as the incremental record,
		// with the transport-inclusive floor. Percentiles are printed for
		// trend reading but never gate — they are absolute wall-clock.
		limit := old.Speedup * (1 - *threshold)
		fmt.Printf("%s: session speedup %.2fx vs baseline %.2fx (limit %.2fx, floor %.1fx); cold p50 %.1fms p99 %.1fms (baseline %.1f/%.1f)\n",
			flag.Arg(1), cur.Speedup, old.Speedup, limit, serveSpeedupFloor,
			cur.ColdP50Ms, cur.ColdP99Ms, old.ColdP50Ms, old.ColdP99Ms)
		if cur.Speedup < limit {
			fail("session speedup %.2fx regressed more than %.0f%% from baseline %.2fx",
				cur.Speedup, *threshold*100, old.Speedup)
		}
		if cur.Speedup < serveSpeedupFloor {
			fail("session speedup %.2fx below the %.1fx floor", cur.Speedup, serveSpeedupFloor)
		}

	case old.WarmMs > 0:
		// Incremental record: the speedup ratio is the guarded quantity.
		limit := old.Speedup * (1 - *threshold)
		fmt.Printf("%s: speedup %.2fx vs baseline %.2fx (limit %.2fx, floor %.1fx)\n",
			flag.Arg(1), cur.Speedup, old.Speedup, limit, speedupFloor)
		if cur.Speedup < limit {
			fail("speedup %.2fx regressed more than %.0f%% from baseline %.2fx",
				cur.Speedup, *threshold*100, old.Speedup)
		}
		if cur.Speedup < speedupFloor {
			fail("speedup %.2fx below the %.1fx floor", cur.Speedup, speedupFloor)
		}

	default:
		fmt.Fprintf(os.Stderr, "benchdiff: %s: unrecognized record shape\n", flag.Arg(0))
		os.Exit(2)
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchdiff: REGRESSION:", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchdiff: ok")
}
