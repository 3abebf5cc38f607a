package metrics

// Batch-analysis instrumentation: per-application stage accounting and
// batch-level throughput summaries, rendered from the stage logs the
// pipeline records (trace.Log; the stage names are internal/trace's). The
// batch engine in the root package fills these in; the CLIs render them
// next to the paper's tables so the cost of scaling beyond the paper's
// one-app-at-a-time evaluation is measured, not guessed.

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"gator/internal/trace"
)

// AppStats is the per-stage accounting for one application in a batch.
type AppStats struct {
	App string
	// Stages is the application's stage log: parse, lower, build and
	// solve, in execution order. A failed app has none.
	Stages trace.Log
	// Iterations is the solver's fixpoint round count (0 when the app never
	// reached the solve stage).
	Iterations int
	// Err is the application's failure, "" on success.
	Err string
}

// FormatPasses renders a check report's pass log, one line per pass (its
// wall time and kept findings, from findings keyed by pass id) plus a
// total.
func FormatPasses(passes trace.Log, findings map[string]int) string {
	var out strings.Builder
	fmt.Fprintf(&out, "%-32s %10s %9s\n", "Pass", "wall", "findings")
	total := 0
	for _, p := range passes {
		id := strings.TrimPrefix(p.Stage, trace.CheckPrefix)
		fmt.Fprintf(&out, "%-32s %10s %9d\n", id, round(p.Wall), findings[id])
		total += findings[id]
	}
	fmt.Fprintf(&out, "%-32s %10s %9d\n", "total", round(passes.Total()), total)
	return out.String()
}

// BatchStats summarizes one batch run.
type BatchStats struct {
	// Workers is the resolved worker-pool size.
	Workers int
	// Wall is the end-to-end batch wall-clock.
	Wall time.Duration
	// AllocBytes is the heap allocated during the batch, summed over all
	// workers (from runtime.MemStats.TotalAlloc; includes any concurrent
	// allocation elsewhere in the process).
	AllocBytes uint64
	// Apps holds the per-application accounting, in input order.
	Apps []AppStats
}

// TotalWork sums the per-application stage wall-clocks: the time a
// single-worker run would need, modulo scheduling. Per-app walls include
// time spent descheduled, so when workers exceed available cores TotalWork
// (and therefore Speedup) overstates the realized parallelism; compare
// BenchmarkBatch/j1 vs /jN wall-clocks for an honest number.
func (b BatchStats) TotalWork() time.Duration {
	var t time.Duration
	for _, a := range b.Apps {
		t += a.Stages.Total()
	}
	return t
}

// Speedup is TotalWork / Wall — the effective parallelism of the run.
func (b BatchStats) Speedup() float64 {
	if b.Wall <= 0 {
		return 0
	}
	return float64(b.TotalWork()) / float64(b.Wall)
}

// Failed counts applications that ended in error.
func (b BatchStats) Failed() int {
	n := 0
	for _, a := range b.Apps {
		if a.Err != "" {
			n++
		}
	}
	return n
}

// FormatBatch renders a batch summary: one line per application with its
// stage breakdown, then the totals line.
func FormatBatch(b BatchStats) string {
	const row = "%-16s %10s %10s %10s %10s %10s  %s\n"
	var out strings.Builder
	fmt.Fprintf(&out, row, "App", trace.StageParse, trace.StageLower, trace.StageBuild, trace.StageSolve, "total", "status")
	for _, a := range b.Apps {
		status := "ok"
		if a.Err != "" {
			status = "ERROR: " + firstLine(a.Err)
		}
		wall := func(stage string) time.Duration { return round(a.Stages.Wall(stage)) }
		fmt.Fprintf(&out, row, a.App, wall(trace.StageParse), wall(trace.StageLower),
			wall(trace.StageBuild), wall(trace.StageSolve), round(a.Stages.Total()), status)
	}
	fmt.Fprintf(&out, "batch: %d apps, %d workers, wall %s, work %s, speedup %.2fx, %s allocated\n",
		len(b.Apps), b.Workers, round(b.Wall), round(b.TotalWork()), b.Speedup(), fmtBytes(b.AllocBytes))
	return out.String()
}

// stableApp and stableBatch are the StableJSON shapes. They carry only
// run-independent fields: no wall-clock, no allocation totals.
type stableApp struct {
	App        string   `json:"app"`
	Stages     []string `json:"stages"`
	Iterations int      `json:"iterations"`
	Status     string   `json:"status"`
	Error      string   `json:"error,omitempty"`
}

type stableBatch struct {
	Workers int         `json:"workers"`
	Failed  int         `json:"failed"`
	Apps    []stableApp `json:"apps"`
}

// StableJSON renders the batch accounting as machine-readable JSON that is
// byte-identical across repeated runs of the same batch: app names in input
// order, stage names, solver iteration counts, and statuses — but no timing
// or allocation figures, which vary run to run (those stay in FormatBatch,
// the human -stats rendering).
func (b BatchStats) StableJSON() ([]byte, error) {
	out := stableBatch{Workers: b.Workers, Failed: b.Failed(), Apps: []stableApp{}}
	for _, a := range b.Apps {
		sa := stableApp{App: a.App, Stages: []string{}, Iterations: a.Iterations, Status: "ok"}
		for _, s := range a.Stages {
			sa.Stages = append(sa.Stages, s.Stage)
		}
		if a.Err != "" {
			sa.Status = "error"
			// Only the first line: panic messages carry a stack trace whose
			// addresses vary run to run.
			sa.Error = firstLine(a.Err)
		}
		out.Apps = append(out.Apps, sa)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
