package main

// BENCH_6, the solver record. Part one solves a 501-unit chain-shaped
// application — one outer fixpoint iteration per findViewById chain stage,
// ~26 in all, so the delta operation worklist actually pays off — under
// both schedules: apply-every-operation (Options.ReferenceSolver) and the
// default delta schedule; opt_speedup is their ratio. Both drain the
// worklist through the same flow propagation loop. Part two
// measures incremental re-analysis (warm vs cold) on a 502-unit modular
// application, far past the former 64-unit dependency-tracking budget.
// Only the solve stage is timed for the schedule comparison (read from the
// result's stage log, with tracing off); parsing, IR construction, and
// graph building are identical across schedules and would only dilute the
// ratio. Both speedups are floor-gated only: each divides two
// independently measured times, so its run-to-run noise is the sum of both
// sides' and a bound relative to the baseline would trip on runner noise
// alone.

import (
	"fmt"

	"gator"
	"gator/internal/corpus"
	"gator/internal/metrics"
	"gator/internal/trace"
)

// solveBenchRuns is the per-configuration repetition count; the minimum is
// reported (minimum, not mean, to shed scheduler noise on shared runners).
const solveBenchRuns = 3

// timeSolve loads the app fresh and returns the solve-stage time and
// iteration count under opts, minimized over solveBenchRuns runs.
func timeSolve(sources, layouts map[string]string, opts gator.Options) (float64, int, error) {
	best := 0.0
	iters := 0
	for run := 0; run < solveBenchRuns; run++ {
		app, err := gator.Load(sources, layouts)
		if err != nil {
			return 0, 0, err
		}
		res := app.Analyze(opts)
		d := ms(res.Stages().Wall(trace.StageSolve))
		if run == 0 || d < best {
			best = d
		}
		iters = res.Iterations()
	}
	return best, iters, nil
}

func measureSolver(int) (*metrics.Record, error) {
	const nAct, depth, incActs = 250, 24, 250
	sources, layouts := corpus.ModularChainApp(nAct, depth)
	refMs, iters, err := timeSolve(sources, layouts, gator.Options{ReferenceSolver: true})
	if err != nil {
		return nil, err
	}
	optMs, _, err := timeSolve(sources, layouts, gator.Options{})
	if err != nil {
		return nil, err
	}
	inc, err := measureEdits(incActs, solveBenchRuns)
	if err != nil {
		return nil, err
	}
	return &metrics.Record{
		Metrics: []metrics.Metric{
			metric("opt_speedup", "x", "higher", refMs/optMs, metrics.Floor(2)),
			metric("inc_speedup", "x", "higher", float64(inc.cold)/float64(inc.warm), metrics.Floor(5)),
			metric("ref_ms", "ms", "lower", refMs),
			metric("opt_ms", "ms", "lower", optMs),
			metric("iterations", "count", "", float64(iters)),
			metric("inc_cold_ms", "ms", "lower", ms(inc.cold)),
			metric("inc_warm_ms", "ms", "lower", ms(inc.warm)),
		},
		Detail: map[string]any{
			"app": fmt.Sprintf("modular-chain-%dx%d", nAct, depth), "units": len(sources) + len(layouts),
			"incApp": fmt.Sprintf("modular-%d", incActs), "incUnits": inc.units,
		},
	}, nil
}
