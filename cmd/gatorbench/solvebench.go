package main

// The -solvejson benchmark (BENCH_6.json): the solver hot-path campaign's
// recorded numbers. Part one solves a 501-unit chain-shaped application —
// one outer fixpoint iteration per findViewById chain stage, ~26 in all, so
// the delta operation worklist and the CSR propagation arrays actually pay
// off — under both engines: the
// reference schedule (Options.ReferenceSolver) and the default CSR+delta
// engine. Part two measures incremental
// re-analysis (warm vs cold) on a 502-unit modular application, far past
// the former 64-unit dependency-tracking budget. Only the solve phase is
// timed for the engine comparison (extracted from trace phase events);
// parsing, IR construction, and graph building are identical across
// engines and would only dilute the ratio.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"gator"
	"gator/internal/corpus"
	"gator/internal/trace"
)

// solveBenchRuns is the per-configuration repetition count; the minimum is
// reported (minimum, not mean, to shed scheduler noise on shared runners).
const solveBenchRuns = 3

// solveBenchOutput is the -solvejson file shape.
type solveBenchOutput struct {
	GeneratedAt string `json:"generatedAt"`
	Cores       int    `json:"cores"`

	// Engine comparison on the chain-shaped app.
	App        string  `json:"app"`
	Units      int     `json:"units"`
	Iterations int     `json:"iterations"`
	RefMs      float64 `json:"refMs"`
	OptMs      float64 `json:"optMs"`
	// OptSpeedup is the campaign headline: reference schedule vs the
	// CSR+delta engine, same machine, same solution.
	OptSpeedup float64 `json:"optSpeedup"`

	// Incremental warm-vs-cold on a >64-unit app.
	IncApp     string  `json:"incApp"`
	IncUnits   int     `json:"incUnits"`
	IncColdMs  float64 `json:"incColdMs"`
	IncWarmMs  float64 `json:"incWarmMs"`
	IncSpeedup float64 `json:"incSpeedup"`
}

// solvePhaseMs extracts the "solve" phase duration from collected events.
func solvePhaseMs(events []trace.Event) (float64, error) {
	var begin time.Duration
	haveBegin := false
	for _, ev := range events {
		if ev.Name != "solve" {
			continue
		}
		switch ev.Kind {
		case trace.KindPhaseBegin:
			begin, haveBegin = ev.TS, true
		case trace.KindPhaseEnd:
			if haveBegin {
				return ms(ev.TS - begin), nil
			}
		}
	}
	return 0, fmt.Errorf("solvejson: no solve phase in trace")
}

// timeSolve loads the app fresh and returns the solve-phase time and
// iteration count under opts, minimized over solveBenchRuns runs.
func timeSolve(sources, layouts map[string]string, opts gator.Options) (float64, int, error) {
	best := 0.0
	iters := 0
	for run := 0; run < solveBenchRuns; run++ {
		app, err := gator.Load(sources, layouts)
		if err != nil {
			return 0, 0, err
		}
		sink := &trace.Collect{}
		opts.Trace = trace.New(sink).Scope("solvebench", 0)
		res := app.Analyze(opts)
		d, err := solvePhaseMs(sink.Events())
		if err != nil {
			return 0, 0, err
		}
		if run == 0 || d < best {
			best = d
		}
		iters = res.Iterations()
	}
	return best, iters, nil
}

func writeSolveJSON(path string) error {
	const nAct, depth = 250, 24
	sources, layouts := corpus.ModularChainApp(nAct, depth)

	out := solveBenchOutput{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Cores:       runtime.NumCPU(),
		App:         fmt.Sprintf("modular-chain-%dx%d", nAct, depth),
		Units:       len(sources) + len(layouts),
	}

	var err error
	if out.RefMs, out.Iterations, err = timeSolve(sources, layouts, gator.Options{ReferenceSolver: true}); err != nil {
		return err
	}
	if out.OptMs, _, err = timeSolve(sources, layouts, gator.Options{}); err != nil {
		return err
	}
	out.OptSpeedup = out.RefMs / out.OptMs

	if err := solveBenchIncremental(&out); err != nil {
		return err
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// solveBenchIncremental measures a single-file body edit on a 502-unit
// modular app: warm AnalyzeIncremental vs cold Load+Analyze. The former
// 64-unit budget forced exactly this shape to scratch; the paged bitsets
// make it warm.
func solveBenchIncremental(out *solveBenchOutput) error {
	const nActs = 250
	sources, layouts := corpus.ModularApp(nActs)
	out.IncApp = fmt.Sprintf("modular-%d", nActs)
	out.IncUnits = len(sources) + len(layouts)

	base := sources["act1.alite"]
	va := strings.Replace(base, "\t\tthis.stash = back;\n", "\t\tthis.stash = btn;\n", 1)
	vb := strings.Replace(base, "\t\tthis.stash = back;\n", "\t\tthis.stash = p;\n", 1)
	if va == base || vb == base {
		return fmt.Errorf("solvejson: edit variants did not apply to act1.alite")
	}
	edit := func(i int) {
		if i%2 == 0 {
			sources["act1.alite"] = va
		} else {
			sources["act1.alite"] = vb
		}
	}

	cold := 0.0
	for i := 0; i < solveBenchRuns; i++ {
		edit(i)
		start := time.Now()
		app, err := gator.Load(sources, layouts)
		if err != nil {
			return err
		}
		app.Analyze(gator.Options{})
		if d := ms(time.Since(start)); i == 0 || d < cold {
			cold = d
		}
	}

	sources["act1.alite"] = base
	c := gator.NewCache()
	prev, err := gator.AnalyzeIncremental(nil, sources, layouts, gator.Options{}, c)
	if err != nil {
		return err
	}
	warm := 0.0
	for i := 0; i < solveBenchRuns; i++ {
		edit(i)
		start := time.Now()
		res, err := gator.AnalyzeIncremental(prev, sources, layouts, gator.Options{}, c)
		if err != nil {
			return err
		}
		d := ms(time.Since(start))
		if st := res.Incremental(); st.Mode != "warm" {
			return fmt.Errorf("solvejson: edit %d fell back to %q (%s)", i, st.Mode, st.Reason)
		}
		if i == 0 || d < warm {
			warm = d
		}
		prev = res
	}

	out.IncColdMs = cold
	out.IncWarmMs = warm
	out.IncSpeedup = cold / warm
	return nil
}
