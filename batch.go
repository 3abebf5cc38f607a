package gator

// Parallel batch analysis. The paper's evaluation (Section 5) analyzes its
// 20 applications one at a time; AnalyzeBatch fans a set of applications
// across a bounded worker pool. Per-app parallelism is safe because the
// analysis holds no cross-application state: each app gets its own
// ir.Program, constraint graph, and fixpoint solution (see DESIGN.md,
// "Batch analysis & parallelism"), so the per-app solutions are identical
// to sequential runs — a property the differential tests in batch_test.go
// verify byte-for-byte under the race detector.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"gator/internal/metrics"
	"gator/internal/trace"
)

// BatchInput names one application of a batch. Exactly one source should be
// set, checked in this order: Load (a custom loader), Dir (a directory for
// LoadDir), or the in-memory Sources/Layouts maps (for Load).
type BatchInput struct {
	// Name labels the application in results and stats; when "" the loaded
	// app's own name is used.
	Name string
	// Load, when non-nil, supplies the application (overrides Dir/Sources).
	Load func() (*App, error)
	// Dir is an application directory, as for LoadDir.
	Dir string
	// Sources and Layouts are in-memory inputs, as for Load.
	Sources map[string]string
	Layouts map[string]string
}

// BatchOptions configure a batch run.
type BatchOptions struct {
	// Workers bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Options are the per-application analysis options.
	Options Options
	// Tracer, when non-nil, instruments the whole batch: every app gets a
	// per-(app, worker) scope carrying its stage spans (parse, lower, build,
	// solve), parse-cache probes, and the solver's iteration and rule
	// events, so a Chrome trace export renders one lane per worker.
	// Overrides Options.Trace per app.
	Tracer *trace.Tracer
	// Progress, when non-nil, is called once per completed application, in
	// completion order. Calls are serialized; the callback needs no locking.
	Progress func(ProgressEvent)
	// Cache, when non-nil, is shared across all workers: source files with
	// identical content parse once for the whole batch (corpus apps share
	// helper files heavily). It applies to Dir and Sources inputs; custom
	// Load functions manage their own caching.
	Cache *Cache
}

// ProgressEvent reports one application's completion during AnalyzeBatch.
type ProgressEvent struct {
	// Index is the input position; Done counts completed apps so far
	// (including this one) and Total the batch size.
	Index, Done, Total int
	// Name labels the app; Worker is the worker that ran it.
	Name   string
	Worker int
	// Err is the application's failure, nil on success.
	Err error
}

// AppReport is one application's outcome within a batch, in input order.
type AppReport struct {
	// Name is the application label.
	Name string
	// Result is the solution, nil when Err is set.
	Result *Result
	// Err is the application's failure: a load/build error, or a recovered
	// panic from any stage. One failing app never affects the others.
	Err error
	// Stats carries the per-stage accounting: the result's stage log.
	Stats metrics.AppStats
}

// BatchResult is the outcome of AnalyzeBatch.
type BatchResult struct {
	// Apps holds one report per input, in input order — independent of the
	// order in which workers completed them.
	Apps []AppReport
	// Stats summarizes the run (workers, wall, per-app stages, allocation).
	Stats metrics.BatchStats
}

// StatsJSON renders the batch accounting as machine-readable JSON that is
// byte-identical across repeated runs of the same batch (no wall-clock or
// allocation fields; see metrics.BatchStats.StableJSON). The human-readable
// timing summary stays in Stats/metrics.FormatBatch.
func (b *BatchResult) StatsJSON() ([]byte, error) {
	return b.Stats.StableJSON()
}

// Failed returns the reports that ended in error.
func (b *BatchResult) Failed() []AppReport {
	var out []AppReport
	for _, r := range b.Apps {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}

// AnalyzeBatch loads and analyzes every input on a bounded worker pool and
// returns per-app results in input order. Each application is fully
// isolated: its frontend, constraint graph, and fixpoint run on one worker
// with no shared mutable state, a panic in any app is recovered into that
// app's Err, and result ordering is independent of scheduling. The zero
// BatchOptions analyzes with the paper's configuration on GOMAXPROCS
// workers.
func AnalyzeBatch(inputs []BatchInput, opts BatchOptions) *BatchResult {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(inputs) {
		workers = len(inputs)
	}
	if workers < 1 {
		workers = 1
	}

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()

	out := &BatchResult{Apps: make([]AppReport, len(inputs))}
	jobs := make(chan int)
	var wg sync.WaitGroup
	var progressMu sync.Mutex
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobs {
				// Writing to a distinct index needs no lock and pins each
				// report to its input position.
				out.Apps[i] = analyzeOne(inputs[i], i, worker, opts)
				if opts.Progress != nil {
					progressMu.Lock()
					done++
					opts.Progress(ProgressEvent{
						Index:  i,
						Done:   done,
						Total:  len(inputs),
						Name:   out.Apps[i].Name,
						Worker: worker,
						Err:    out.Apps[i].Err,
					})
					progressMu.Unlock()
				}
			}
		}(w)
	}
	for i := range inputs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	out.Stats = metrics.BatchStats{
		Workers:    workers,
		Wall:       time.Since(start),
		AllocBytes: memAfter.TotalAlloc - memBefore.TotalAlloc,
		Apps:       make([]metrics.AppStats, len(out.Apps)),
	}
	for i := range out.Apps {
		out.Stats.Apps[i] = out.Apps[i].Stats
	}
	return out
}

// batchLabel names an input for trace scopes before the app is loaded.
func batchLabel(in BatchInput, index int) string {
	switch {
	case in.Name != "":
		return in.Name
	case in.Dir != "":
		return filepath.Base(in.Dir)
	}
	return fmt.Sprintf("app%d", index)
}

// analyzeOne loads and analyzes one application, converting any panic into
// the app's error. When the batch is traced, the stages run under a
// per-(app, worker) scope so exported traces show one lane per worker.
func analyzeOne(in BatchInput, index, worker int, batchOpts BatchOptions) (rep AppReport) {
	opts := batchOpts.Options
	if scope := batchOpts.Tracer.Scope(batchLabel(in, index), worker); scope.Enabled() {
		opts.Trace = scope
	}
	rep.Name = in.Name
	rep.Stats.App = in.Name
	defer func() {
		if p := recover(); p != nil {
			rep.Result = nil
			rep.Err = fmt.Errorf("gator: %s: panic during analysis: %v\n%s", rep.Name, p, debug.Stack())
			rep.Stats.Err = rep.Err.Error()
		}
	}()

	var app *App
	var err error
	switch {
	case in.Load != nil:
		app, err = in.Load()
	case in.Dir != "":
		app, err = loadDir(in.Dir, batchOpts.Cache, opts.Trace)
	default:
		app, err = loadApp(in.Sources, in.Layouts, batchOpts.Cache, opts.Trace)
	}
	if err != nil {
		rep.Err = err
		rep.Stats.Err = err.Error()
		return rep
	}
	if in.Name != "" {
		app.Name = in.Name
	} else {
		rep.Name = app.Name
		rep.Stats.App = app.Name
	}

	res := app.Analyze(opts)
	rep.Stats.Stages = res.Stages()
	rep.Stats.Iterations = res.Iterations()
	rep.Result = res
	return rep
}
