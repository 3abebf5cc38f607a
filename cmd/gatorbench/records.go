package main

// The checked-in benchmark records (BENCH_*.json) and the measurements that
// regenerate them with -records DIR. Each measurement runs under its own
// fixed configuration (the paper's Options, the full corpus, oracle seed 1)
// whatever -app, -ctx, -seed or the ablation flags say, so a regenerated
// record measures what its baseline measured. Only -j passes through.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gator"
	"gator/internal/corpus"
	"gator/internal/metrics"
	"gator/internal/trace"
)

// records lists every checked-in record and the measurement that
// regenerates it; ci_workflow_test.go holds it to the checked-in files.
var records = []struct {
	file    string
	measure func(workers int) (*metrics.Record, error)
}{
	{"BENCH_2.json", measureCorpus},
	{"BENCH_4.json", measureIncremental},
	{"BENCH_5.json", measureServe},
	{"BENCH_6.json", measureSolver},
	{"BENCH_7.json", measurePrecision},
	{"BENCH_8.json", measureObs},
	{"BENCH_10.json", measureLifecycle},
}

// writeRecords regenerates every record into dir.
func writeRecords(dir string, workers int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range records {
		rec, err := r.measure(workers)
		if err != nil {
			return fmt.Errorf("%s: %w", r.file, err)
		}
		rec.Record = strings.TrimSuffix(r.file, ".json")
		rec.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		rec.Cores = runtime.NumCPU()
		if err := metrics.WriteRecord(filepath.Join(dir, r.file), rec); err != nil {
			return err
		}
	}
	return nil
}

// metric builds one record row; better is "lower", "higher", or "" for a
// quantity with no preferred direction.
func metric(name, unit, better string, value float64, gates ...metrics.Gate) metrics.Metric {
	return metrics.Metric{Name: name, Unit: unit, Better: better, Value: value, Gates: gates}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// corpusInputs is the paper's corpus as batch inputs, or only the app
// named by filter when it is not empty.
func corpusInputs(filter string) []gator.BatchInput {
	var inputs []gator.BatchInput
	for _, app := range corpus.GenerateAll() {
		if filter == "" || app.Name == filter {
			inputs = append(inputs, gator.BatchInput{Name: app.Name, Sources: app.BatchSources(), Layouts: app.LayoutXML()})
		}
	}
	return inputs
}

// benchApp is one application's entry in BENCH_2's detail.
type benchApp struct {
	App        string  `json:"app"`
	AnalysisMs float64 `json:"analysisMs"`
	Iterations int     `json:"iterations"`
	ChecksMs   float64 `json:"checksMs"`
	Findings   int     `json:"findings"`
	Warnings   int     `json:"warnings"`
}

// measureCorpus is BENCH_2: the corpus analyzed as one batch. Per-app
// findings and warnings must match the baseline exactly (a drift there is
// a behavior change, not noise); total analysis work is the corpus cost.
func measureCorpus(workers int) (*metrics.Record, error) {
	batch := gator.AnalyzeBatch(corpusInputs(""), gator.BatchOptions{Workers: workers})
	rec := &metrics.Record{Metrics: []metrics.Metric{
		metric("total_work_ms", "ms", "lower", ms(batch.Stats.TotalWork()), metrics.Relative(0.15)),
		metric("batch_wall_ms", "ms", "lower", ms(batch.Stats.Wall)),
		metric("batch_speedup", "x", "higher", batch.Stats.Speedup()),
	}}
	var apps []benchApp
	for _, rep := range batch.Apps {
		if rep.Err != nil {
			return nil, fmt.Errorf("%s: %w", rep.Name, rep.Err)
		}
		cr, err := rep.Result.CheckReport()
		if err != nil {
			return nil, err
		}
		a := benchApp{App: rep.Name, AnalysisMs: ms(rep.Result.Elapsed()), Iterations: rep.Result.Iterations(),
			ChecksMs: ms(trace.Log(cr.Passes).Total()), Findings: len(cr.Findings), Warnings: cr.Warnings()}
		apps = append(apps, a)
		rec.Metrics = append(rec.Metrics,
			metric(a.App+".findings", "count", "", float64(a.Findings), metrics.Exact()),
			metric(a.App+".warnings", "count", "", float64(a.Warnings), metrics.Exact()))
	}
	rec.Detail = map[string]any{"workers": workers, "apps": apps}
	return rec, nil
}

// measureIncremental is BENCH_4: one body edit on a 62-unit modular app,
// warm (AnalyzeIncremental resuming the retained fact base) vs cold (Load +
// Analyze), minimum over 10 edits. The speedup is a same-machine ratio, so
// it carries across runner hardware in a way milliseconds do not.
func measureIncremental(int) (*metrics.Record, error) {
	const nActs, edits = 30, 10 // nActs: keep in sync with benchEditSize (incremental_bench_test.go)
	c, err := measureEdits(nActs, edits)
	if err != nil {
		return nil, err
	}
	return &metrics.Record{
		Metrics: []metrics.Metric{
			metric("speedup", "x", "higher", float64(c.cold)/float64(c.warm), metrics.Relative(0.15), metrics.Floor(5)),
			metric("cold_ms", "ms", "lower", ms(c.cold)),
			metric("warm_ms", "ms", "lower", ms(c.warm)),
			metric("retained", "count", "", float64(c.last.Retained), metrics.Exact()),
			metric("retracted", "count", "", float64(c.last.Retracted), metrics.Exact()),
		},
		Detail: map[string]any{"app": fmt.Sprintf("modular-%d", nActs), "units": c.units, "edits": edits},
	}, nil
}

// editCost is the cost of a body edit of ModularApp(nActs), the minimum
// over the runs (minimum, not mean, to shed scheduler noise).
type editCost struct {
	units      int
	cold, warm time.Duration
	last       gator.IncrementalStats // of the last warm edit
}

// measureEdits times runs alternating corpus.ModularEdits of
// ModularApp(nActs): cold re-loads everything and solves from scratch, the
// way a non-incremental pipeline must; warm chains AnalyzeIncremental with
// a shared parse cache, and every edit must stay on the warm path.
func measureEdits(nActs, runs int) (editCost, error) {
	sources, layouts := corpus.ModularApp(nActs)
	base, edits := sources["act1.alite"], corpus.ModularEdits(sources)
	c := editCost{units: len(sources) + len(layouts), cold: math.MaxInt64, warm: math.MaxInt64}
	for i := 0; i < runs; i++ {
		sources["act1.alite"] = edits[i%2]
		start := time.Now()
		app, err := gator.Load(sources, layouts)
		if err != nil {
			return c, err
		}
		app.Analyze(gator.Options{})
		c.cold = min(c.cold, time.Since(start))
	}
	sources["act1.alite"] = base
	cache := gator.NewCache()
	prev, err := gator.AnalyzeIncremental(nil, sources, layouts, gator.Options{}, cache)
	if err != nil {
		return c, err
	}
	for i := 0; i < runs; i++ {
		sources["act1.alite"] = edits[i%2]
		start := time.Now()
		res, err := gator.AnalyzeIncremental(prev, sources, layouts, gator.Options{}, cache)
		if err != nil {
			return c, err
		}
		c.warm = min(c.warm, time.Since(start))
		if c.last = res.Incremental(); c.last.Mode != "warm" {
			return c, fmt.Errorf("edit %d fell back to %q (%s)", i, c.last.Mode, c.last.Reason)
		}
		prev = res
	}
	return c, nil
}
