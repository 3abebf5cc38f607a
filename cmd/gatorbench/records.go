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
	"slices"
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
// batch_speedup_j2 is what batch parallelism (-j) buys.
func measureCorpus(workers int) (*metrics.Record, error) {
	inputs := corpusInputs("")
	batch := gator.AnalyzeBatch(inputs, gator.BatchOptions{Workers: workers})
	rec := &metrics.Record{Metrics: []metrics.Metric{
		metric("total_work_ms", "ms", "lower", ms(batch.Stats.TotalWork()), metrics.Relative(0.15)),
		metric("batch_wall_ms", "ms", "lower", ms(batch.Stats.Wall)),
		metric("batch_speedup", "x", "higher", batch.Stats.Speedup()),
		metric("batch_speedup_j2", "x", "higher", batchSpeedupJ2(inputs), metrics.Floor(1.15)),
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

// batchPairs is the number of one-worker/two-worker pairs of corpus
// batches behind batch_speedup_j2. Single pairs on a 2-core box read
// 0.8x to 2.0x; the median of 11 read 1.10x to 1.49x in 13 runs.
const batchPairs = 11

// batchSpeedupJ2 is the wall time of the corpus batch at one worker over
// its wall time at two, whatever -j says: the median over batchPairs
// pairs, each run back to back with the two widths taking turns to go
// first, so the box's speed drift over the run cancels within a pair.
func batchSpeedupJ2(inputs []gator.BatchInput) float64 {
	ratios := make([]float64, batchPairs)
	for i := range ratios {
		var wall [2]time.Duration // by width - 1
		for k := range wall {
			w := (i + k) % 2
			wall[w] = gator.AnalyzeBatch(inputs, gator.BatchOptions{Workers: w + 1}).Stats.Wall
		}
		ratios[i] = float64(wall[0]) / float64(wall[1])
	}
	return median(ratios)
}

// measureIncremental is BENCH_4: one body edit on a 62-unit modular app,
// warm (AnalyzeIncremental resuming the retained fact base) vs cold (Load +
// Analyze), minimum over 10 edits. The speedup is a same-machine ratio, so
// it carries across runner hardware in a way milliseconds do not. The
// growth rows follow one chain of 2,000 such edits (measureGrowth).
func measureIncremental(int) (*metrics.Record, error) {
	const nActs, edits = 30, 10 // nActs: keep in sync with benchEditSize (incremental_bench_test.go)
	c, err := measureEdits(nActs, edits)
	if err != nil {
		return nil, err
	}
	gr, err := measureGrowth(nActs)
	if err != nil {
		return nil, err
	}
	early, late := gr.at[0], gr.at[1]
	return &metrics.Record{
		Metrics: []metrics.Metric{
			metric("speedup", "x", "higher", float64(c.cold)/float64(c.warm), metrics.Relative(0.15), metrics.Floor(5)),
			metric("cold_ms", "ms", "lower", ms(c.cold)),
			metric("warm_ms", "ms", "lower", ms(c.warm)),
			metric("retained", "count", "", float64(c.last.Retained), metrics.Exact()),
			metric("retracted", "count", "", float64(c.last.Retracted), metrics.Exact()),
			metric(fmt.Sprintf("slots_edit%d", early.edit), "count", "lower", float64(early.slots), metrics.Exact()),
			metric(fmt.Sprintf("var_ids_edit%d", early.edit), "count", "lower", float64(early.varIDs), metrics.Exact()),
			metric(fmt.Sprintf("slots_edit%d", late.edit), "count", "lower", float64(late.slots), metrics.Exact()),
			metric(fmt.Sprintf("var_ids_edit%d", late.edit), "count", "lower", float64(late.varIDs), metrics.Exact()),
			metric("edit_alloc_growth", "x", "lower", late.allocB/early.allocB, metrics.Ceiling(1.25)),
			metric("live_heap_b_per_edit", "B", "lower", (late.heapB-early.heapB)/float64(late.edit-early.edit), metrics.Ceiling(2048)),
			metric("edit_time_growth", "x", "lower", float64(late.time)/float64(early.time)),
		},
		Detail: map[string]any{
			"app": fmt.Sprintf("modular-%d", nActs), "units": c.units, "edits": edits,
			"chain": map[string]any{
				"edits": late.edit, "window": growthWindow, "cold_slots": gr.coldSlots, "cold_var_ids": gr.coldVarIDs,
				"edit_ms":       []float64{ms(early.time), ms(late.time)},
				"edit_alloc_kb": []float64{early.allocB / 1024, late.allocB / 1024},
				"live_heap_mb":  []float64{early.heapB / (1 << 20), late.heapB / (1 << 20)},
			},
		},
	}, nil
}

// growthWindow is the number of consecutive edits whose median per-edit
// time and allocation stand for one measured edit: the edits within 10 of
// it, or the first 21 for an edit closer to the chain's start.
const growthWindow = 21

// editPoint is the state of a chain of warm edits at one edit: the id
// spaces after it, the live heap after a forced collection, and the median
// per-edit time and allocation over its window.
type editPoint struct {
	edit          int
	slots, varIDs int
	heapB, allocB float64
	time          time.Duration
}

// growth is measureGrowth's result: the cold analysis's id spaces and the
// chain at edits 10 and 2,000.
type growth struct {
	coldSlots, coldVarIDs int
	at                    [2]editPoint
}

// measureGrowth chains 2,010 warm edits of ModularApp(nActs), alternating
// corpus.ModularEdits as a gatord session takes serve's patches, and
// measures the chain at edit 10 and at edit 2,000, far past the point where
// retraction has retired as many ids as are live. A session that reused no
// ids grew 39 node slots, 15 variable ids and about 11 KB of live heap per
// edit.
func measureGrowth(nActs int) (growth, error) {
	points := [2]int{10, 2000}
	sources, layouts := corpus.ModularApp(nActs)
	versions := corpus.ModularEdits(sources)
	cache := gator.NewCache()
	prev, err := gator.AnalyzeIncremental(nil, sources, layouts, gator.Options{}, cache)
	if err != nil {
		return growth{}, err
	}
	var gr growth
	gr.coldSlots, gr.coldVarIDs = prev.IDSpace()
	last := points[1] + growthWindow/2
	times := make([]float64, last+1)
	allocs := make([]float64, last+1)
	var mem runtime.MemStats
	for i := 1; i <= last; i++ {
		sources["act1.alite"] = versions[(i-1)%2]
		runtime.ReadMemStats(&mem)
		before := mem.TotalAlloc
		start := time.Now()
		res, err := gator.AnalyzeIncremental(prev, sources, layouts, gator.Options{}, cache)
		times[i] = float64(time.Since(start))
		if err != nil {
			return gr, err
		}
		runtime.ReadMemStats(&mem)
		allocs[i] = float64(mem.TotalAlloc - before)
		if st := res.Incremental(); st.Mode != "warm" {
			return gr, fmt.Errorf("chained edit %d fell back to %q (%s)", i, st.Mode, st.Reason)
		}
		for k, at := range points {
			if i == at {
				runtime.GC()
				runtime.ReadMemStats(&mem)
				gr.at[k] = editPoint{edit: at, heapB: float64(mem.HeapAlloc)}
				gr.at[k].slots, gr.at[k].varIDs = res.IDSpace()
			}
		}
		prev = res
	}
	for k := range gr.at {
		p := &gr.at[k]
		lo := max(1, p.edit-growthWindow/2)
		p.allocB = median(allocs[lo : lo+growthWindow])
		p.time = time.Duration(median(times[lo : lo+growthWindow]))
	}
	return gr, nil
}

// median returns the middle one of an odd number of samples, which it
// leaves unsorted.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
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
