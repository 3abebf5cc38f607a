package gator

import (
	"testing"

	"gator/internal/corpus"
)

// benchEditSize is the modular-app size (activities, one compilation unit
// each plus a shared unit) used by the incremental-edit benchmarks and by
// the BENCH_4 record. 30 activities yield 62 compilation units (sources +
// layouts); BenchmarkIncrementalLarge runs the same edit on a 502-unit
// app — the paged unit bitsets put no cap on how many units dependency
// tracking covers.
const benchEditSize = 30

// BenchmarkIncrementalEdit measures re-analysis after a single-file body
// edit on the incremental path: shared parse cache, in-place re-lowering of
// the edited file, and warm re-solving from the retained fact base.
func BenchmarkIncrementalEdit(bm *testing.B) {
	benchIncremental(bm, benchEditSize)
}

// BenchmarkIncrementalLarge is BenchmarkIncrementalEdit at 250 activities
// (502 compilation units): the shape the former 64-unit dependency-tracking
// budget forced to scratch on every edit. BENCH_6 records the
// warm-vs-cold ratio for this size.
func BenchmarkIncrementalLarge(bm *testing.B) {
	benchIncremental(bm, 250)
}

// benchIncremental alternates corpus.ModularEdits of ModularApp(nActs)
// through chained warm re-analyses, so every iteration performs a real edit
// (identical input would short-circuit as "unchanged").
func benchIncremental(bm *testing.B, nActs int) {
	sources, layouts := corpus.ModularApp(nActs)
	edits := corpus.ModularEdits(sources)
	c := NewCache()
	prev, err := AnalyzeIncremental(nil, sources, layouts, Options{}, c)
	if err != nil {
		bm.Fatal(err)
	}
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		sources["act1.alite"] = edits[i%2]
		res, err := AnalyzeIncremental(prev, sources, layouts, Options{}, c)
		if err != nil {
			bm.Fatal(err)
		}
		if mode := res.Incremental().Mode; mode != "warm" {
			bm.Fatalf("iteration %d: mode %q (reason %q), want warm", i, mode, res.Incremental().Reason)
		}
		prev = res
	}
}

// BenchmarkScratchEdit is the baseline the incremental path is judged
// against: the same single-file edit handled the way a non-incremental
// pipeline must — re-load everything and solve from scratch.
func BenchmarkScratchEdit(bm *testing.B) {
	sources, layouts := corpus.ModularApp(benchEditSize)
	edits := corpus.ModularEdits(sources)
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		sources["act1.alite"] = edits[i%2]
		app, err := Load(sources, layouts)
		if err != nil {
			bm.Fatal(err)
		}
		app.Analyze(Options{})
	}
}
