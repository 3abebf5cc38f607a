package gator

import (
	"slices"
	"sync"
	"testing"
	"time"

	"gator/internal/corpus"
	"gator/internal/trace"
)

// stageNames lists a stage log's names in order.
func stageNames(log trace.Log) []string {
	var out []string
	for _, t := range log {
		out = append(out, t.Stage)
	}
	return out
}

// afterLower sums the wall time of the entries after the log's lower stage.
func afterLower(t *testing.T, log trace.Log) time.Duration {
	t.Helper()
	i := slices.IndexFunc(log, func(e trace.Timing) bool { return e.Stage == trace.StageLower })
	if i < 0 {
		t.Fatalf("stage log %v has no lower stage", stageNames(log))
	}
	return log[i+1:].Total()
}

// TestResultStages: every path records its stages in the result, and
// Elapsed is the sum of the stages after lower on each of them — build and
// solve cold and scratch, retract, rebuild and solve warm, and nothing for
// an unchanged input.
func TestResultStages(t *testing.T) {
	sources, layouts := corpus.ModularApp(4)
	check := func(name string, res *Result, want ...string) {
		t.Helper()
		if got := stageNames(res.Stages()); !slices.Equal(got, want) {
			t.Fatalf("%s: stages = %v, want %v", name, got, want)
		}
		for _, st := range res.Stages() {
			if st.Wall <= 0 {
				t.Errorf("%s: stage %s has wall %v", name, st.Stage, st.Wall)
			}
		}
		if got, want := res.Elapsed(), afterLower(t, res.Stages()); got != want {
			t.Errorf("%s: Elapsed = %v, want the stages after lower, %v", name, got, want)
		}
	}
	cold := mustAnalyze(t, sources, layouts, Options{})
	check("cold", cold, "parse", "lower", "build", "solve")

	c := NewCache()
	scratch, err := AnalyzeIncremental(nil, sources, layouts, Options{}, c)
	if err != nil {
		t.Fatal(err)
	}
	check("scratch", scratch, "parse", "lower", "build", "solve")

	edited, editedLayouts := copyInput(sources, layouts)
	edited["act1.alite"] = corpus.ModularEdits(sources)[0]
	warm, err := AnalyzeIncremental(scratch, edited, editedLayouts, Options{}, c)
	if err != nil {
		t.Fatal(err)
	}
	if mode := warm.Incremental().Mode; mode != "warm" {
		t.Fatalf("edit ran %s, want warm", mode)
	}
	check("warm", warm, "parse", "lower", "retract", "rebuild", "solve")

	same, err := AnalyzeIncremental(warm, edited, editedLayouts, Options{}, c)
	if err != nil {
		t.Fatal(err)
	}
	if same.Incremental().Mode != "unchanged" || len(same.Stages()) != 0 || same.Elapsed() != 0 {
		t.Fatalf("unchanged: mode %s, stages %v, elapsed %v; want no stages", same.Incremental().Mode, stageNames(same.Stages()), same.Elapsed())
	}
}

// TestConcurrentTracesOwnParseProbes: runs that share one parse cache
// concurrently each trace exactly their own lookups — one cache probe per
// source file — however the other run's lookups interleave.
func TestConcurrentTracesOwnParseProbes(t *testing.T) {
	srcA, layA := corpus.ModularApp(15)
	srcB, layB := corpus.ModularApp(25)
	for round := 0; round < 5; round++ {
		c := NewCache()
		var wg sync.WaitGroup
		for _, in := range []struct{ sources, layouts map[string]string }{{srcA, layA}, {srcB, layB}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sink := &trace.Collect{}
				opts := Options{Trace: trace.New(sink).Scope("app", 0)}
				if _, err := AnalyzeIncremental(nil, in.sources, in.layouts, opts, c); err != nil {
					t.Error(err)
					return
				}
				probes := 0
				for _, ev := range sink.Events() {
					if ev.Kind == trace.KindCache && ev.Name == "parse" {
						probes++
					}
				}
				if probes != len(in.sources) {
					t.Errorf("round %d: trace holds %d parse probes for %d source files", round, probes, len(in.sources))
				}
			}()
		}
		wg.Wait()
	}
}
