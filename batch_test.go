package gator

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gator/internal/corpus"
	"gator/internal/trace"
)

// corpusInputs converts generated corpus apps into public batch inputs
// (ALite source text plus rendered layout XML — the same form external
// callers use).
func corpusInputs(apps []*corpus.App) []BatchInput {
	inputs := make([]BatchInput, len(apps))
	for i, app := range apps {
		inputs[i] = BatchInput{
			Name:    app.Name,
			Sources: app.BatchSources(),
			Layouts: app.LayoutXML(),
		}
	}
	return inputs
}

// canonical renders a solution deterministically: the full serialized GUI
// model (views, hierarchy = ancestorOf projection, event tuples = flowsTo
// projection, menus, transitions, findings, Table 1 stats) with wall-clock
// stripped, plus the Table 2 precision averages.
func canonical(t *testing.T, res *Result) []byte {
	t.Helper()
	m := res.Model()
	m.Elapsed = "" // the only run-to-run varying field
	data, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	t2 := res.Table2()
	return append(data, fmt.Sprintf(
		"\nreceivers=%.6f parameters=%.6f addview=%v results=%.6f listeners=%.6f\n",
		t2.AvgReceivers, t2.AvgParameters, t2.HasAddView, t2.AvgResults, t2.AvgListeners)...)
}

// TestBatchDeterminism is the differential check: for every corpus app, the
// sequential public API, AnalyzeBatch at one worker, and AnalyzeBatch at
// eight workers must produce byte-identical rendered solutions. Run under
// `go test -race` (scripts/ci.sh) this also proves the batch engine is
// race-free.
func TestBatchDeterminism(t *testing.T) {
	apps := corpus.GenerateAll()
	if testing.Short() {
		apps = apps[:6]
	}
	inputs := corpusInputs(apps)

	// Path 1: the plain sequential API, one app at a time.
	seq := make(map[string][]byte, len(apps))
	for _, in := range inputs {
		app, err := Load(in.Sources, in.Layouts)
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		app.Name = in.Name
		seq[in.Name] = canonical(t, app.Analyze(Options{}))
	}

	// Paths 2 and 3: the batch engine at j=1 and j=8.
	for _, workers := range []int{1, 8} {
		br := AnalyzeBatch(inputs, BatchOptions{Workers: workers})
		if len(br.Apps) != len(inputs) {
			t.Fatalf("j=%d: %d reports for %d inputs", workers, len(br.Apps), len(inputs))
		}
		for i, rep := range br.Apps {
			if rep.Name != inputs[i].Name {
				t.Fatalf("j=%d: report %d is %q, want %q (ordering must match inputs)",
					workers, i, rep.Name, inputs[i].Name)
			}
			if rep.Err != nil {
				t.Fatalf("j=%d: %s: %v", workers, rep.Name, rep.Err)
			}
			got := canonical(t, rep.Result)
			if !bytes.Equal(got, seq[rep.Name]) {
				t.Errorf("j=%d: %s: batch solution differs from sequential solution\nbatch:\n%s\nsequential:\n%s",
					workers, rep.Name, got, seq[rep.Name])
			}
		}
	}
}

// TestBatchPanicIsolation injects a corpus entry whose build panics; it
// must surface as that one app's error while every other app completes.
func TestBatchPanicIsolation(t *testing.T) {
	inputs := corpusInputs(corpus.GenerateAll()[:3])
	bomb := BatchInput{
		Name: "Bomb",
		Load: func() (*App, error) { panic("injected corpus build failure") },
	}
	inputs = append(inputs[:2:2], append([]BatchInput{bomb}, inputs[2:]...)...)

	br := AnalyzeBatch(inputs, BatchOptions{Workers: 4})
	failed := br.Failed()
	if len(failed) != 1 || failed[0].Name != "Bomb" {
		t.Fatalf("Failed() = %v, want exactly the Bomb entry", failed)
	}
	rep := br.Apps[2]
	if rep.Name != "Bomb" || rep.Err == nil || rep.Result != nil {
		t.Fatalf("bomb report = %+v", rep)
	}
	for _, want := range []string{"panic", "injected corpus build failure"} {
		if !strings.Contains(rep.Err.Error(), want) {
			t.Errorf("bomb error %q missing %q", rep.Err, want)
		}
	}
	if br.Stats.Apps[2].Err == "" {
		t.Error("bomb stats carry no error")
	}
	for i, other := range br.Apps {
		if i == 2 {
			continue
		}
		if other.Err != nil || other.Result == nil {
			t.Errorf("%s: batch neighbor of a panicking app failed: %v", other.Name, other.Err)
		}
	}
}

// TestBatchLoadErrors: plain errors (not panics) from every input form are
// reported per-app.
func TestBatchLoadErrors(t *testing.T) {
	inputs := []BatchInput{
		{Name: "BadDir", Dir: "testdata/definitely-missing"},
		{Name: "BadSource", Sources: map[string]string{"x.alite": "class {{{"}},
		{Name: "BadLayout",
			Sources: map[string]string{"x.alite": "class A {\n}\n"},
			Layouts: map[string]string{"main": "<LinearLayout>"}},
		{Name: "Good", Dir: "testdata/notepad"},
	}
	br := AnalyzeBatch(inputs, BatchOptions{})
	if got := len(br.Failed()); got != 3 {
		t.Fatalf("Failed() = %d, want 3", got)
	}
	for i, rep := range br.Apps[:3] {
		if rep.Err == nil {
			t.Errorf("input %d (%s): no error", i, rep.Name)
		}
		if rep.Err != nil && strings.Contains(rep.Err.Error(), "panic") {
			t.Errorf("%s: plain load error reported as panic: %v", rep.Name, rep.Err)
		}
	}
	good := br.Apps[3]
	if good.Err != nil || good.Result == nil {
		t.Fatalf("notepad app failed: %v", good.Err)
	}
	if good.Result.Elapsed() <= 0 {
		t.Error("batch result lost its analysis time")
	}
}

// TestBatchStats: the engine accounts per-stage wall-clock and resolves the
// worker default.
func TestBatchStats(t *testing.T) {
	inputs := corpusInputs(corpus.GenerateAll()[:2])
	br := AnalyzeBatch(inputs, BatchOptions{Workers: -1})
	if br.Stats.Workers < 1 || br.Stats.Workers > len(inputs) {
		t.Errorf("workers = %d", br.Stats.Workers)
	}
	if br.Stats.Wall <= 0 || br.Stats.TotalWork() <= 0 || br.Stats.Speedup() <= 0 {
		t.Errorf("stats = %+v", br.Stats)
	}
	for _, a := range br.Stats.Apps {
		if len(a.Stages) != 4 {
			t.Errorf("%s: stages = %+v, want parse, lower, build, solve", a.App, a.Stages)
		}
		for _, st := range []string{trace.StageParse, trace.StageLower, trace.StageBuild, trace.StageSolve} {
			if a.Stages.Wall(st) <= 0 {
				t.Errorf("%s: missing %s stage: %+v", a.App, st, a.Stages)
			}
		}
	}

	// An empty batch returns immediately rather than deadlocking.
	if empty := AnalyzeBatch(nil, BatchOptions{}); len(empty.Apps) != 0 {
		t.Errorf("empty batch produced %d reports", len(empty.Apps))
	}
}

// TestBatchNameDefaulting: an input without a name inherits the loaded
// app's name.
func TestBatchNameDefaulting(t *testing.T) {
	br := AnalyzeBatch([]BatchInput{{Dir: "testdata/notepad"}}, BatchOptions{})
	if br.Apps[0].Err != nil {
		t.Fatal(br.Apps[0].Err)
	}
	if got := br.Apps[0].Name; got != "notepad" {
		t.Errorf("name = %q, want notepad (from the directory)", got)
	}
	if got := br.Stats.Apps[0].App; got != "notepad" {
		t.Errorf("stats name = %q", got)
	}
}

// TestBatchProgress: the callback fires once per app with a monotonically
// increasing done count, serialized, and covers every input exactly once.
func TestBatchProgress(t *testing.T) {
	inputs := corpusInputs(corpus.GenerateAll()[:6])
	inputs = append(inputs, BatchInput{Name: "Bomb",
		Load: func() (*App, error) { panic("injected") }})

	var events []ProgressEvent
	br := AnalyzeBatch(inputs, BatchOptions{
		Workers: 4,
		// The contract says calls are serialized; appending without a lock
		// under -race proves it.
		Progress: func(ev ProgressEvent) { events = append(events, ev) },
	})
	if len(br.Apps) != len(inputs) {
		t.Fatalf("%d reports", len(br.Apps))
	}
	if len(events) != len(inputs) {
		t.Fatalf("%d progress events for %d inputs", len(events), len(inputs))
	}
	seen := map[int]bool{}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != len(inputs) {
			t.Errorf("event %d: done=%d total=%d", i, ev.Done, ev.Total)
		}
		if seen[ev.Index] {
			t.Errorf("index %d reported twice", ev.Index)
		}
		seen[ev.Index] = true
		if (ev.Name == "Bomb") != (ev.Err != nil) {
			t.Errorf("event %+v: only the bomb should carry an error", ev)
		}
	}
}

// TestBatchTracing: a traced batch tags every event with its app label and a
// valid worker lane, brackets each app's load phase, and streams the
// solver's phase/iteration events — while leaving the solutions identical to
// an untraced run.
func TestBatchTracing(t *testing.T) {
	inputs := corpusInputs(corpus.GenerateAll()[:4])
	sink := &trace.Collect{}
	br := AnalyzeBatch(inputs, BatchOptions{Workers: 2, Tracer: trace.New(sink)})
	plain := AnalyzeBatch(inputs, BatchOptions{Workers: 2})

	for i, rep := range br.Apps {
		if rep.Err != nil {
			t.Fatalf("%s: %v", rep.Name, rep.Err)
		}
		got, want := canonical(t, rep.Result), canonical(t, plain.Apps[i].Result)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: tracing changed the solution", rep.Name)
		}
	}

	byApp := map[string]map[trace.Kind]int{}
	for _, ev := range sink.Events() {
		if ev.App == "" {
			t.Fatalf("unlabeled event %+v", ev)
		}
		if ev.Worker < 0 || ev.Worker >= 2 {
			t.Fatalf("event %+v: worker out of range", ev)
		}
		if byApp[ev.App] == nil {
			byApp[ev.App] = map[trace.Kind]int{}
		}
		byApp[ev.App][ev.Kind]++
	}
	if len(byApp) != len(inputs) {
		t.Fatalf("events cover %d apps, want %d", len(byApp), len(inputs))
	}
	for app, kinds := range byApp {
		if kinds[trace.KindPhaseBegin] < 3 { // load, build, solve
			t.Errorf("%s: %d phase-begin events, want >= 3", app, kinds[trace.KindPhaseBegin])
		}
		if kinds[trace.KindPhaseBegin] != kinds[trace.KindPhaseEnd] {
			t.Errorf("%s: unbalanced phases: %v", app, kinds)
		}
		if kinds[trace.KindIteration] == 0 || kinds[trace.KindRule] == 0 {
			t.Errorf("%s: no solver events: %v", app, kinds)
		}
	}
}
