package server

// The stage vocabulary end to end: what each analysis route observes in
// stage_duration_us{stage}, and that every stage name a run reports — in
// a trace, a batch's AppStats, a check report or /metrics — is one that
// internal/trace defines.

import (
	"fmt"
	"testing"

	"gator"
	"gator/internal/analysis"
	"gator/internal/corpus"
	"gator/internal/metrics"
	"gator/internal/trace"
)

// TestStageObservationsPerRoute: every analysis route observes the stages
// its result recorded, plus queue and render — a session's loading under
// parse and lower, not solve.
func TestStageObservationsPerRoute(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	sources, layouts := corpus.ModularApp(3)
	edit := map[string]string{"act1.alite": corpus.ModularEdits(sources)[0]}

	var session string
	steps := []struct {
		name string
		run  func() (*AnalyzeResponse, error)
		mode string         // the response's incremental mode, when a session route
		want map[string]int // observations added per stage; absent stages add none
	}{
		{"cold analyze", func() (*AnalyzeResponse, error) {
			return c.Analyze(AnalyzeRequest{Sources: sources, Layouts: layouts, NoCache: true})
		}, "", map[string]int{"queue": 1, "parse": 1, "lower": 1, "build": 1, "solve": 1, "render": 1}},
		{"session create", func() (*AnalyzeResponse, error) {
			resp, err := c.OpenSession(AnalyzeRequest{Sources: sources, Layouts: layouts})
			if err == nil {
				session = resp.SessionID
			}
			return resp, err
		}, "scratch", map[string]int{"queue": 1, "parse": 1, "lower": 1, "build": 1, "solve": 1, "render": 1}},
		{"warm patch", func() (*AnalyzeResponse, error) {
			return c.PatchSession(session, PatchRequest{Sources: edit})
		}, "warm", map[string]int{"queue": 1, "parse": 1, "lower": 1, "retract": 1, "rebuild": 1, "solve": 1, "render": 1}},
		{"unchanged patch", func() (*AnalyzeResponse, error) {
			return c.PatchSession(session, PatchRequest{Sources: edit})
		}, "unchanged", map[string]int{"queue": 1, "render": 1}},
	}
	counts := func() map[string]int64 {
		snap := srv.Registry().Snapshot()
		out := map[string]int64{}
		for _, st := range trace.Stages {
			out[st] = snap.Histograms[stageMetric(st)].Count
		}
		return out
	}
	for _, step := range steps {
		before := counts()
		resp, err := step.run()
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if step.mode != "" && (resp.Incremental == nil || resp.Incremental.Mode != step.mode) {
			t.Fatalf("%s: incremental = %+v, want mode %s", step.name, resp.Incremental, step.mode)
		}
		after := counts()
		for _, st := range trace.Stages {
			if got := after[st] - before[st]; got != int64(step.want[st]) {
				t.Errorf("%s: %d %s observations, want %d", step.name, got, st, step.want[st])
			}
		}
	}
}

// TestStageVocabulary pins the one stage vocabulary across a traced batch
// with check reports, a warm incremental run and one request on each
// gatord analysis route: every phase a trace opens, every AppStats stage,
// every check report pass and every stage_duration_us label is a name
// from internal/trace or check: plus a registered pass id, every
// phase-begin has its matching end, and the routes together label every
// stage.
func TestStageVocabulary(t *testing.T) {
	known := map[string]bool{}
	for _, st := range trace.Stages {
		known[st] = true
	}
	for _, id := range analysis.CheckIDs() {
		known[trace.CheckPrefix+id] = true
	}
	checkName := func(where, stage string) {
		t.Helper()
		if !known[stage] {
			t.Errorf("%s: stage %q is not in the vocabulary", where, stage)
		}
	}
	checkTrace := func(where string, events []trace.Event) {
		t.Helper()
		open := map[string][]string{} // phase stack per (app, worker)
		phases := 0
		for _, ev := range events {
			lane := fmt.Sprintf("%s/%d", ev.App, ev.Worker)
			switch ev.Kind {
			case trace.KindPhaseBegin:
				phases++
				checkName(where+" trace", ev.Name)
				open[lane] = append(open[lane], ev.Name)
			case trace.KindPhaseEnd:
				stack := open[lane]
				if len(stack) == 0 || stack[len(stack)-1] != ev.Name {
					t.Errorf("%s: %s ends phase %q, open %v", where, lane, ev.Name, stack)
					continue
				}
				open[lane] = stack[:len(stack)-1]
			}
		}
		for lane, stack := range open {
			if len(stack) > 0 {
				t.Errorf("%s: %s never ends %v", where, lane, stack)
			}
		}
		if phases == 0 {
			t.Errorf("%s: trace opens no phases", where)
		}
	}

	// A traced batch, with each app's check report.
	sink := &trace.Collect{}
	var inputs []gator.BatchInput
	for _, a := range corpus.GenerateAll()[:2] {
		inputs = append(inputs, gator.BatchInput{Name: a.Name, Sources: a.BatchSources(), Layouts: a.LayoutXML()})
	}
	batch := gator.AnalyzeBatch(inputs, gator.BatchOptions{Workers: 2, Tracer: trace.New(sink), Cache: gator.NewCache()})
	for _, rep := range batch.Apps {
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		cr, err := rep.Result.CheckReport()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range cr.Passes {
			checkName("check report", p.Stage)
		}
	}
	for _, a := range batch.Stats.Apps {
		for _, st := range a.Stages {
			checkName("AppStats", st.Stage)
		}
	}
	checkTrace("batch", sink.Events())

	// A warm incremental run.
	sink = &trace.Collect{}
	opts := gator.Options{Trace: trace.New(sink).Scope("modular", 0)}
	sources, layouts := corpus.ModularApp(3)
	cache := gator.NewCache()
	prev, err := gator.AnalyzeIncremental(nil, sources, layouts, opts, cache)
	if err != nil {
		t.Fatal(err)
	}
	edited := map[string]string{}
	for n, src := range sources {
		edited[n] = src
	}
	edited["act1.alite"] = corpus.ModularEdits(sources)[0]
	warm, err := gator.AnalyzeIncremental(prev, edited, layouts, opts, cache)
	if err != nil || warm.Incremental().Mode != "warm" {
		t.Fatalf("warm run: %v, mode %q", err, warm.Incremental().Mode)
	}
	checkTrace("incremental", sink.Events())

	// One request on each gatord analysis route.
	_, c := newTestServer(t, Config{})
	req := AnalyzeRequest{Sources: sources, Layouts: layouts, ReportSpec: ReportSpec{Report: "checks"}}
	if _, err := c.Analyze(req); err != nil {
		t.Fatalf("/v1/analyze: %v", err)
	}
	open, err := c.OpenSession(req)
	if err != nil {
		t.Fatalf("/v1/sessions: %v", err)
	}
	if _, err := c.PatchSession(open.SessionID, PatchRequest{Sources: map[string]string{"act1.alite": edited["act1.alite"]}}); err != nil {
		t.Fatalf("/v1/sessions/{id}: %v", err)
	}

	prom, err := c.MetricsProm()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParsePrometheus(prom)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, s := range fams["gatord_stage_duration_us"].Samples {
		checkName("stage_duration_us", s.Labels["stage"])
		labels[s.Labels["stage"]] = true
	}
	for _, st := range trace.Stages {
		if !labels[st] {
			t.Errorf("stage_duration_us has no %s series after every route ran", st)
		}
	}
}
