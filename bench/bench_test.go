package main

import (
	"maps"
	"slices"
	"sync"
	"testing"
	"time"
)

// testConfig runs a workload at its smallest size: one pass (serve: 1 s),
// one set-up and one traced pass.
func testConfig(workload string, trace bool) config {
	cfg := config{workload: workload, seed: 1, trace: trace, setupReps: 1, tracedPasses: 1}
	if workload == "serve" {
		cfg.window = time.Second
	}
	return cfg
}

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkRun requires every operation to verify and the measured metrics to
// be exactly the declared ones.
func checkRun(t *testing.T, res *result, declared []metricSpec) {
	t.Helper()
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%d of %d ops failed: %v", res.failed, res.attempted, res.failures)
	}
	var want []string
	for _, m := range declared {
		want = append(want, m.Name)
	}
	slices.Sort(want)
	if got := sortedKeys(res.metrics); !slices.Equal(got, want) {
		t.Errorf("measured metrics %v, declared %v", got, want)
	}
	if _, err := summarize(res, declared); err != nil {
		t.Error(err)
	}
}

func TestWorkloadsVerify(t *testing.T) {
	t.Parallel()
	spec := testSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := run(testConfig(w.name, false))
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, res, spec.EndToEnd)
		})
	}
}

// TestTracedCountsRepeat runs the traced pass twice with the same seed: the
// program's work counts must repeat exactly, and the layer spans must
// cover the traced ops.
func TestTracedCountsRepeat(t *testing.T) {
	t.Parallel()
	spec := testSpec(t)
	runs := make([]*result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], errs[i] = run(testConfig("chain", true))
		}()
	}
	wg.Wait()
	for i, res := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		checkRun(t, res, spec.PerLayer)
	}
	for _, name := range []string{"core.iterations", "core.nodes", "core.rule_firings", "dataflow.visits", "checks.findings", "report.bytes"} {
		if a, b := runs[0].metrics[name], runs[1].metrics[name]; a != b || a == 0 {
			t.Errorf("%s: %v then %v, want one nonzero value", name, a, b)
		}
	}
	if c := runs[0].metrics["trace.coverage"]; c < 0.95 {
		t.Errorf("trace.coverage %.3f < 0.95", c)
	}
	if na := runs[0].notApplicable; !slices.Contains(na, "serve.patch_ms_p50") || slices.Contains(na, "core.solve_ms") {
		t.Errorf("a batch traced run marks %v not applicable, want the serve-only metrics", na)
	}
}

// TestServeTraced: the serve traced run measures every serve-only metric,
// including the per-class latencies.
func TestServeTraced(t *testing.T) {
	t.Parallel()
	spec := testSpec(t)
	res, err := run(testConfig("serve", true))
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, res, spec.PerLayer)
	if len(res.notApplicable) != 0 {
		t.Errorf("serve marks %v not applicable", res.notApplicable)
	}
	for _, name := range []string{"serve.cold_ms_p50", "serve.cold_ms_p90", "serve.patch_ms_p50", "serve.patch_ms_p90", "server.http_ms"} {
		if res.metrics[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.metrics[name])
		}
	}
}

// TestLayersMapping: layers.json names, for each end-to-end metric on each
// workload the README's table maps, the layers that should move it.
func TestLayersMapping(t *testing.T) {
	spec := testSpec(t)
	for _, tc := range []struct{ metric, workload, layer string }{
		{"ops_per_s", "chain", "core.solve"},
		{"ops_per_s", "corpus", "core.build"},
		{"latency_ms_p50", "corpus", "alite"},
		{"latency_ms_p50", "serve", "incremental"},
	} {
		if got := spec.expectedLayers(tc.metric, tc.workload); !slices.Contains(got, tc.layer) {
			t.Errorf("expectedLayers(%s, %s) = %v, want %s among them", tc.metric, tc.workload, got, tc.layer)
		}
	}
}

// TestSeedChangesDrawsNotInputSet: the seed changes the chain draws and the
// serve order, never the paper apps.
func TestSeedChangesDrawsNotInputSet(t *testing.T) {
	for _, w := range workloads {
		a, b := w.inputs(1), w.inputs(2)
		if len(a) != len(b) {
			t.Fatalf("%s: %d inputs with seed 1, %d with seed 2", w.name, len(a), len(b))
		}
		same := true
		for i := range a {
			same = same && a[i].Name == b[i].Name && maps.Equal(a[i].Sources, b[i].Sources)
		}
		if want := w.name != "chain"; same != want {
			t.Errorf("%s: inputs identical across seeds = %v, want %v", w.name, same, want)
		}
	}
	if a, b := newClient(0, 1, 21).order, newClient(0, 2, 21).order; slices.Equal(a, b) {
		t.Errorf("serve cold order %v is the same for seeds 1 and 2", a)
	}
}

// TestScales: each round is scaled by calRefMs over the median of the
// calWindow units nearest to it, and the window stays inside the units at
// both ends.
func TestScales(t *testing.T) {
	n := 4 * calWindow
	cal := make([]float64, n)
	for i := range cal {
		cal[i] = calRefMs
		if i >= n/2 {
			cal[i] = 2 * calRefMs // the host halves its speed half way
		}
	}
	got := scales(cal, n, func(r int) int { return r })
	for _, r := range []int{0, n/2 - calWindow} {
		if got[r] != 1 {
			t.Errorf("round %d scale %v, want 1", r, got[r])
		}
	}
	for _, r := range []int{n/2 + calWindow, n - 1} {
		if got[r] != 0.5 {
			t.Errorf("round %d scale %v, want 0.5", r, got[r])
		}
	}
	if got := scales(cal[:3], 1, func(int) int { return 0 }); got[0] != 1 {
		t.Errorf("scale over fewer units than the window: %v, want 1", got[0])
	}
}

// TestCalibrationFixed: the calibration unit does the same work in every
// run, whatever the seed.
func TestCalibrationFixed(t *testing.T) {
	a, b := newCalibration(), newCalibration()
	if !slices.Equal(a.doc, b.doc) || a.work() != b.work() {
		t.Error("two calibrations differ")
	}
	if got := a.measure(2, nil); len(got) != 2*calThreads || slices.Min(got) <= 0 {
		t.Errorf("measure(2) = %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "latency_ms_p50", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		b    []float64
		want string
	}{
		{steady, "no worse"},
		{scale(steady, 1.05), "no worse"},
		{scale(steady, 1.2), "worse"},
		{scale(steady, 0.9), "better"},
		{[]float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}, "unresolved"},
	} {
		if got := judge(lower, steady, tc.b); got != tc.want {
			t.Errorf("judge(%v) = %s, want %s", tc.b, got, tc.want)
		}
	}
}
