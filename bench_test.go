package gator

// Benchmark harness for the paper's evaluation (Section 5). One benchmark
// per table/figure:
//
//   - BenchmarkFigure1Analysis — the running example of Figures 1/3/4:
//     constraint graph construction and fixpoint solving.
//   - BenchmarkTable1/<app> — per-application frontend + graph construction
//     (the feature counts of Table 1 are measured from this result).
//   - BenchmarkTable2/<app> — per-application full analysis (the running
//     times of Table 2).
//   - BenchmarkCaseStudy/<app> — the Section 5 case study: dynamic
//     exploration plus oracle comparison.
//   - BenchmarkAblation* — the design-choice ablations listed in DESIGN.md.
//   - BenchmarkChecks — the checks layer alone (Section 6's error checks).
//
// Regenerate the actual tables with: go run ./cmd/gatorbench -table all

import (
	"fmt"
	"runtime"
	"testing"

	"gator/internal/analysis"
	"gator/internal/core"
	"gator/internal/corpus"
	"gator/internal/interp"
	"gator/internal/ir"
	"gator/internal/metrics"
	"gator/internal/oracle"
)

// builtApps caches resolved programs for the corpus (building once keeps
// the per-iteration work equal to what each table measures).
var builtApps = func() map[string]*ir.Program {
	out := map[string]*ir.Program{}
	for _, app := range corpus.GenerateAll() {
		prog, err := ir.Build(app.FreshFiles(), app.FreshLayouts())
		if err != nil {
			panic(err)
		}
		out[app.Name] = prog
	}
	return out
}()

func BenchmarkFigure1Analysis(b *testing.B) {
	prog, err := ir.Build(corpus.Figure1Files(), corpus.Figure1Layouts())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Analyze(prog, core.Options{})
		if len(res.Graph.Infls()) != 6 {
			b.Fatalf("inflation nodes = %d", len(res.Graph.Infls()))
		}
	}
}

// BenchmarkTable1 measures the cost of producing each application's Table 1
// row: frontend (parse + resolve + lower) and graph construction.
func BenchmarkTable1(b *testing.B) {
	for _, app := range corpus.GenerateAll() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prog, err := ir.Build(app.FreshFiles(), app.FreshLayouts())
				if err != nil {
					b.Fatal(err)
				}
				res := core.Analyze(prog, core.Options{})
				row := metrics.Table1(app.Name, res)
				if row.Classes != app.Spec.Classes {
					b.Fatalf("classes = %d, want %d", row.Classes, app.Spec.Classes)
				}
			}
		})
	}
}

// BenchmarkTable2 measures each application's analysis time (the Table 2
// "Time" column); the per-op averages are validated against the corpus
// specs as a side effect.
func BenchmarkTable2(b *testing.B) {
	for _, spec := range corpus.Table1Specs() {
		spec := spec
		prog := builtApps[spec.Name]
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			var row metrics.Table2Row
			for i := 0; i < b.N; i++ {
				res := core.Analyze(prog, core.Options{})
				row = metrics.Table2(spec.Name, res, 0)
			}
			// The receivers average must stay near the paper's value.
			if diff := row.AvgReceivers - spec.TargetReceivers; diff > 1.0 || diff < -1.0 {
				b.Fatalf("receivers = %.2f, paper reports %.2f", row.AvgReceivers, spec.TargetReceivers)
			}
			b.ReportMetric(row.AvgReceivers, "receivers")
		})
	}
}

// BenchmarkCaseStudy runs the Section 5 case-study pipeline (analysis,
// seeded exploration, oracle comparison) for the applications the paper
// examined by hand, plus the XBMC outlier.
func BenchmarkCaseStudy(b *testing.B) {
	for _, name := range []string{"APV", "BarcodeScanner", "SuperGenPass", "XBMC"} {
		name := name
		prog := builtApps[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := core.Analyze(prog, core.Options{})
				obs := interp.New(prog, interp.Config{Seed: 1}).Run()
				rep := oracle.Compare(res, obs)
				if !rep.Sound() {
					b.Fatalf("%s: %d violations", name, len(rep.Violations))
				}
			}
		})
	}
}

// Ablation benchmarks: each compares one design choice on a mid-size app.
func benchAblation(b *testing.B, opts core.Options) {
	prog := builtApps["K9"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.Analyze(prog, opts)
	}
}

func BenchmarkAblationBaseline(b *testing.B) { benchAblation(b, core.Options{}) }

func BenchmarkAblationCastFilter(b *testing.B) {
	benchAblation(b, core.Options{FilterCasts: true})
}

func BenchmarkAblationSharedInflation(b *testing.B) {
	benchAblation(b, core.Options{SharedInflation: true})
}

func BenchmarkAblationNoFindView3Refinement(b *testing.B) {
	benchAblation(b, core.Options{NoFindView3Refinement: true})
}

func BenchmarkAblationDeclaredDispatch(b *testing.B) {
	benchAblation(b, core.Options{DeclaredDispatchOnly: true})
}

func BenchmarkAblationCtx1CFA(b *testing.B) {
	benchAblation(b, core.Options{ContextSensitivity: core.Ctx1CFA})
}

// BenchmarkBatch measures AnalyzeBatch over the full 20-app corpus at one
// worker versus a full worker pool — the parallel-speedup evidence for the
// batch engine (run on a multi-core machine; j1 and jN coincide on one
// core). Inputs are pre-rendered so only the engine is on the clock.
func BenchmarkBatch(b *testing.B) {
	inputs := corpusInputs(corpus.GenerateAll())
	widths := []int{1, runtime.GOMAXPROCS(0)}
	if widths[1] == 1 {
		widths[1] = 4 // still exercise pool scheduling on a single core
	}
	for _, j := range widths {
		j := j
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				br := AnalyzeBatch(inputs, BatchOptions{Workers: j})
				if failed := br.Failed(); len(failed) > 0 {
					b.Fatalf("%s: %v", failed[0].Name, failed[0].Err)
				}
			}
			b.ReportMetric(float64(j), "workers")
		})
	}
}

// Solver-engine benchmarks on the 501-unit chain-shaped modular app, whose
// ~26-iteration fixpoint is deep enough that the engine choice matters.
// BenchmarkSolveReference is the original schedule; BenchmarkSolveOptimized
// is the default CSR + delta-worklist engine. The BENCH_6.json record holds
// the same comparison (solve phase only).
func benchSolveEngine(b *testing.B, opts core.Options) {
	sources, layouts := corpus.ModularChainApp(250, 24)
	app, err := Load(sources, layouts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		iters = core.Analyze(app.prog, opts).Iterations
	}
	b.ReportMetric(float64(iters), "iters")
}

func BenchmarkSolveReference(b *testing.B) {
	benchSolveEngine(b, core.Options{ReferenceSolver: true})
}

func BenchmarkSolveOptimized(b *testing.B) {
	benchSolveEngine(b, core.Options{})
}

// BenchmarkChecks measures the checks layer alone: every registered pass
// (analysis.Run) over the 9 chain apps the repository benchmark's chain
// workload draws from and over Astrid, the largest corpus app, each solved
// once before the timer starts. It is the quick local loop for checker
// work; scripts/ci.sh runs one iteration so that it keeps compiling.
func BenchmarkChecks(b *testing.B) {
	type solved struct {
		name string
		res  *core.Result
	}
	apps := []solved{{"Astrid", core.Analyze(builtApps["Astrid"], core.Options{})}}
	for i := 0; i < 9; i++ {
		nAct, depth := 40+5*i, 12+3*i/2
		app, err := Load(corpus.ModularChainApp(nAct, depth))
		if err != nil {
			b.Fatal(err)
		}
		apps = append(apps, solved{fmt.Sprintf("chain-%d-%d", nAct, depth), core.Analyze(app.prog, core.Options{})})
	}
	b.ReportAllocs()
	b.ResetTimer()
	findings := 0
	for i := 0; i < b.N; i++ {
		findings = 0
		for _, a := range apps {
			rep, err := analysis.Run(a.name, a.res, analysis.Options{})
			if err != nil {
				b.Fatal(err)
			}
			findings += len(rep.Findings)
		}
	}
	b.ReportMetric(float64(findings), "findings")
}

// BenchmarkInterpreter measures the exploration oracle itself.
func BenchmarkInterpreter(b *testing.B) {
	prog := builtApps["ConnectBot"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		interp.New(prog, interp.Config{Seed: int64(i)}).Run()
	}
}

// BenchmarkFrontend measures parsing + resolution + lowering alone.
func BenchmarkFrontend(b *testing.B) {
	app := corpus.Generate(mustSpec("Astrid"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ir.Build(app.FreshFiles(), app.FreshLayouts()); err != nil {
			b.Fatal(err)
		}
	}
}

func mustSpec(name string) corpus.Spec {
	s, ok := corpus.SpecByName(name)
	if !ok {
		panic("no spec " + name)
	}
	return s
}
