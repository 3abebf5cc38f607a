// Command gatorbench regenerates the paper's evaluation (Section 5) over
// the 20-application corpus: Table 1 (application features and constraint
// graph nodes), Table 2 (analysis cost and precision averages), and the
// case-study comparison against the concrete-interpreter oracle. The corpus
// is analyzed as one parallel batch (-j workers); per-app results are
// reported in corpus order regardless of completion order.
//
// Usage:
//
//	gatorbench [-table 1|2|precision|all] [-app NAME] [-seed N] [-j N] [-stats]
//	           [-filter-casts] [-shared-inflation] [-no-findview3] [-declared-dispatch]
//	           [-ctx off|1cfa|1obj] [-trace FILE] [-metrics FILE] [-pprof ADDR]
//	           [-benchjson FILE] [-incjson FILE] [-solvejson FILE] [-precjson FILE]
//	           [-servejson FILE] [-obsjson FILE] [-lifejson FILE]
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -pprof serves the standard profiling endpoints
	"os"
	"runtime"
	"strings"
	"time"

	"gator"
	"gator/internal/corpus"
	"gator/internal/metrics"
	"gator/internal/trace"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: 1, 2, precision, or all")
	appFilter := flag.String("app", "", "restrict to one application")
	seed := flag.Int64("seed", 1, "interpreter seed for the precision case study")
	filterCasts := flag.Bool("filter-casts", false, "ablation: cast-based filtering")
	sharedInfl := flag.Bool("shared-inflation", false, "ablation: shared inflation nodes per layout")
	noFV3 := flag.Bool("no-findview3", false, "ablation: disable child-only FindView3 refinement")
	declared := flag.Bool("declared-dispatch", false, "ablation: declared-type-only dispatch")
	ctxMode := flag.String("ctx", "off", "context sensitivity: off, 1cfa (call-site cloning), or 1obj (receiver-object cloning)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "parallel analysis workers")
	stats := flag.Bool("stats", false, "print per-stage batch statistics to stderr")
	benchJSON := flag.String("benchjson", "", "write machine-readable benchmark results to `file`")
	incJSON := flag.String("incjson", "", "write the incremental re-analysis benchmark (single-file edit, warm vs cold) to `file`")
	solveJSON := flag.String("solvejson", "", "write the solver engine benchmark (reference vs CSR+delta, plus >64-unit incremental) to `file`")
	precJSON := flag.String("precjson", "", "write the precision benchmark (solution/oracle ratio per context-sensitivity mode, plus the polymorphic-helper stressor) to `file`")
	serveJSON := flag.String("servejson", "", "write the server benchmark (request latency percentiles, warm session speedup) to `file`")
	obsJSON := flag.String("obsjson", "", "write the telemetry overhead benchmark (request latency with the telemetry layer on vs off) to `file`")
	lifeJSON := flag.String("lifejson", "", "write the lifecycle-checker recall benchmark (per-checker recall over synthesized ordering-bug scenarios plus clean-twin false positives) to `file`")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the corpus run to `file`")
	metricsOut := flag.String("metrics", "", "write the aggregated counter/histogram registry as JSON to `file` (\"-\" for stderr; implies tracing)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar on `addr` (e.g. localhost:6060) for the duration of the run")
	flag.Parse()

	if *pprofAddr != "" {
		// The imports register /debug/pprof/* and /debug/vars on the default
		// mux; the trace registry is published under "gator" below.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "gatorbench: pprof:", err)
			}
		}()
	}

	ctx, ok := gator.ParseCtxMode(*ctxMode)
	if !ok {
		fmt.Fprintf(os.Stderr, "gatorbench: -ctx %q: want off, 1cfa, or 1obj\n", *ctxMode)
		os.Exit(2)
	}

	opts := gator.Options{
		FilterCasts:           *filterCasts,
		SharedInflation:       *sharedInfl,
		NoFindView3Refinement: *noFV3,
		DeclaredDispatchOnly:  *declared,
		ContextSensitivity:    ctx,
	}

	var inputs []gator.BatchInput
	for _, app := range corpus.GenerateAll() {
		if *appFilter != "" && app.Name != *appFilter {
			continue
		}
		inputs = append(inputs, gator.BatchInput{
			Name:    app.Name,
			Sources: app.BatchSources(),
			Layouts: app.LayoutXML(),
		})
	}

	bopts := gator.BatchOptions{Workers: *jobs, Options: opts}
	var sink *trace.Collect
	var reg *metrics.Registry
	if *traceOut != "" || *metricsOut != "" || *pprofAddr != "" {
		sink = &trace.Collect{}
		reg = metrics.NewRegistry()
		bopts.Tracer = trace.New(sink, trace.WithRegistry(reg))
		// Live aggregates for /debug/vars while the batch runs.
		expvar.Publish("gator", expvar.Func(func() any { return reg.Snapshot() }))
	}

	batch := gator.AnalyzeBatch(inputs, bopts)
	if *stats {
		fmt.Fprint(os.Stderr, metrics.FormatBatch(batch.Stats))
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, sink.Events()); err != nil {
			fmt.Fprintln(os.Stderr, "gatorbench:", err)
			os.Exit(1)
		}
	}
	if *metricsOut != "" {
		data, err := reg.JSON()
		if err == nil {
			if *metricsOut == "-" {
				_, err = os.Stderr.Write(data)
			} else {
				err = os.WriteFile(*metricsOut, data, 0o644)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "gatorbench:", err)
			os.Exit(1)
		}
	}

	var rows1 []metrics.Table1Row
	var rows2 []metrics.Table2Row
	var rowsP []metrics.PrecisionRow
	violations := 0
	for _, rep := range batch.Apps {
		if rep.Err != nil {
			fmt.Fprintf(os.Stderr, "gatorbench: %s: %v\n", rep.Name, rep.Err)
			os.Exit(1)
		}
		res := rep.Result
		rows1 = append(rows1, res.Table1())
		rows2 = append(rows2, res.Table2())

		if *table == "precision" || *table == "all" {
			er := res.Explore(*seed)
			rowsP = append(rowsP, metrics.PrecisionRow{
				App:           rep.Name,
				ObservedSites: er.ObservedSites,
				PerfectSites:  er.PerfectSites,
				Violations:    len(er.Violations),
				Steps:         er.Steps,
				Ratio:         er.PrecisionRatio,
			})
			violations += len(er.Violations)
			for _, v := range er.Violations {
				fmt.Fprintf(os.Stderr, "gatorbench: %s: SOUNDNESS VIOLATION: %s\n", rep.Name, v)
			}
		}
	}

	switch *table {
	case "1":
		fmt.Println("Table 1: analyzed applications and relevant constraint graph nodes")
		fmt.Print(metrics.FormatTable1(rows1))
	case "2":
		fmt.Println("Table 2: analysis running time and average solution sizes")
		fmt.Print(metrics.FormatTable2(rows2))
		printReceiverComparison(rows2)
	case "precision":
		fmt.Println("Case study: static solution vs. interpreter oracle")
		fmt.Print(metrics.FormatPrecision(rowsP))
	case "all":
		fmt.Println("Table 1: analyzed applications and relevant constraint graph nodes")
		fmt.Print(metrics.FormatTable1(rows1))
		fmt.Println()
		fmt.Println("Table 2: analysis running time and average solution sizes")
		fmt.Print(metrics.FormatTable2(rows2))
		printReceiverComparison(rows2)
		fmt.Println()
		fmt.Println("Case study: static solution vs. interpreter oracle")
		fmt.Print(metrics.FormatPrecision(rowsP))
	default:
		fmt.Fprintf(os.Stderr, "gatorbench: unknown table %q\n", *table)
		os.Exit(2)
	}

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, batch, *jobs); err != nil {
			fmt.Fprintln(os.Stderr, "gatorbench:", err)
			os.Exit(1)
		}
	}
	if *incJSON != "" {
		if err := writeIncrementalJSON(*incJSON); err != nil {
			fmt.Fprintln(os.Stderr, "gatorbench:", err)
			os.Exit(1)
		}
	}
	if *solveJSON != "" {
		if err := writeSolveJSON(*solveJSON); err != nil {
			fmt.Fprintln(os.Stderr, "gatorbench:", err)
			os.Exit(1)
		}
	}
	if *serveJSON != "" {
		if err := writeServeJSON(*serveJSON, *jobs); err != nil {
			fmt.Fprintln(os.Stderr, "gatorbench:", err)
			os.Exit(1)
		}
	}
	if *obsJSON != "" {
		if err := writeObsJSON(*obsJSON, *jobs); err != nil {
			fmt.Fprintln(os.Stderr, "gatorbench:", err)
			os.Exit(1)
		}
	}
	if *precJSON != "" {
		if err := writePrecisionJSON(*precJSON, *seed, *jobs); err != nil {
			fmt.Fprintln(os.Stderr, "gatorbench:", err)
			os.Exit(1)
		}
	}
	if *lifeJSON != "" {
		if err := writeLifecycleJSON(*lifeJSON, 24); err != nil {
			fmt.Fprintln(os.Stderr, "gatorbench:", err)
			os.Exit(1)
		}
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "gatorbench: %d soundness violation(s) against the oracle\n", violations)
		os.Exit(1)
	}
}

// benchApp is one application's record in the -benchjson output.
type benchApp struct {
	App        string  `json:"app"`
	AnalysisMs float64 `json:"analysisMs"`
	Iterations int     `json:"iterations"`
	ChecksMs   float64 `json:"checksMs"`
	Findings   int     `json:"findings"`
	Warnings   int     `json:"warnings"`
}

// benchOutput is the -benchjson file shape: corpus-wide per-app analysis
// and diagnostics cost, plus batch parallelism numbers — the repo's
// recorded performance trajectory across PRs.
type benchOutput struct {
	GeneratedAt string     `json:"generatedAt"`
	Workers     int        `json:"workers"`
	BatchWallMs float64    `json:"batchWallMs"`
	TotalWorkMs float64    `json:"totalWorkMs"`
	Speedup     float64    `json:"speedup"`
	Apps        []benchApp `json:"apps"`
}

func writeBenchJSON(path string, batch *gator.BatchResult, workers int) error {
	out := benchOutput{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Workers:     workers,
		BatchWallMs: ms(batch.Stats.Wall),
		TotalWorkMs: ms(batch.Stats.TotalWork()),
		Speedup:     batch.Stats.Speedup(),
	}
	for _, rep := range batch.Apps {
		if rep.Err != nil {
			continue
		}
		start := time.Now()
		cr, err := rep.Result.CheckReport()
		if err != nil {
			return err
		}
		out.Apps = append(out.Apps, benchApp{
			App:        rep.Name,
			AnalysisMs: ms(rep.Result.Elapsed()),
			Iterations: rep.Result.Iterations(),
			ChecksMs:   ms(time.Since(start)),
			Findings:   len(cr.Findings),
			Warnings:   cr.Warnings(),
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// incBenchOutput is the -incjson file shape (BENCH_4.json): the cost of
// re-analyzing after a single-file body edit, warm (AnalyzeIncremental
// resuming the retained fact base) vs cold (Load + Analyze from scratch),
// on a mid-sized modular app. (The paged unit bitsets no longer cap how
// many units dependency tracking covers; the -solvejson benchmark records
// the same measurement on a 502-unit app.)
// Speedup is the recorded incremental-solving win; the nightly
// benchdiff gate fails when it regresses below 5x or by more than the
// threshold against the checked-in record.
type incBenchOutput struct {
	GeneratedAt string  `json:"generatedAt"`
	App         string  `json:"app"`
	Units       int     `json:"units"`
	Edits       int     `json:"edits"`
	ColdMs      float64 `json:"coldMs"`
	WarmMs      float64 `json:"warmMs"`
	Speedup     float64 `json:"speedup"`
	Retained    int     `json:"retained"`
	Retracted   int     `json:"retracted"`
}

// writeIncrementalJSON measures the incremental-edit benchmark: the same
// alternating body-only edit the BenchmarkIncrementalEdit/BenchmarkScratchEdit
// pair in incremental_bench_test.go runs, timed here over a fixed number of
// edits with the minimum per-edit time reported (minimum, not mean, to shed
// scheduler noise on shared CI runners).
func writeIncrementalJSON(path string) error {
	const nActs = 30 // keep in sync with benchEditSize (incremental_bench_test.go)
	const edits = 10
	sources, layouts := corpus.ModularApp(nActs)
	base := sources["act1.alite"]
	va := strings.Replace(base, "\t\tthis.stash = back;\n", "\t\tthis.stash = btn;\n", 1)
	vb := strings.Replace(base, "\t\tthis.stash = back;\n", "\t\tthis.stash = p;\n", 1)
	if va == base || vb == base {
		return fmt.Errorf("incjson: edit variants did not apply to act1.alite")
	}
	edit := func(i int) {
		if i%2 == 0 {
			sources["act1.alite"] = va
		} else {
			sources["act1.alite"] = vb
		}
	}

	// Cold baseline: each edit handled the way a non-incremental pipeline
	// must — re-load everything and solve from scratch.
	cold := time.Duration(1<<63 - 1)
	for i := 0; i < edits; i++ {
		edit(i)
		start := time.Now()
		app, err := gator.Load(sources, layouts)
		if err != nil {
			return err
		}
		app.Analyze(gator.Options{})
		if d := time.Since(start); d < cold {
			cold = d
		}
	}

	// Warm path: chained AnalyzeIncremental with a shared parse cache.
	sources["act1.alite"] = base
	c := gator.NewCache()
	prev, err := gator.AnalyzeIncremental(nil, sources, layouts, gator.Options{}, c)
	if err != nil {
		return err
	}
	warm := time.Duration(1<<63 - 1)
	var last gator.IncrementalStats
	for i := 0; i < edits; i++ {
		edit(i)
		start := time.Now()
		res, err := gator.AnalyzeIncremental(prev, sources, layouts, gator.Options{}, c)
		if err != nil {
			return err
		}
		d := time.Since(start)
		last = res.Incremental()
		if last.Mode != "warm" {
			return fmt.Errorf("incjson: edit %d fell back to %q (%s)", i, last.Mode, last.Reason)
		}
		if d < warm {
			warm = d
		}
		prev = res
	}

	out := incBenchOutput{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		App:         fmt.Sprintf("modular-%d", nActs),
		Units:       len(sources) + len(layouts),
		Edits:       edits,
		ColdMs:      ms(cold),
		WarmMs:      ms(warm),
		Speedup:     float64(cold) / float64(warm),
		Retained:    last.Retained,
		Retracted:   last.Retracted,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeTrace writes the collected events in Chrome trace_event format.
func writeTrace(path string, events []trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReceiverComparison puts the measured receivers average next to the
// paper's Table 2 value for the same application.
func printReceiverComparison(rows []metrics.Table2Row) {
	fmt.Println()
	fmt.Println("Receivers average: paper vs. this reproduction")
	fmt.Printf("%-16s %8s %9s\n", "App", "paper", "measured")
	for _, r := range rows {
		spec, ok := corpus.SpecByName(r.App)
		if !ok {
			continue
		}
		fmt.Printf("%-16s %8.2f %9.2f\n", r.App, spec.TargetReceivers, r.AvgReceivers)
	}
}
