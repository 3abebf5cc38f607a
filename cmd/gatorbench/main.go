// Command gatorbench regenerates the paper's evaluation (Section 5) over
// the 20-application corpus: Table 1 (application features and constraint
// graph nodes), Table 2 (analysis cost and precision averages), and the
// case-study comparison against the concrete-interpreter oracle. The corpus
// is analyzed as one parallel batch (-j workers); per-app results are
// reported in corpus order regardless of completion order. -records DIR
// also regenerates every checked-in benchmark record (BENCH_*.json) into
// DIR; records.go lists them.
//
// Usage:
//
//	gatorbench [-table 1|2|precision|all] [-app NAME] [-seed N] [-j N] [-stats]
//	           [-filter-casts] [-shared-inflation] [-no-findview3] [-declared-dispatch]
//	           [-ctx off|1cfa] [-trace FILE] [-records DIR]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

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
	ctxMode := flag.String("ctx", "off", "context sensitivity: off or 1cfa (call-site cloning)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "parallel analysis workers")
	stats := flag.Bool("stats", false, "print per-stage batch statistics to stderr")
	recordsDir := flag.String("records", "", "regenerate every checked-in benchmark record (BENCH_*.json) into `dir`, each under its own fixed configuration")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the corpus run to `file`")
	flag.Parse()

	ctx, err := gator.ParseCtxMode(*ctxMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gatorbench: -ctx: %v\n", err)
		os.Exit(2)
	}

	opts := gator.Options{
		FilterCasts:           *filterCasts,
		SharedInflation:       *sharedInfl,
		NoFindView3Refinement: *noFV3,
		DeclaredDispatchOnly:  *declared,
		ContextSensitivity:    ctx,
	}

	bopts := gator.BatchOptions{Workers: *jobs, Options: opts}
	var sink *trace.Collect
	if *traceOut != "" {
		sink = &trace.Collect{}
		bopts.Tracer = trace.New(sink)
	}

	batch := gator.AnalyzeBatch(corpusInputs(*appFilter), bopts)
	if *stats {
		fmt.Fprint(os.Stderr, metrics.FormatBatch(batch.Stats))
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, sink.Events()); err != nil {
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

	if *recordsDir != "" {
		if err := writeRecords(*recordsDir, *jobs); err != nil {
			fmt.Fprintln(os.Stderr, "gatorbench:", err)
			os.Exit(1)
		}
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "gatorbench: %d soundness violation(s) against the oracle\n", violations)
		os.Exit(1)
	}
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
