// Command gator analyzes application directories (*.alite sources plus
// layout XML files) and reports the computed GUI-object solution: views,
// activity content, the view hierarchy, (activity, view, event, handler)
// tuples, Table 1/2 measurements, or a Graphviz rendering of the constraint
// graph (Figures 3 and 4 of the paper).
//
// Usage:
//
//	gator [flags] <app-dir> [<app-dir>...]
//
// With several directories the apps are analyzed as a batch on -j parallel
// workers; one failing app is reported and the rest still complete. With
// -figure1, the embedded running example of the paper is analyzed instead
// of a directory.
//
// With -remote ADDR the CLI becomes a frontend to a running gatord daemon:
// inputs are uploaded over HTTP, reports come back byte-identical to local
// rendering, and -watch pushes coalesced edits into a warm server-side
// session instead of re-analyzing locally.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"gator"
	"gator/internal/cache"
	"gator/internal/corpus"
	"gator/internal/metrics"
	"gator/internal/report"
	"gator/internal/server"
	"gator/internal/trace"
	"gator/internal/watch"
)

func main() {
	reportKind := flag.String("report", "summary", "what to print: summary, views, tuples, hierarchy, activities, transitions, menus, check, checks, sarif, table1, table2, dot, ir, json, explore")
	figure1 := flag.Bool("figure1", false, "analyze the paper's embedded Figure 1 example")
	seed := flag.Int64("seed", 1, "seed for -report explore")
	explain := flag.String("explain", "", "print derivation trees for a variable's solution (Class.method.var), a view id (id:name), or a lifecycle ordering (order:Class.cb1.cb2)")
	filterCasts := flag.Bool("filter-casts", false, "enable cast filtering")
	sharedInfl := flag.Bool("shared-inflation", false, "share inflation nodes per layout")
	noFV3 := flag.Bool("no-findview3", false, "disable the FindView3 child-only refinement")
	ctxMode := flag.String("ctx", "off", "context sensitivity: off or 1cfa (call-site cloning)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "parallel analysis workers for multi-directory batches")
	stats := flag.Bool("stats", false, "print per-stage batch statistics to stderr")
	checksMode := flag.Bool("checks", false, "run the diagnostics engine and print its findings (exit 1 on warnings)")
	only := flag.String("only", "", "comma-separated check IDs or glob patterns, e.g. lifecycle-* (with -checks; default all)")
	sarifOut := flag.String("sarif", "", "write findings as SARIF 2.1.0 to `file` (implies -checks)")
	listChecks := flag.Bool("listchecks", false, "print the checker registry and exit")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the whole run to `file` (open in chrome://tracing or Perfetto)")
	statsJSON := flag.String("stats-json", "", "write byte-stable machine-readable batch stats JSON to `file` (\"-\" for stdout)")
	watchMode := flag.Bool("watch", false, "watch one app directory and re-analyze incrementally on change (debounced: rapid edits coalesce)")
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache `directory`: reprint cached reports for unchanged inputs without re-analyzing")
	cacheMax := flag.Int64("cache-max-bytes", 0, "bound the -cache-dir store; least-recently-used entries are evicted (0 = unbounded)")
	remote := flag.String("remote", "", "send work to the gatord daemon at `addr` instead of analyzing locally")
	flag.Parse()

	if *listChecks {
		fmt.Print(gator.ListChecks())
		os.Exit(0)
	}
	if *sarifOut != "" {
		*checksMode = true
	}

	ctx, err := gator.ParseCtxMode(*ctxMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gator: -ctx: %v\n", err)
		os.Exit(2)
	}

	opts := gator.Options{
		FilterCasts:           *filterCasts,
		SharedInflation:       *sharedInfl,
		NoFindView3Refinement: *noFV3,
		ContextSensitivity:    ctx,
		// -explain renders derivation trees, which need the recorded DAG —
		// except order: queries, answered from the lifecycle table alone.
		Provenance: report.Request{Explain: *explain}.NeedsProvenance(),
	}

	if *remote != "" {
		os.Exit(runRemote(remoteConfig{
			addr:    *remote,
			report:  *reportKind,
			explain: *explain,
			seed:    *seed,
			checks:  *checksMode,
			only:    splitChecks(*only),
			sarif:   *sarifOut,
			watch:   *watchMode,
			figure1: *figure1,
			opts:    opts,
			dirs:    flag.Args(),
		}))
	}

	if *watchMode {
		if *figure1 || flag.NArg() != 1 || *checksMode {
			fmt.Fprintln(os.Stderr, "gator: -watch wants exactly one app directory (and no -checks/-sarif)")
			os.Exit(2)
		}
		runWatch(flag.Arg(0), opts, *reportKind, *explain, *seed)
	}

	var inputs []gator.BatchInput
	switch {
	case *figure1:
		inputs = []gator.BatchInput{figure1Input()}
	case flag.NArg() >= 1:
		for _, dir := range flag.Args() {
			inputs = append(inputs, gator.BatchInput{Dir: dir})
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: gator [flags] <app-dir> [<app-dir>...]  (or -figure1)")
		os.Exit(2)
	}

	bopts := gator.BatchOptions{Workers: *jobs, Options: opts, Cache: gator.NewCache()}
	var sink *trace.Collect
	if *traceOut != "" {
		sink = &trace.Collect{}
		bopts.Tracer = trace.New(sink)
	}

	// With -cache-dir, apps whose fingerprint (options, report, sources,
	// layouts) matches a stored entry skip analysis entirely and replay the
	// stored report. Reports with unstable output (wall-clock timing) or
	// side outputs (-checks/-sarif aggregation, derivation trees) always
	// run.
	var store *cache.DiskStore
	total := len(inputs)
	keys := make([]string, total)
	replay := make([][]byte, total)
	names := make([]string, total)
	if *cacheDir != "" && !*checksMode && *explain == "" && report.Stable(*reportKind) {
		var err error
		if store, err = cache.OpenDiskStore(*cacheDir, *cacheMax); err != nil {
			fmt.Fprintln(os.Stderr, "gator:", err)
			os.Exit(1)
		}
		tag := fmt.Sprintf("%s|report=%s|seed=%d", opts.CacheTag(), *reportKind, *seed)
		var run []gator.BatchInput
		for i, in := range inputs {
			sources, layouts := in.Sources, in.Layouts
			if in.Dir != "" {
				s, l, err := gator.ReadAppDir(in.Dir)
				if err != nil {
					// Let the batch produce the proper per-app error.
					run = append(run, in)
					continue
				}
				sources, layouts = s, l
			}
			keys[i] = cache.AppFingerprint(tag, sources, layouts)
			names[i] = batchLabelOf(in, i)
			data, hit := store.Get(keys[i])
			bopts.Tracer.Scope(names[i], 0).CacheProbe("result", hit)
			if hit && len(data) > 0 {
				replay[i] = data
			} else {
				run = append(run, in)
			}
		}
		inputs = run
	}

	batch := gator.AnalyzeBatch(inputs, bopts)
	if *stats {
		fmt.Fprint(os.Stderr, metrics.FormatBatch(batch.Stats))
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, sink.Events()); err != nil {
			fmt.Fprintln(os.Stderr, "gator:", err)
			os.Exit(1)
		}
	}
	if *statsJSON != "" {
		data, err := batch.StatsJSON()
		if err == nil {
			if *statsJSON == "-" {
				_, err = os.Stdout.Write(data)
			} else {
				err = os.WriteFile(*statsJSON, data, 0o644)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "gator:", err)
			os.Exit(1)
		}
	}

	exit := 0
	var checkReports []*gator.CheckReport
	next := 0 // next unconsumed entry of batch.Apps
	for i := 0; i < total; i++ {
		if replay[i] != nil {
			if total > 1 {
				if i > 0 {
					fmt.Println()
				}
				fmt.Printf("== %s ==\n", names[i])
			}
			// Entries store one exit-code digit followed by the rendered
			// report (see the Put below).
			os.Stdout.Write(replay[i][1:])
			if code := int(replay[i][0] - '0'); code > exit {
				exit = code
			}
			continue
		}
		rep := batch.Apps[next]
		next++
		if rep.Err != nil {
			fmt.Fprintln(os.Stderr, "gator:", rep.Err)
			exit = 1
			continue
		}
		if total > 1 {
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("== %s ==\n", rep.Name)
		}
		if *checksMode {
			cr, err := rep.Result.CheckReport(splitChecks(*only)...)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gator:", err)
				os.Exit(2)
			}
			fmt.Print(cr.Text())
			if *stats {
				fmt.Fprint(os.Stderr, cr.PassTimings())
			}
			checkReports = append(checkReports, cr)
			if cr.Warnings() > 0 && exit == 0 {
				exit = 1
			}
			continue
		}
		var buf bytes.Buffer
		code := report.Render(&buf, os.Stderr, rep.Name, rep.Result,
			report.Request{Report: *reportKind, Explain: *explain, Seed: *seed})
		os.Stdout.Write(buf.Bytes())
		if store != nil && keys[i] != "" && code <= 1 {
			entry := append([]byte{byte('0' + code)}, buf.Bytes()...)
			if err := store.Put(keys[i], entry); err != nil {
				fmt.Fprintln(os.Stderr, "gator:", err)
			}
		}
		if code > exit {
			exit = code
		}
	}
	if *sarifOut != "" && len(checkReports) > 0 {
		data, err := gator.SARIFAll(checkReports...)
		if err == nil {
			err = os.WriteFile(*sarifOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "gator:", err)
			exit = 1
		}
	}
	os.Exit(exit)
}

// figure1Input is the paper's embedded running example as a batch input.
func figure1Input() gator.BatchInput {
	return gator.BatchInput{
		Name:    "Figure1",
		Sources: map[string]string{"connectbot.alite": corpus.Figure1Source},
		Layouts: map[string]string{
			"act_console":   corpus.Figure1ActConsoleXML,
			"item_terminal": corpus.Figure1ItemTerminalXML,
		},
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

// splitChecks parses the -only flag into check IDs.
func splitChecks(s string) []string {
	var out []string
	for _, id := range strings.Split(s, ",") {
		if id = strings.TrimSpace(id); id != "" {
			out = append(out, id)
		}
	}
	return out
}

// batchLabelOf names one input the way AnalyzeBatch will, for headers and
// trace scopes of apps served from the result cache.
func batchLabelOf(in gator.BatchInput, index int) string {
	switch {
	case in.Name != "":
		return in.Name
	case in.Dir != "":
		return filepath.Base(in.Dir)
	}
	return fmt.Sprintf("app%d", index)
}

// runWatch watches one application directory and re-analyzes on change,
// delta-resolving body-only edits against the previous solution. Rapid
// successive edits (save bursts, multi-file refactors) coalesce into one
// re-analysis via the settle-window debounce in internal/watch. It never
// returns; interrupt the process to stop.
func runWatch(dir string, opts gator.Options, reportKind, explain string, seed int64) {
	c := gator.NewCache()
	var prev *gator.Result
	stop := make(chan struct{}) // never closed: ^C ends the process
	watch.Watch(stop, dir, watch.Config{FireInitial: true}, gator.ReadAppDir, func(ev watch.Event) {
		if ev.Err != nil {
			fmt.Fprintln(os.Stderr, "gator:", ev.Err)
			return
		}
		res, err := gator.AnalyzeIncremental(prev, ev.Sources, ev.Layouts, opts, c)
		if err != nil {
			// Mid-edit parse errors leave prev usable; a consumed prev does
			// not — drop it and recover with a full analysis next round.
			if errors.Is(err, gator.ErrStaleResult) {
				prev = nil
			}
			fmt.Fprintln(os.Stderr, "gator:", err)
			return
		}
		prev = res
		st := res.Incremental()
		if st.Mode == "unchanged" {
			return
		}
		fmt.Fprintf(os.Stderr, "gator: %s analyzed in %v (%s", dir, res.Elapsed(), st.Mode)
		switch {
		case st.Mode == "warm":
			fmt.Fprintf(os.Stderr, ": retained %d, retracted %d facts", st.Retained, st.Retracted)
		case st.Reason != "":
			fmt.Fprintf(os.Stderr, ": %s", st.Reason)
		}
		fmt.Fprintln(os.Stderr, ")")
		report.Render(os.Stdout, os.Stderr, filepath.Base(dir), res,
			report.Request{Report: reportKind, Explain: explain, Seed: seed})
	})
	select {} // unreachable: Watch only returns when stop closes
}

// remoteConfig is the -remote frontend's effective flag set.
type remoteConfig struct {
	addr    string
	report  string
	explain string
	seed    int64
	checks  bool
	only    []string
	sarif   string
	watch   bool
	figure1 bool
	opts    gator.Options
	dirs    []string
}

// spec maps the CLI flags onto the wire report selection: -checks becomes
// the "checks" report (same text, same exit-1-on-warnings semantics).
func (rc remoteConfig) spec() server.ReportSpec {
	kind := rc.report
	if rc.checks {
		kind = "checks"
	}
	return server.ReportSpec{Report: kind, Explain: rc.explain, Seed: rc.seed, Checks: rc.only}
}

func (rc remoteConfig) options() server.OptionsJSON {
	ctx := ""
	if rc.opts.ContextSensitivity != gator.CtxOff {
		ctx = rc.opts.ContextSensitivity.String()
	}
	return server.OptionsJSON{
		FilterCasts:           rc.opts.FilterCasts,
		SharedInflation:       rc.opts.SharedInflation,
		NoFindView3Refinement: rc.opts.NoFindView3Refinement,
		DeclaredDispatchOnly:  rc.opts.DeclaredDispatchOnly,
		ContextSensitivity:    ctx,
		Provenance:            rc.opts.Provenance,
	}
}

// runRemote drives a gatord daemon instead of the local pipeline and
// returns the process exit code. Reports arrive byte-identical to local
// rendering, so the frontend only moves bytes.
func runRemote(rc remoteConfig) int {
	c := server.NewClient(rc.addr)

	if rc.watch {
		if rc.figure1 || len(rc.dirs) != 1 {
			fmt.Fprintln(os.Stderr, "gator: -remote -watch wants exactly one app directory")
			return 2
		}
		stop := make(chan struct{}) // never closed: ^C ends the process
		err := c.WatchSession(stop, rc.dirs[0], watch.Config{}, server.AnalyzeRequest{
			Name:       filepath.Base(rc.dirs[0]),
			Options:    rc.options(),
			ReportSpec: rc.spec(),
		}, gator.ReadAppDir, func(resp *server.AnalyzeResponse, err error) {
			if err != nil {
				fmt.Fprintln(os.Stderr, "gator:", err)
				return
			}
			if inc := resp.Incremental; inc != nil && inc.Mode == "unchanged" {
				return
			}
			if inc := resp.Incremental; inc != nil {
				fmt.Fprintf(os.Stderr, "gator: %s analyzed remotely in %.1fms (%s)\n",
					rc.dirs[0], resp.ElapsedMs, inc.Mode)
			}
			os.Stdout.WriteString(resp.Output)
			if resp.Stderr != "" {
				fmt.Fprint(os.Stderr, resp.Stderr)
			}
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gator:", err)
			return 1
		}
		return 0
	}

	type input struct {
		name             string
		sources, layouts map[string]string
	}
	var inputs []input
	switch {
	case rc.figure1:
		in := figure1Input()
		inputs = []input{{name: in.Name, sources: in.Sources, layouts: in.Layouts}}
	case len(rc.dirs) >= 1:
		for _, dir := range rc.dirs {
			sources, layouts, err := gator.ReadAppDir(dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gator:", err)
				return 1
			}
			inputs = append(inputs, input{name: filepath.Base(dir), sources: sources, layouts: layouts})
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: gator -remote ADDR [flags] <app-dir> [<app-dir>...]  (or -figure1)")
		return 2
	}
	if rc.sarif != "" && len(inputs) != 1 {
		fmt.Fprintln(os.Stderr, "gator: -remote -sarif wants exactly one application")
		return 2
	}

	exit := 0
	for i, in := range inputs {
		resp, err := c.Analyze(server.AnalyzeRequest{
			Name:       in.name,
			Sources:    in.sources,
			Layouts:    in.layouts,
			Options:    rc.options(),
			ReportSpec: rc.spec(),
		})
		if err != nil {
			var se *server.StatusError
			if errors.As(err, &se) && se.RetryAfter > 0 {
				fmt.Fprintf(os.Stderr, "gator: %v (retry after %v)\n", err, se.RetryAfter)
			} else {
				fmt.Fprintln(os.Stderr, "gator:", err)
			}
			exit = 1
			continue
		}
		if len(inputs) > 1 {
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("== %s ==\n", in.name)
		}
		os.Stdout.WriteString(resp.Output)
		if resp.Stderr != "" {
			fmt.Fprint(os.Stderr, resp.Stderr)
		}
		if resp.ExitCode > exit {
			exit = resp.ExitCode
		}

		if rc.sarif != "" {
			sr, err := c.Analyze(server.AnalyzeRequest{
				Name:       in.name,
				Sources:    in.sources,
				Layouts:    in.layouts,
				Options:    rc.options(),
				ReportSpec: server.ReportSpec{Report: "sarif", Checks: rc.only},
			})
			if err == nil {
				err = os.WriteFile(rc.sarif, []byte(sr.Output), 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "gator:", err)
				exit = 1
			}
		}
	}
	return exit
}
