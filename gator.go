// Package gator is a static reference analysis for GUI objects in Android
// software, reproducing Rountev & Yan, "Static Reference Analysis for GUI
// Objects in Android Software" (CGO 2014).
//
// An application consists of ALite source files (the paper's abstracted
// Java-like core language) and Android layout XML files. The analysis
// models the creation and propagation of GUI-related objects — views,
// activities, listeners, and layout/view ids — and their structural
// relationships: which views belong to which activity, the parent-child
// view hierarchy, view-id associations, and view-listener associations.
//
// Typical use:
//
//	app, err := gator.LoadDir("path/to/app")
//	res, err := app.Analyze(gator.Options{})
//	for _, t := range res.EventTuples() { ... }
//
// Many applications can be analyzed as one parallel batch with
// AnalyzeBatch; per-app solutions are identical to sequential runs (see
// batch.go and DESIGN.md).
package gator

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"gator/internal/alite"
	"gator/internal/analysis"
	"gator/internal/core"
	"gator/internal/dot"
	"gator/internal/graph"
	"gator/internal/interp"
	"gator/internal/ir"
	"gator/internal/layout"
	"gator/internal/lifecycle"
	"gator/internal/metrics"
	"gator/internal/oracle"
	"gator/internal/platform"
	"gator/internal/trace"
)

// App is a loaded, resolved application.
type App struct {
	// Name labels the application in reports.
	Name string
	prog *ir.Program
	// sources retains the raw ALite texts (file name → source) so the
	// checkers can honor inline `// gator:disable` suppressions and
	// AnalyzeIncremental can diff edits.
	sources map[string]string
	// layouts retains the raw layout XML (layout name → XML) for
	// incremental diffing; layout definitions are always re-parsed on
	// rebuild because linking resolves them in place.
	layouts map[string]string
	// shapes fingerprints the declarations (ir.ShapeSignature) of the
	// files an incremental edit has patched; an edit whose shape is
	// unchanged touches method bodies only and is eligible for in-place
	// re-lowering. A load records none: a file without an entry has its
	// shape computed from its source when an edit first needs it.
	shapes map[string]string
	// stages is the load's stage log: parse and lower (of the edited files
	// only, for an app a warm incremental run patched).
	stages trace.Log
}

// CtxMode selects the context-sensitive solving mode (see DESIGN.md,
// "Context sensitivity").
type CtxMode = core.CtxMode

// Context-sensitivity modes, re-exported for Options.ContextSensitivity.
const (
	CtxOff  = core.CtxOff
	Ctx1CFA = core.Ctx1CFA
)

// ParseCtxMode parses a -ctx flag value ("", "off" or "1cfa"); the error
// names the known modes.
func ParseCtxMode(s string) (CtxMode, error) { return core.ParseCtxMode(s) }

// Options configure analysis variants; the zero value is the configuration
// evaluated in the paper. The JSON tags are gatord's wire names (a
// request's "options" object); the engine choice and the trace scope stay
// off the wire.
type Options struct {
	// FilterCasts enables cast-based filtering of flowing values
	// (a precision refinement beyond the paper).
	FilterCasts bool `json:"filterCasts,omitempty"`
	// SharedInflation shares inflated view nodes per layout instead of per
	// inflation site (an ablation; the paper materializes per site).
	SharedInflation bool `json:"sharedInflation,omitempty"`
	// NoFindView3Refinement disables the child-only refinement of
	// operations such as getCurrentView (an ablation).
	NoFindView3Refinement bool `json:"noFindView3,omitempty"`
	// DeclaredDispatchOnly disables class-hierarchy call resolution
	// (an ablation; unsound for interface-dispatched handlers).
	DeclaredDispatchOnly bool `json:"declaredDispatchOnly,omitempty"`
	// ContextSensitivity selects bounded context sensitivity for small
	// helper methods: CtxOff (the paper's insensitive analysis) or Ctx1CFA
	// (one context per call site — the refinement the paper's case study
	// identifies for the XBMC receiver imprecision). Contexts carry
	// human-readable labels that Explain queries and derivation trees
	// render; solutions are projected back to source identities, so every
	// query keeps working. In JSON it is the mode's name, "off" or "1cfa".
	ContextSensitivity CtxMode `json:"contextSensitivity,omitempty"`
	// Provenance records the solver's derivation DAG, enabling the
	// ExplainDerivation/ExplainViewID queries. Costs memory proportional to
	// the number of derived facts; off by default.
	Provenance bool `json:"provenance,omitempty"`
	// ReferenceSolver selects the apply-every-operation fixpoint schedule
	// instead of the delta operation worklist: every round re-applies every
	// operation rule. It is the baseline the differential harness and the
	// solver benchmarks compare the delta schedule against; the solution is
	// identical either way.
	ReferenceSolver bool `json:"-"`
	// Trace receives solver instrumentation events (phase boundaries,
	// fixpoint iterations, rule firings, dataflow solves). nil disables
	// tracing with no overhead.
	Trace *trace.Scope `json:"-"`
}

func (o Options) internal() core.Options {
	return core.Options{
		FilterCasts:           o.FilterCasts,
		SharedInflation:       o.SharedInflation,
		NoFindView3Refinement: o.NoFindView3Refinement,
		DeclaredDispatchOnly:  o.DeclaredDispatchOnly,
		ContextSensitivity:    o.ContextSensitivity,
		Provenance:            o.Provenance,
		ReferenceSolver:       o.ReferenceSolver,
		Trace:                 o.Trace,
	}
}

// LoadDir loads an application from a directory containing *.alite sources
// and *.xml layout files (optionally under a layout/ subdirectory).
// Extensions are matched case-insensitively (MAIN.XML is a layout).
func LoadDir(dir string) (*App, error) {
	return LoadDirCached(dir, nil)
}

// LoadDirCached is LoadDir with a shared parse cache (see LoadCached).
func LoadDirCached(dir string, c *Cache) (*App, error) { return loadDir(dir, c, nil) }

// loadDir is LoadDirCached with the load's stages traced on tr.
func loadDir(dir string, c *Cache, tr *trace.Scope) (*App, error) {
	sources, layouts, err := ReadAppDir(dir)
	if err != nil {
		return nil, err
	}
	app, err := loadApp(sources, layouts, c, tr)
	if err != nil {
		return nil, err
	}
	app.Name = filepath.Base(dir)
	return app, nil
}

// ReadAppDir reads an application directory into raw unit maps (file name →
// ALite source, layout name → XML) without parsing or resolving anything.
// It is the input form AnalyzeIncremental diffs against, so watch loops can
// re-read a directory cheaply and hand both maps back unchanged.
func ReadAppDir(dir string) (sources, layouts map[string]string, err error) {
	sources = map[string]string{}
	layouts = map[string]string{}
	addFile := func(path string) error {
		base := filepath.Base(path)
		ext := strings.ToLower(filepath.Ext(base))
		if ext != ".alite" && ext != ".xml" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("gator: reading %s: %w", path, err)
		}
		if ext == ".alite" {
			sources[base] = string(data)
		} else {
			layouts[base[:len(base)-len(".xml")]] = string(data)
		}
		return nil
	}
	var paths []string
	for _, sub := range []string{dir, filepath.Join(dir, "layout")} {
		entries, err := os.ReadDir(sub)
		if err != nil {
			if sub != dir && errors.Is(err, fs.ErrNotExist) {
				continue // the layout/ subdirectory is optional
			}
			return nil, nil, fmt.Errorf("gator: reading %s: %w", sub, err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				paths = append(paths, filepath.Join(sub, e.Name()))
			}
		}
	}
	// Deterministic load order regardless of how the OS enumerated the
	// directories (os.ReadDir sorts per directory; this pins the combined
	// order too, so batch results cannot depend on filesystem quirks).
	sort.Strings(paths)
	for _, path := range paths {
		if err := addFile(path); err != nil {
			return nil, nil, err
		}
	}
	if len(sources) == 0 {
		return nil, nil, fmt.Errorf("gator: no .alite sources in %s", dir)
	}
	return sources, layouts, nil
}

// Load builds an application from in-memory sources: file name → ALite
// source, and layout name → layout XML.
func Load(sources map[string]string, layoutXML map[string]string) (*App, error) {
	return loadApp(sources, layoutXML, nil, nil)
}

// LoadCached is Load with a shared parse cache: source files whose content
// the cache has seen before (under any application) skip parsing. Layout
// definitions are always re-parsed — linking resolves them in place, so
// their parsed form is per-build.
func LoadCached(sources, layoutXML map[string]string, c *Cache) (*App, error) {
	return loadApp(sources, layoutXML, c, nil)
}

// loadApp parses and lowers an application, timing the parse and lower
// stages into the app's stage log and, when tr is set, its trace.
func loadApp(sources, layoutXML map[string]string, c *Cache, tr *trace.Scope) (*App, error) {
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	app := &App{Name: "app"}
	var files []*alite.File
	layouts := make(map[string]*layout.Layout, len(layoutXML))
	var err error
	tr.Stage(&app.stages, trace.StageParse, func() {
		if files, err = parseFiles(names, sources, c, tr); err != nil {
			return
		}
		// In name order, so an app with several bad layouts always
		// reports the same one.
		layoutNames := make([]string, 0, len(layoutXML))
		for name := range layoutXML {
			layoutNames = append(layoutNames, name)
		}
		sort.Strings(layoutNames)
		for _, name := range layoutNames {
			if layouts[name], err = layout.Parse(name, layoutXML[name]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	tr.Stage(&app.stages, trace.StageLower, func() { app.prog, err = ir.Build(files, layouts) })
	if err != nil {
		return nil, err
	}
	// Copy so later caller mutations of the maps cannot skew suppression
	// scanning or incremental diffing.
	app.sources, app.layouts = maps.Clone(sources), maps.Clone(layoutXML)
	return app, nil
}

// parseFiles parses the named sources in order, through c's parse cache
// when c is set, emitting one cache-probe trace event per lookup.
func parseFiles(names []string, sources map[string]string, c *Cache, tr *trace.Scope) ([]*alite.File, error) {
	files := make([]*alite.File, len(names))
	for i, n := range names {
		var err error
		if c == nil {
			files[i], err = alite.Parse(n, sources[n])
		} else {
			var hit bool
			if files[i], hit, err = c.parse.Parse(n, sources[n]); err == nil {
				tr.CacheProbe("parse", hit)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return files, nil
}

// Analyze runs the reference analysis.
func (a *App) Analyze(opts Options) *Result {
	return a.result(core.Analyze(a.prog, opts.internal()), opts.Trace, IncrementalStats{})
}

// result wraps one solve of a's program. Its stage log is a's load stages
// followed by the solve's.
func (a *App) result(res *core.Result, tr *trace.Scope, incr IncrementalStats) *Result {
	return &Result{app: a, res: res, stages: slices.Concat(a.stages, res.Stages), tr: tr, incr: incr}
}

// Result is a computed analysis solution with user-facing query methods.
type Result struct {
	app    *App
	res    *core.Result
	stages trace.Log
	tr     *trace.Scope
	incr   IncrementalStats
	// invalid marks a result whose underlying program has since been
	// patched in place by AnalyzeIncremental; queries on it would mix old
	// facts with new IR. See the staleness contract in DESIGN.md.
	invalid bool
}

// Stages returns the result's stage log in execution order: parse, lower,
// build and solve for a cold run; the edited files' parse and lower, then
// retract, rebuild and solve for a warm incremental one; none for an
// unchanged one.
func (r *Result) Stages() trace.Log { return slices.Clip(r.stages) }

// Elapsed returns the analysis time: the summed wall time of the result's
// stages after lower (build and solve on a cold run).
func (r *Result) Elapsed() time.Duration {
	return r.stages.Total() - r.stages.Wall(trace.StageParse) - r.stages.Wall(trace.StageLower)
}

// SetAppName relabels the application in subsequently rendered reports
// (Table rows, check reports, the JSON model). Server sessions use it to
// carry the client-chosen name across incremental re-analyses, whose
// in-memory loads would otherwise default to "app".
func (r *Result) SetAppName(name string) { r.app.Name = name }

// Iterations returns the number of fixpoint rounds.
func (r *Result) Iterations() int { return r.res.Iterations }

// IDSpace returns the sizes of the two id spaces a warm session reuses:
// the constraint graph's node slots, live and retired, and the program's
// variable ids (live and retired). A cold result retires none; warm
// re-solves keep each under twice its live count by compacting (see
// DESIGN.md, "Incremental solving").
func (r *Result) IDSpace() (nodeSlots, varIDs int) {
	return len(r.res.Graph.Nodes()), r.app.prog.NumVars()
}

// View describes one abstract view object.
type View struct {
	// Class is the view class name.
	Class string
	// Origin describes where the view comes from: "layout:<name>:<path>"
	// for inflated views, "new@<pos>" for allocations.
	Origin string
	// ID is the view id name associated with the view, or "".
	ID string

	val graph.Value
}

func (r *Result) viewInfo(v graph.Value) View {
	out := View{val: v}
	switch v := v.(type) {
	case *graph.InflNode:
		out.Class = v.Class.Name
		out.Origin = fmt.Sprintf("layout:%s:%d", v.LayoutName, v.Path)
	case *graph.AllocNode:
		out.Class = v.Class.Name
		out.Origin = fmt.Sprintf("new@%s", v.Site.Pos())
	}
	out.ID = idNames(r.res.Graph.Succ(graph.RelViewID, v))
	return out
}

// idNames returns the names of view id values, sorted and comma-joined.
func idNames(ids graph.Values) string {
	names := make([]string, ids.Len())
	for i := range names {
		names[i] = ids.At(i).(*graph.ViewIDNode).Name
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// viewLess orders views by content (origin, class, id) — not by internal
// node numbering, which depends on the solver's materialization order and
// differs between from-scratch and incremental runs.
func viewLess(a, b View) bool {
	if a.Origin != b.Origin {
		return a.Origin < b.Origin
	}
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	return a.ID < b.ID
}

// Views returns every abstract view object the analysis discovered, in
// content order.
func (r *Result) Views() []View {
	var out []View
	for _, n := range r.res.Graph.Infls() {
		out = append(out, r.viewInfo(n))
	}
	for _, a := range r.res.Graph.Allocs() {
		if a.IsView {
			out = append(out, r.viewInfo(a))
		}
	}
	sort.Slice(out, func(i, j int) bool { return viewLess(out[i], out[j]) })
	return out
}

// VarViews returns the views that may flow to a variable, identified as
// "Class.method.var" (method by name; the first match wins for overloads).
func (r *Result) VarViews(class, method, varName string) ([]View, error) {
	c := r.app.prog.Class(class)
	if c == nil {
		return nil, fmt.Errorf("gator: unknown class %s", class)
	}
	for _, m := range c.MethodsSorted() {
		if m.Name != method {
			continue
		}
		for _, v := range m.Locals {
			if v.Name == varName {
				var out []View
				vals := r.res.VarPointsTo(v)
				for k := range vals.Len() {
					val := vals.At(k)
					if graph.IsViewValue(val) {
						out = append(out, r.viewInfo(val))
					}
				}
				return out, nil
			}
		}
	}
	return nil, fmt.Errorf("gator: no variable %s in %s.%s", varName, class, method)
}

// EventTuple is one (activity, view, event, handler) tuple — the model
// element that Section 6 of the paper describes as the input to GUI-model
// construction, automated test generation, and run-time exploration.
type EventTuple struct {
	// Activity is the activity (or dialog) class whose GUI contains View;
	// "" when the view is not associated with any activity content.
	Activity string
	// View is the GUI object.
	View View
	// Event is the GUI event kind ("click", "longclick", ...).
	Event string
	// Handler is the handler method, as "Class.method".
	Handler string
}

// EventTuples enumerates the (activity, view, event, handler) tuples of the
// solution.
func (r *Result) EventTuples() []EventTuple {
	g := r.res.Graph

	// Map each view to the activities whose content trees contain it.
	viewOwners := map[graph.Value][]string{}
	var walk graph.Walker
	g.Pairs(graph.RelRoot, func(owner, root graph.Value) {
		var ownerName string
		switch o := owner.(type) {
		case *graph.ActivityNode:
			ownerName = o.Class.Name
		case *graph.AllocNode:
			ownerName = o.Class.Name
		default:
			return
		}
		ws := walk.Descendants(g, root)
		for k := range ws.Len() {
			w := ws.At(k)
			viewOwners[w] = append(viewOwners[w], ownerName)
		}
	})

	var out []EventTuple
	add := func(view graph.Value, event, handlerClassAndMethod string) {
		owners := viewOwners[view]
		if len(owners) == 0 {
			owners = []string{""}
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				continue
			}
			seen[o] = true
			out = append(out, EventTuple{
				Activity: o,
				View:     r.viewInfo(view),
				Event:    event,
				Handler:  handlerClassAndMethod,
			})
		}
	}

	for _, op := range g.Ops() {
		if op.Event == "" || op.Recv == nil || len(op.Args) == 0 {
			continue
		}
		spec, ok := listenerSpec(op.Event)
		if !ok {
			continue
		}
		views := r.res.OpReceivers(op)
		for k := range views.Len() {
			view := views.At(k)
			if !graph.IsViewValue(view) {
				continue
			}
			lsts := r.res.OpArg(op, 0)
			for j := range lsts.Len() {
				lst := lsts.At(j)
				lstClass := classOf(lst)
				if lstClass == nil {
					continue
				}
				for _, h := range spec {
					m := lstClass.Dispatch(h)
					if m != nil && m.Body != nil {
						add(view, op.Event, m.QualifiedName())
					}
				}
			}
		}
	}

	// Declarative android:onClick handlers.
	for _, n := range g.Infls() {
		if n.OnClick == "" {
			continue
		}
		lsts := g.Succ(graph.RelListener, n)
		for k := range lsts.Len() {
			c := classOf(lsts.At(k))
			if c == nil {
				continue
			}
			if m := c.Dispatch(n.OnClick + "(R)"); m != nil && m.Body != nil {
				add(n, "click", m.QualifiedName())
			}
		}
	}
	// Deduplicate (a tuple can arise both from a set-listener op and a
	// declarative binding).
	seenTuple := map[EventTuple]bool{}
	dedup := out[:0]
	for _, t := range out {
		key := t
		key.View.val = nil
		if !seenTuple[key] {
			seenTuple[key] = true
			dedup = append(dedup, t)
		}
	}
	out = dedup
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Activity != b.Activity {
			return a.Activity < b.Activity
		}
		if a.View.Origin != b.View.Origin {
			return a.View.Origin < b.View.Origin
		}
		if a.Event != b.Event {
			return a.Event < b.Event
		}
		return a.Handler < b.Handler
	})
	return out
}

// HierarchyEdge is one parent-child association between views.
type HierarchyEdge struct{ Parent, Child View }

// Hierarchy returns all parent-child view associations, in content order.
func (r *Result) Hierarchy() []HierarchyEdge {
	var out []HierarchyEdge
	r.res.Graph.Pairs(graph.RelChild, func(p, c graph.Value) {
		out = append(out, HierarchyEdge{r.viewInfo(p), r.viewInfo(c)})
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if viewLess(a.Parent, b.Parent) {
			return true
		}
		if viewLess(b.Parent, a.Parent) {
			return false
		}
		return viewLess(a.Child, b.Child)
	})
	return out
}

// ActivityContent describes one activity's content roots.
type ActivityContent struct {
	Activity string
	Roots    []View
}

// Activities returns each activity (and dialog) with its content roots.
func (r *Result) Activities() []ActivityContent {
	byName := map[string]*ActivityContent{}
	var order []string
	r.res.Graph.Pairs(graph.RelRoot, func(owner, root graph.Value) {
		c := classOf(owner)
		if c == nil {
			return
		}
		ac, ok := byName[c.Name]
		if !ok {
			ac = &ActivityContent{Activity: c.Name}
			byName[c.Name] = ac
			order = append(order, c.Name)
		}
		ac.Roots = append(ac.Roots, r.viewInfo(root))
	})
	sort.Strings(order)
	out := make([]ActivityContent, len(order))
	for i, n := range order {
		ac := *byName[n]
		sort.Slice(ac.Roots, func(i, j int) bool { return viewLess(ac.Roots[i], ac.Roots[j]) })
		out[i] = ac
	}
	return out
}

// Table1 computes the application's Table 1 row.
func (r *Result) Table1() metrics.Table1Row { return metrics.Table1(r.app.Name, r.res) }

// Table2 computes the application's Table 2 row.
func (r *Result) Table2() metrics.Table2Row {
	return metrics.Table2(r.app.Name, r.res, r.Elapsed())
}

// DumpIR renders the application's lowered three-address representation,
// one class at a time — the form the analysis actually consumes.
func (r *Result) DumpIR() string { return ir.DumpProgram(r.app.prog) }

// CheckFinding is one static-checker finding (see Check).
type CheckFinding struct {
	// Check is the checker identifier.
	Check string
	// Severity is "warning" or "info".
	Severity string
	// Pos is the source position ("" when the finding is structural).
	Pos string
	// Msg describes the issue.
	Msg string
	// SuggestedFix describes how to address the finding, or "".
	SuggestedFix string
}

// PassTiming is one checker pass's timing in a CheckReport: its stage
// ("check:" plus the check id) and wall time.
type PassTiming = trace.Timing

// CheckReport is the outcome of running the diagnostics engine over one
// solution: the findings in deterministic (position, check, message) order
// plus per-pass accounting.
type CheckReport struct {
	// App is the analyzed application's name.
	App string
	// Findings are the kept findings.
	Findings []CheckFinding
	// Suppressed counts findings dropped by `// gator:disable` comments.
	Suppressed int
	// Passes is the checker passes' stage log, in execution order.
	Passes []PassTiming

	rep *analysis.Report
}

// Warnings counts findings at warning severity.
func (c *CheckReport) Warnings() int { return c.rep.Warnings() }

// SARIF renders the report as a SARIF 2.1.0 log.
func (c *CheckReport) SARIF() ([]byte, error) { return analysis.SARIF(c.rep) }

// Text renders the report as plain text: one line per finding plus a
// summary.
func (c *CheckReport) Text() string { return analysis.Text(c.rep) }

// PassTimings renders the per-pass accounting as aligned text.
func (c *CheckReport) PassTimings() string {
	findings := map[string]int{}
	for _, f := range c.Findings {
		findings[f.Check]++
	}
	return metrics.FormatPasses(c.rep.Passes, findings)
}

// CheckReport runs the analysis-backed GUI diagnostics engine (the static
// error checking application of Section 6, extended with flow-sensitive
// passes). checkIDs restricts the run to the named checks; empty runs all.
// Inline `// gator:disable <check>` comments in the loaded sources suppress
// findings on their own line or the line below.
func (r *Result) CheckReport(checkIDs ...string) (*CheckReport, error) {
	rep, err := analysis.Run(r.app.Name, r.res, analysis.Options{
		Checks:  checkIDs,
		Sources: r.app.sources,
		Trace:   r.tr,
	})
	if err != nil {
		return nil, err
	}
	out := &CheckReport{App: rep.App, Suppressed: rep.Suppressed, Passes: rep.Passes, rep: rep}
	for _, f := range rep.Findings {
		cf := CheckFinding{
			Check:        f.Check,
			Severity:     f.Severity.String(),
			Msg:          f.Msg,
			SuggestedFix: f.SuggestedFix,
		}
		if f.Pos.IsValid() {
			cf.Pos = f.Pos.String()
		}
		out.Findings = append(out.Findings, cf)
	}
	return out, nil
}

// Check runs every checker and returns the findings. It is the simple form
// of CheckReport.
func (r *Result) Check() []CheckFinding {
	rep, err := r.CheckReport()
	if err != nil {
		// Unreachable: an empty selection cannot name an unknown check.
		panic(err)
	}
	return rep.Findings
}

// SARIFAll renders several check reports (typically one per batch
// application) as one SARIF 2.1.0 log with one run per report.
func SARIFAll(reports ...*CheckReport) ([]byte, error) {
	inner := make([]*analysis.Report, len(reports))
	for i, r := range reports {
		inner[i] = r.rep
	}
	return analysis.SARIFMulti(inner)
}

// ListChecks renders the checker registry, one aligned line per check.
func ListChecks() string { return analysis.ListChecks() }

// CheckTable renders the checker registry as a Markdown table (the README's
// checker section is generated from it).
func CheckTable() string { return analysis.MarkdownTable() }

// ExplainDerivation renders, for each value reaching Class.method.var, the
// minimal derivation tree of the fact flowsTo(var, value): every node is one
// derived fact annotated with the paper's inference rule that produced it
// (FindView2, Inflate1, ...), and every chain bottoms out in Seed facts.
// Requires Options.Provenance; trees are identical across runs and across
// batch parallelism levels.
func (r *Result) ExplainDerivation(class, method, varName string) ([]string, error) {
	if !r.res.HasProvenance() {
		return nil, errors.New("gator: derivation explanations need Options.Provenance")
	}
	c := r.app.prog.Class(class)
	if c == nil {
		return nil, fmt.Errorf("gator: unknown class %s", class)
	}
	for _, m := range c.MethodsSorted() {
		if m.Name != method {
			continue
		}
		for _, v := range m.Locals {
			if v.Name != varName {
				continue
			}
			// One tree per (context variant, value): the rendered facts
			// carry the context component on cloned nodes.
			var out []string
			for _, node := range r.res.VarNodesOf(v) {
				vals := r.res.PointsTo(node)
				for k := range vals.Len() {
					val := vals.At(k)
					if f, ok := r.res.FlowFactOf(node, val); ok {
						out = append(out, r.res.RenderDerivation(f))
					}
				}
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("gator: no variable %s in %s.%s", varName, class, method)
}

// ExplainViewID renders the derivation tree of every hasId(view, id) fact
// for the named view id: why each view carries the id. Requires
// Options.Provenance.
func (r *Result) ExplainViewID(name string) ([]string, error) {
	if !r.res.HasProvenance() {
		return nil, errors.New("gator: derivation explanations need Options.Provenance")
	}
	facts := r.res.ViewIDFacts(name)
	if len(facts) == 0 {
		return nil, fmt.Errorf("gator: no view carries id %q", name)
	}
	out := make([]string, 0, len(facts))
	for _, f := range facts {
		out = append(out, r.res.RenderDerivation(f))
	}
	return out, nil
}

// ExplainOrdering renders the lifecycle automaton's justification for
// whether cb2 can run after cb1 on the named component class: the
// conclusion plus one premise line per transition rule of the shortest
// witness schedule, in the same derivation-tree style as ExplainDerivation.
// Unlike the flow explanations it needs no provenance DAG — the transition
// table is the derivation. Queried via `gator -explain order:Class.cb1.cb2`.
func (r *Result) ExplainOrdering(class, cb1, cb2 string) (string, error) {
	sched := lifecycle.Order(r.app.prog)
	comp, ok := sched.Component(class)
	if !ok {
		return "", fmt.Errorf("gator: %s is not a lifecycle component (not an activity or dialog class)", class)
	}
	for _, cb := range []string{cb1, cb2} {
		if !comp.Known(cb) {
			return "", fmt.Errorf("gator: %s is not a lifecycle callback of %s %s", cb, comp.Kind, class)
		}
	}
	txt, _ := comp.Justify(cb1, cb2)
	return txt, nil
}

// MenuEntry describes one options-menu item: the owning activity, the
// item's id name(s), and the selection handler.
type MenuEntry struct {
	Activity string
	ItemID   string
	Handler  string
}

// MenuEntries enumerates the options-menu model: every item added to every
// activity's menu, with the handler that receives its selection.
func (r *Result) MenuEntries() []MenuEntry {
	var out []MenuEntry
	for _, menu := range r.res.Graph.Menus() {
		handler := ""
		if h := menu.Activity.Dispatch(platform.MenuSelectCallback + "(R)"); h != nil && h.Body != nil {
			handler = h.QualifiedName()
		}
		items := r.res.Graph.Succ(graph.RelMenuItem, menu)
		for k := range items.Len() {
			out = append(out, MenuEntry{
				Activity: menu.Activity.Name,
				ItemID:   idNames(r.res.Graph.Succ(graph.RelViewID, items.At(k))),
				Handler:  handler,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Activity != b.Activity {
			return a.Activity < b.Activity
		}
		return a.ItemID < b.ItemID
	})
	return out
}

// Transition is one inter-component control-flow edge of the activity
// transition graph (the model Section 6 of the paper motivates): Source
// launches Target via the method Via.
type Transition struct {
	Source string
	Target string
	Via    string // "Class.method" containing the startActivity call
}

// Transitions returns the activity transition graph derived from the
// solution: for every startActivity operation, the launching activities
// (receiver solution) crossed with the targets of the reaching intents.
func (r *Result) Transitions() []Transition {
	var out []Transition
	for _, t := range r.res.Transitions() {
		out = append(out, Transition{
			Source: t.Source.Name,
			Target: t.Target.Name,
			Via:    t.Via.QualifiedName(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		return a.Via < b.Via
	})
	return out
}

// Dot renders the solved constraint graph in Graphviz format (the
// structure of Figures 3 and 4 of the paper).
func (r *Result) Dot() string {
	return dot.Export(r.res, dot.Options{Flow: true, Relations: true})
}

// ProjectedFacts renders the solution as sorted per-fact lines with cloning
// contexts projected back to source identities — the representation under
// which a context-sensitive solution is provably a subset of the
// insensitive one (see DESIGN.md, "Context sensitivity").
func (r *Result) ProjectedFacts() []string { return r.res.ProjectedSolution() }

// ExploreReport is the outcome of a dynamic-exploration soundness check.
type ExploreReport struct {
	// Sound is true when every concrete observation is covered.
	Sound bool
	// Violations describes missed facts, if any.
	Violations []string
	// ObservedSites, PerfectSites, Steps summarize the exploration.
	ObservedSites int
	PerfectSites  int
	Steps         int
	// StaticFacts / ObservedFacts size the static solution against the
	// observed values at executed sites, by source identity (context
	// clones collapse). PrecisionRatio is their quotient — the
	// solution-size / oracle-size metric BENCH_7.json records.
	StaticFacts    int
	ObservedFacts  int
	PrecisionRatio float64
}

// Explore runs the seeded concrete interpreter and checks the solution
// against its observations (the paper's case study, mechanized).
func (r *Result) Explore(seed int64) ExploreReport {
	obs := interp.New(r.app.prog, interp.Config{Seed: seed}).Run()
	rep := oracle.Compare(r.res, obs)
	out := ExploreReport{
		Sound:          rep.Sound(),
		ObservedSites:  rep.ObservedSites,
		PerfectSites:   rep.PerfectSites,
		Steps:          obs.Steps,
		StaticFacts:    rep.StaticFacts,
		ObservedFacts:  rep.ObservedFacts,
		PrecisionRatio: rep.Ratio(),
	}
	for _, v := range rep.Violations {
		out.Violations = append(out.Violations, v.String())
	}
	return out
}

// helpers

func classOf(v graph.Value) *ir.Class {
	switch v := v.(type) {
	case *graph.ActivityNode:
		return v.Class
	case *graph.AllocNode:
		return v.Class
	case *graph.InflNode:
		return v.Class
	}
	return nil
}

// listenerSpec returns the handler signature keys for an event.
func listenerSpec(event string) ([]string, bool) {
	spec, ok := platform.ListenerByEvent(event)
	if !ok {
		return nil, false
	}
	var keys []string
	for _, h := range spec.Handlers {
		types := make([]alite.Type, len(h.Params))
		for i, pn := range h.Params {
			if pn == "int" {
				types[i] = alite.Type{Prim: alite.TypeInt}
			} else {
				types[i] = alite.Type{Name: pn}
			}
		}
		keys = append(keys, ir.MethodKey(h.Name, types))
	}
	return keys, true
}
