// Package checks implements analysis-backed static error checkers for
// Android GUI code — the "static error checking" application of Section 6
// of the paper. Each checker inspects the solved reference analysis
// (package core) for GUI misuse patterns that are invisible to a purely
// syntactic linter because they depend on which views flow where.
//
// Checkers are registered as passes with stable IDs. Solution passes query
// only the flow-insensitive fixpoint; CFG passes additionally consume
// per-method control-flow graphs (package cfg) and forward dataflow results
// (package dataflow), which lets them see statement ordering — e.g. a
// findViewById that runs before setContentView on some path. The driver in
// package analysis selects, orders, times, and renders passes.
package checks

import (
	"fmt"
	"sort"

	"gator/internal/alite"
	"gator/internal/core"
	"gator/internal/graph"
	"gator/internal/platform"
)

// Severity grades findings.
type Severity int

const (
	// Info marks findings that are usually intentional but worth review.
	Info Severity = iota
	// Warning marks likely defects.
	Warning
)

func (s Severity) String() string {
	if s == Warning {
		return "warning"
	}
	return "info"
}

// Finding is one reported issue.
type Finding struct {
	// Check is the checker identifier (kebab-case).
	Check string
	// Severity grades the finding.
	Severity Severity
	// Pos locates the finding when a source position exists.
	Pos alite.Pos
	// Msg describes the issue and its consequence.
	Msg string
	// SuggestedFix is an optional one-line remediation hint.
	SuggestedFix string
}

func (f Finding) String() string {
	if f.Pos.IsValid() {
		return fmt.Sprintf("%s: %s: [%s] %s", f.Pos, f.Severity, f.Check, f.Msg)
	}
	return fmt.Sprintf("%s: [%s] %s", f.Severity, f.Check, f.Msg)
}

// PassKind orders passes by what they consume: solution passes need only
// the flow-insensitive fixpoint, CFG passes additionally need control-flow
// graphs and dataflow solutions. The driver runs all solution passes before
// any CFG pass, so cheap whole-solution diagnostics surface even if a CFG
// pass later fails an assertion.
type PassKind int

const (
	// KindSolution marks passes that query only the solved constraint graph.
	KindSolution PassKind = iota
	// KindCFG marks passes that consume per-method CFGs and dataflow facts.
	KindCFG
)

func (k PassKind) String() string {
	if k == KindCFG {
		return "cfg"
	}
	return "solution"
}

// Pass is one registered checker.
type Pass struct {
	// ID is the stable checker identifier (kebab-case); it is the SARIF
	// rule id and the name accepted by // gator:disable comments.
	ID string
	// Doc is the one-line description shown by -listchecks.
	Doc string
	// Kind classifies what the pass consumes (see PassKind).
	Kind PassKind
	// Severity is the nominal severity of the pass's findings.
	Severity Severity
	// Run executes the pass.
	Run func(ctx *Context) []Finding
}

// All returns the registered passes, solution passes first, each group in
// ID order — the exact order the driver executes them in.
func All() []Pass {
	passes := []Pass{
		{
			ID: "dangling-findview",
			Doc: "findViewById whose searched hierarchy can never contain " +
				"the queried id: the call always returns null",
			Kind:     KindSolution,
			Severity: Warning,
			Run:      solutionPass(checkDanglingFindView),
		},
		{
			ID: "missing-content-view",
			Doc: "activity findViewById without any setContentView on that " +
				"activity: there is no hierarchy to search",
			Kind:     KindSolution,
			Severity: Warning,
			Run:      solutionPass(checkMissingContentView),
		},
		{
			ID:       "unused-view-id",
			Doc:      "view id declared in a layout but never used by any operation",
			Kind:     KindSolution,
			Severity: Info,
			Run:      solutionPass(checkUnusedViewID),
		},
		{
			ID: "unfired-handler",
			Doc: "listener class whose handler can never receive a view: " +
				"the listener is never registered on a reachable view",
			Kind:     KindSolution,
			Severity: Warning,
			Run:      solutionPass(checkUnfiredHandler),
		},
		{
			ID: "invisible-listener-view",
			Doc: "programmatically created view with listeners that is never " +
				"attached to any activity content: its events cannot fire",
			Kind:     KindSolution,
			Severity: Warning,
			Run:      solutionPass(checkInvisibleListenerView),
		},
		{
			ID: "duplicate-id",
			Doc: "two views with the same id in one activity's content: " +
				"findViewById resolves only the first",
			Kind:     KindSolution,
			Severity: Info,
			Run:      solutionPass(checkDuplicateID),
		},
		{
			ID: "unhandled-menu",
			Doc: "menu items added but the activity defines no " +
				"onOptionsItemSelected handler",
			Kind:     KindSolution,
			Severity: Warning,
			Run:      solutionPass(checkUnhandledMenu),
		},
		{
			ID:       "bad-intent-target",
			Doc:      "intent targets a class that is not an activity: startActivity would throw",
			Kind:     KindSolution,
			Severity: Warning,
			Run:      solutionPass(checkBadIntentTarget),
		},
		{
			ID: "isolated-activity",
			Doc: "activity that no transition ever reaches (informational: " +
				"it may be a launcher or externally exported entry point)",
			Kind:     KindSolution,
			Severity: Info,
			Run:      solutionPass(checkIsolatedActivity),
		},
		{
			ID: "lifecycle-use-after-destroy",
			Doc: "GUI construction (inflation, listeners, menus, dialogs) " +
				"reachable from a callback nothing can follow: the work is " +
				"dead and leaks the destroyed component",
			Kind:     KindSolution,
			Severity: Warning,
			Run:      checkUseAfterDestroy,
		},
		{
			ID: "lifecycle-listener-leak-on-pause",
			Doc: "listener registered on every pass through onResume with no " +
				"matching clear reachable from onPause/onStop: the handler " +
				"outlives the visible phase and is re-registered each cycle",
			Kind:     KindSolution,
			Severity: Warning,
			Run:      checkListenerLeakOnPause,
		},
		{
			ID: "lifecycle-dialog-misuse",
			Doc: "Dialog.show() reachable from a teardown callback " +
				"(onPause/onStop/onDestroy): the dialog opens over a dying " +
				"window and leaks",
			Kind:     KindSolution,
			Severity: Warning,
			Run:      checkDialogMisuse,
		},
		{
			ID: "findview-before-setcontentview",
			Doc: "findViewById that can run before the activity's " +
				"setContentView along some path: the lookup returns null",
			Kind:     KindCFG,
			Severity: Warning,
			Run:      checkFindViewBeforeSetContent,
		},
		{
			ID: "null-view-deref",
			Doc: "dereference of a view reference that is definitely null, " +
				"e.g. the result of a findViewById that can never find a view",
			Kind:     KindCFG,
			Severity: Warning,
			Run:      checkNullViewDeref,
		},
		{
			ID: "listener-reset",
			Doc: "a second setListener on the same view and event along one " +
				"path: the first handler is silently replaced and never fires",
			Kind:     KindCFG,
			Severity: Warning,
			Run:      checkListenerReset,
		},
	}
	sort.SliceStable(passes, func(i, j int) bool {
		if passes[i].Kind != passes[j].Kind {
			return passes[i].Kind < passes[j].Kind
		}
		return passes[i].ID < passes[j].ID
	})
	return passes
}

// PassByID returns the registered pass with the given ID.
func PassByID(id string) (Pass, bool) {
	for _, p := range All() {
		if p.ID == id {
			return p, true
		}
	}
	return Pass{}, false
}

// solutionPass adapts a checker over the bare solution to the pass
// signature.
func solutionPass(f func(res *core.Result) []Finding) func(*Context) []Finding {
	return func(ctx *Context) []Finding { return f(ctx.Res) }
}

// Run executes every registered pass and returns the findings sorted by
// (position, check, message) — the deterministic order the public API
// promises.
func Run(res *core.Result) []Finding {
	ctx := NewContext(res)
	var out []Finding
	for _, p := range All() {
		out = append(out, p.Run(ctx)...)
	}
	SortFindings(out)
	return out
}

// SortFindings orders findings by (Pos, Check, Msg): position first so
// output reads in source order, with the check id and message as
// deterministic tiebreaks for findings sharing a position.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.File != b.Pos.File {
			return a.Pos.File < b.Pos.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}

// checkDanglingFindView flags find-view operations that are reached by a
// hierarchy and an id, yet can never produce a view.
func checkDanglingFindView(res *core.Result) []Finding {
	var out []Finding
	for _, op := range res.Graph.Ops() {
		if op.Kind != platform.OpFindView1 && op.Kind != platform.OpFindView2 {
			continue
		}
		if op.Out == nil || len(op.Args) == 0 {
			continue
		}
		recvReached := res.OpReceivers(op).Len() > 0
		ids := idNames(res.OpArg(op, 0))
		if !recvReached || len(ids) == 0 {
			continue // dead op; nothing to conclude
		}
		if res.OpResults(op).Len() == 0 {
			out = append(out, Finding{
				Check:    "dangling-findview",
				Severity: Warning,
				Pos:      opPos(op),
				Msg: fmt.Sprintf("findViewById(%s) can never find a view in the searched hierarchy; it always returns null",
					joinNames(ids)),
			})
		}
	}
	return out
}

// checkMissingContentView flags FindView2 operations on activities that
// never receive a content view.
func checkMissingContentView(res *core.Result) []Finding {
	var out []Finding
	for _, op := range res.Graph.Ops() {
		if op.Kind != platform.OpFindView2 {
			continue
		}
		owners := res.OpReceivers(op)
		for k := range owners.Len() {
			owner := owners.At(k)
			switch owner.(type) {
			case *graph.ActivityNode, *graph.AllocNode:
			default:
				continue
			}
			if res.Graph.Roots(owner).Len() == 0 {
				out = append(out, Finding{
					Check:    "missing-content-view",
					Severity: Warning,
					Pos:      opPos(op),
					Msg: fmt.Sprintf("%s has no content view when findViewById runs; the lookup always returns null",
						ownerName(owner)),
				})
			}
		}
	}
	return out
}

// checkUnusedViewID flags declared view ids that no operation ever uses.
func checkUnusedViewID(res *core.Result) []Finding {
	used := map[int]bool{}
	for _, op := range res.Graph.Ops() {
		for i := range op.Args {
			vs := res.OpArg(op, i)
			for k := range vs.Len() {
				v := vs.At(k)
				if id, ok := v.(*graph.ViewIDNode); ok {
					used[id.ID()] = true
				}
			}
		}
	}
	var out []Finding
	for _, id := range res.Graph.ViewIDs() {
		if !used[id.ID()] {
			out = append(out, Finding{
				Check:    "unused-view-id",
				Severity: Info,
				Msg:      fmt.Sprintf("view id %q is declared but never used by any operation", id.Name),
			})
		}
	}
	return out
}

// checkUnfiredHandler flags listener classes whose handlers never receive a
// view.
func checkUnfiredHandler(res *core.Result) []Finding {
	var out []Finding
	for _, c := range res.Prog.AppClasses() {
		if c.IsInterface {
			continue
		}
		specs := res.Prog.ListenerSpecsOf(c)
		if len(specs) == 0 {
			continue
		}
		for _, spec := range specs {
			for _, h := range spec.Handlers {
				m := c.Methods[handlerKeyOf(h)]
				if m == nil || m.Body == nil || len(m.Params) == 0 {
					continue
				}
				reached := false
				for _, vi := range h.ViewParams {
					if vi < len(m.Params) && res.VarPointsTo(m.Params[vi]).Len() > 0 {
						reached = true
					}
				}
				if !reached {
					out = append(out, Finding{
						Check:    "unfired-handler",
						Severity: Warning,
						Pos:      m.Pos,
						Msg: fmt.Sprintf("handler %s can never fire: the listener is not registered on any reachable view",
							m.QualifiedName()),
					})
				}
			}
		}
	}
	return out
}

// checkInvisibleListenerView flags views that hold listeners but are never
// part of any activity or dialog content.
func checkInvisibleListenerView(res *core.Result) []Finding {
	// Collect everything reachable from some owner's content roots.
	visible := map[int]bool{}
	var walk graph.Walker
	res.Graph.RootPairs(func(owner, root graph.Value) {
		ws := walk.Descendants(res.Graph, root)
		for k := range ws.Len() {
			visible[ws.ID(k)] = true
		}
	})
	var out []Finding
	res.Graph.ListenerPairs(func(view, lst graph.Value) {
		an, ok := view.(*graph.AllocNode)
		if !ok || visible[view.ID()] {
			return
		}
		out = append(out, Finding{
			Check:    "invisible-listener-view",
			Severity: Warning,
			Pos:      an.Site.Pos(),
			Msg: fmt.Sprintf("view %s has listeners but is never attached to any activity content; its events cannot fire",
				an.String()),
		})
	})
	return dedup(out)
}

// checkDuplicateID flags id collisions within one owner's content.
func checkDuplicateID(res *core.Result) []Finding {
	var out []Finding
	var walk graph.Walker
	res.Graph.RootPairs(func(owner, root graph.Value) {
		byID := map[int][]graph.Value{}
		ws := walk.Descendants(res.Graph, root)
		for k := range ws.Len() {
			w := ws.At(k)
			ids := res.Graph.ViewIDValues(w)
			for j := range ids.Len() {
				byID[ids.ID(j)] = append(byID[ids.ID(j)], w)
			}
		}
		ids := make([]int, 0, len(byID))
		for id := range byID {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			views := byID[id]
			if len(views) < 2 {
				continue
			}
			var name string
			for _, n := range res.Graph.ViewIDs() {
				if n.ID() == id {
					name = n.Name
				}
			}
			out = append(out, Finding{
				Check:    "duplicate-id",
				Severity: Info,
				Msg: fmt.Sprintf("id %q appears on %d views in the content of %s; findViewById resolves only one",
					name, len(views), ownerName(owner)),
			})
		}
	})
	return dedup(out)
}

// checkUnhandledMenu flags populated menus without a selection handler.
func checkUnhandledMenu(res *core.Result) []Finding {
	var out []Finding
	for _, menu := range res.Graph.Menus() {
		if res.Graph.MenuItems(menu).Len() == 0 {
			continue
		}
		h := menu.Activity.Dispatch(platform.MenuSelectCallback + "(R)")
		if h == nil || h.Body == nil {
			out = append(out, Finding{
				Check:    "unhandled-menu",
				Severity: Warning,
				Msg: fmt.Sprintf("%s populates its options menu but defines no %s handler",
					menu.Activity.Name, platform.MenuSelectCallback),
			})
		}
	}
	return out
}

// checkBadIntentTarget flags intents whose target class cannot be launched.
func checkBadIntentTarget(res *core.Result) []Finding {
	var out []Finding
	for _, n := range res.Graph.Nodes() {
		alloc, ok := n.(*graph.AllocNode)
		if !ok {
			continue
		}
		targets := res.Graph.IntentTargets(alloc)
		for k := range targets.Len() {
			target := targets.At(k).(*graph.ClassNode)
			if !res.Prog.IsActivityClass(target.Class) {
				out = append(out, Finding{
					Check:    "bad-intent-target",
					Severity: Warning,
					Pos:      alloc.Site.Pos(),
					Msg: fmt.Sprintf("intent targets %s, which is not an activity; startActivity would fail",
						target.Class.Name),
				})
			}
		}
	}
	return dedup(out)
}

// checkIsolatedActivity flags activities with no incoming transition when
// the app has more than one activity and uses transitions at all.
func checkIsolatedActivity(res *core.Result) []Finding {
	transitions := res.Transitions()
	if len(transitions) == 0 {
		return nil
	}
	reached := map[string]bool{}
	for _, tr := range transitions {
		reached[tr.Target.Name] = true
	}
	acts := 0
	for _, c := range res.Prog.AppClasses() {
		if !c.IsInterface && res.Prog.IsActivityClass(c) {
			acts++
		}
	}
	if acts < 2 {
		return nil
	}
	var out []Finding
	for _, c := range res.Prog.AppClasses() {
		if c.IsInterface || !res.Prog.IsActivityClass(c) || reached[c.Name] {
			continue
		}
		out = append(out, Finding{
			Check:    "isolated-activity",
			Severity: Info,
			Msg:      fmt.Sprintf("no transition reaches %s (launcher or exported entry point?)", c.Name),
		})
	}
	return out
}

// helpers

func opPos(op *graph.OpNode) alite.Pos {
	if op.Site != nil {
		return op.Site.Pos()
	}
	return alite.Pos{}
}

func idNames(vals graph.Values) []string {
	var out []string
	for k := range vals.Len() {
		v := vals.At(k)
		if id, ok := v.(*graph.ViewIDNode); ok {
			out = append(out, id.Name)
		}
	}
	sort.Strings(out)
	return out
}

func joinNames(names []string) string {
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ","
		}
		s += "R.id." + n
	}
	return s
}

func ownerName(owner graph.Value) string {
	switch o := owner.(type) {
	case *graph.ActivityNode:
		return "activity " + o.Class.Name
	case *graph.AllocNode:
		return "dialog " + o.Class.Name
	}
	return owner.String()
}

func handlerKeyOf(h platform.HandlerSig) string {
	kinds := make([]byte, len(h.Params))
	for i, p := range h.Params {
		if p == "int" {
			kinds[i] = 'I'
		} else {
			kinds[i] = 'R'
		}
	}
	return h.Name + "(" + string(kinds) + ")"
}

// dedup drops repeated findings: the same check, position and message.
// Context-sensitive clones of one site share its position and collapse;
// two sites with the same message stay two findings.
func dedup(fs []Finding) []Finding {
	type key struct {
		check string
		pos   alite.Pos
		msg   string
	}
	seen := map[key]bool{}
	var out []Finding
	for _, f := range fs {
		k := key{f.Check, f.Pos, f.Msg}
		if !seen[k] {
			seen[k] = true
			out = append(out, f)
		}
	}
	return out
}
