package checks

import (
	"slices"
	"testing"

	"gator/internal/cfg"
	"gator/internal/core"
	"gator/internal/corpus"
	"gator/internal/dataflow"
	"gator/internal/graph"
	"gator/internal/ir"
)

// TestDemandDrivenPassesMatchEveryMethod holds null-view-deref and
// listener-reset to the arguments that let them skip methods, on every
// application method of the corpus, chain and golden apps, with contexts
// off and under 1cfa: a method null-view-deref skips holds Null in no fact
// of a full nullness solve, a method listener-reset skips has no conflicting
// pair under program-point receivers, and each pass reports exactly what
// running it over every method reports.
func TestDemandDrivenPassesMatchEveryMethod(t *testing.T) {
	for _, mode := range []core.CtxMode{core.CtxOff, core.Ctx1CFA} {
		var nullFound, resetFound int
		for _, app := range inPlaceAppsUnder(t, core.Options{ContextSensitivity: mode}) {
			where := app.name + " (" + mode.String() + ")"
			ctx := NewContext(app.res)
			var nullAll, resetAll []Finding
			for _, m := range ctx.AppMethods() {
				nullAll = append(nullAll, nullViewDerefs(ctx, m)...)
				resetAll = append(resetAll, listenerResets(ctx, m)...)
				if !ctx.mayHoldNull(m) && holdsNull(ctx.Nullness(m)) {
					t.Errorf("%s: %s: null-view-deref skips it, yet a full solve holds Null", where, m)
				}
				_, unrefined := listenerConflicts(listenerSites(ctx, m, ctx.receiverIDs))
				_, refined := listenerConflicts(listenerSites(ctx, m, func(op *graph.OpNode) []int { return ctx.pointRecvIDs(m, op) }))
				if refined && !unrefined {
					t.Errorf("%s: %s: listener-reset skips it, yet program-point receivers conflict", where, m)
				}
			}
			fresh := NewContext(app.res)
			if got := checkNullViewDeref(fresh); !slices.Equal(got, nullAll) {
				t.Errorf("%s: null-view-deref reports %v, every method %v", where, got, nullAll)
			}
			if got := checkListenerReset(fresh); !slices.Equal(got, resetAll) {
				t.Errorf("%s: listener-reset reports %v, every method %v", where, got, resetAll)
			}
			nullFound += len(nullAll)
			resetFound += len(resetAll)
		}
		if nullFound == 0 || resetFound == 0 {
			t.Errorf("%v: %d null-view-deref and %d listener-reset findings, want some of each", mode, nullFound, resetFound)
		}
	}
}

// holdsNull reports whether any block-boundary or per-statement fact of a
// nullness solution holds Null for some variable.
func holdsNull(res *dataflow.Result[dataflow.NullFact]) bool {
	hasNull := func(f dataflow.NullFact) bool {
		for _, v := range f {
			if v.K == dataflow.Null {
				return true
			}
		}
		return false
	}
	held := slices.ContainsFunc(res.In, hasNull) || slices.ContainsFunc(res.Out, hasNull)
	res.VisitStmts(func(_ *cfg.Block, _ ir.Stmt, before dataflow.NullFact) {
		held = held || hasNull(before)
	})
	return held
}

// TestNullnessSolveCount pins the nullness solves null-view-deref makes over
// the 20 corpus apps under the paper's configuration: one per method Null
// can enter, 174 of the 39,816 application methods.
func TestNullnessSolveCount(t *testing.T) {
	methods, solves := 0, 0
	for _, a := range corpus.GenerateAll() {
		ctx := NewContext(solveApp(t, a.Name, a.FreshFiles(), a.FreshLayouts(), core.Options{}).res)
		checkNullViewDeref(ctx)
		methods += len(ctx.AppMethods())
		solves += len(ctx.nullRes)
	}
	if methods != 39816 || solves != 174 {
		t.Errorf("%d nullness solves over %d methods, want 174 over 39816", solves, methods)
	}
}
