package checks

// Flow-sensitive checkers: clients of the CFG (package cfg) and dataflow
// (package dataflow) layers. The flow-insensitive solution answers *which*
// views flow where; these passes additionally see *when* along each path —
// statement ordering defects the solution-only checkers cannot express.

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"gator/internal/alite"
	"gator/internal/cfg"
	"gator/internal/dataflow"
	"gator/internal/graph"
	"gator/internal/ir"
	"gator/internal/platform"
)

// callName returns the bare method name of a call site for messages.
func callName(site *ir.Invoke) string {
	name := site.Key
	if i := strings.IndexByte(name, '('); i >= 0 {
		name = name[:i]
	}
	return name
}

// checkFindViewBeforeSetContent flags Activity.findViewById calls that can
// execute before the same activity's setContentView along some CFG path:
// flow-insensitively the id resolves (the content is set *somewhere* in the
// method), but in program order the lookup still returns null.
//
// The pass runs a must-analysis per method: the fact is the set of
// activity/dialog values whose content view has definitely been installed
// on every path reaching a point. A findViewById whose receiver is not yet
// covered on some path is reported. Only methods that themselves install
// the content view are considered — cross-method ordering (helpers called
// after onCreate) is out of scope and would be noise.
func checkFindViewBeforeSetContent(ctx *Context) []Finding {
	var out []Finding
	for _, m := range ctx.AppMethods() {
		// Group this method's content-install and find-view operations by
		// call site (context-sensitive clones union their solutions).
		var setBySite, findBySite map[*ir.Invoke][]int
		var allSet []int
		for _, op := range ctx.OpsIn(m) {
			isSet := op.Kind == platform.OpInflate2 || op.Kind == platform.OpAddView1
			if op.Site == nil || !isSet && op.Kind != platform.OpFindView2 {
				continue
			}
			recvs := ctx.receiverIDs(op)
			if len(recvs) == 0 {
				continue // dead op
			}
			if isSet {
				setBySite = addIDs(setBySite, op.Site, recvs)
				allSet = mergeIDs(allSet, recvs)
			} else {
				findBySite = addIDs(findBySite, op.Site, recvs)
			}
		}
		if len(setBySite) == 0 || len(findBySite) == 0 {
			continue
		}

		res := traceSolve(ctx, m, dataflow.Forward[contentFact](ctx.CFG(m), contentAnalysis{setBySite: setBySite}))
		type hit struct {
			pos  alite.Pos
			site *ir.Invoke
		}
		var hits []hit
		reported := map[*ir.Invoke]bool{}
		res.VisitStmts(func(b *cfg.Block, s ir.Stmt, before contentFact) {
			inv, ok := s.(*ir.Invoke)
			if !ok || reported[inv] {
				return
			}
			recvs, isFind := findBySite[inv]
			if !isFind || before == nil /* unreachable */ {
				return
			}
			// Only meaningful when this method installs content for one of
			// the same activities.
			if !intersects(recvs, allSet) {
				return
			}
			for _, id := range recvs {
				if !before[id] {
					reported[inv] = true
					hits = append(hits, hit{inv.At, inv})
					return
				}
			}
		})
		for _, h := range hits {
			ids := ctx.findViewIDNames(h.site)
			out = append(out, Finding{
				Check:    "findview-before-setcontentview",
				Severity: Warning,
				Pos:      h.pos,
				Msg: fmt.Sprintf("findViewById(%s) can run before setContentView on some path; the lookup returns null there",
					joinNames(ids)),
				SuggestedFix: "call setContentView before the first findViewById",
			})
		}
	}
	return out
}

// findViewIDNames returns the id constant names reaching a find-view site's
// first argument.
func (c *Context) findViewIDNames(site *ir.Invoke) []string {
	var names []string
	for _, op := range c.OpsAt(site) {
		names = append(names, idNames(c.Res.OpArg(op, 0))...)
	}
	sort.Strings(names)
	// dedup
	out := names[:0]
	for i, n := range names {
		if i == 0 || names[i-1] != n {
			out = append(out, n)
		}
	}
	return out
}

// mergeIDs returns the sorted union of two sorted ID slices.
func mergeIDs(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		var x int
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			x, a = a[0], a[1:]
		case len(a) == 0 || b[0] < a[0]:
			x, b = b[0], b[1:]
		default:
			x, a, b = a[0], a[1:], b[1:]
		}
		if len(out) == 0 || out[len(out)-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// addIDs merges ids into bySite[site], allocating bySite on first use.
func addIDs(bySite map[*ir.Invoke][]int, site *ir.Invoke, ids []int) map[*ir.Invoke][]int {
	if bySite == nil {
		bySite = map[*ir.Invoke][]int{}
	}
	bySite[site] = mergeIDs(bySite[site], ids)
	return bySite
}

// contentFact is the must-analysis fact of checkFindViewBeforeSetContent:
// the set of owner value IDs whose content view is installed on every path.
// The nil map is the universe (bottom: identity of intersection, held by
// unreachable code); the empty map means "nothing installed yet".
type contentFact map[int]bool

type contentAnalysis struct {
	setBySite map[*ir.Invoke][]int
}

func (a contentAnalysis) Bottom() contentFact            { return nil }
func (a contentAnalysis) Entry(g *cfg.Graph) contentFact { return contentFact{} }

func (a contentAnalysis) Join(x, y contentFact) contentFact {
	if x == nil {
		return y
	}
	if y == nil {
		return x
	}
	out := contentFact{}
	for id := range x {
		if y[id] {
			out[id] = true
		}
	}
	return out
}

func (a contentAnalysis) Equal(x, y contentFact) bool {
	if (x == nil) != (y == nil) || len(x) != len(y) {
		return false
	}
	for id := range x {
		if !y[id] {
			return false
		}
	}
	return true
}

func (a contentAnalysis) Copy(x contentFact) contentFact { return maps.Clone(x) }

func (a contentAnalysis) Transfer(s ir.Stmt, in contentFact) contentFact {
	inv, ok := s.(*ir.Invoke)
	if !ok {
		return in
	}
	ids, isSet := a.setBySite[inv]
	if !isSet || in == nil {
		return in
	}
	for _, id := range ids {
		in[id] = true
	}
	return in
}

func (a contentAnalysis) Branch(c ir.Cond, taken bool, out contentFact) contentFact { return out }

// checkNullViewDeref flags dereferences of references that are definitely
// null: results of find-view calls whose static solution is empty (seeded
// by the reference analysis), null constants, and null-tested branches.
// This is the dereference-site refinement of dangling-findview: the defect
// is reported where the program would actually throw. A method Null cannot
// enter (see Context.mayHoldNull) gets no CFG and no solve.
func checkNullViewDeref(ctx *Context) []Finding {
	var out []Finding
	for _, m := range ctx.AppMethods() {
		if ctx.mayHoldNull(m) {
			out = append(out, nullViewDerefs(ctx, m)...)
		}
	}
	return out
}

// nullViewDerefs solves nullness over m and reports its null dereferences.
func nullViewDerefs(ctx *Context, m *ir.Method) []Finding {
	var out []Finding
	ctx.Nullness(m).VisitStmts(func(b *cfg.Block, s ir.Stmt, before dataflow.NullFact) {
		if before == nil {
			return // unreachable
		}
		var base *ir.Var
		var action string
		switch s := s.(type) {
		case *ir.Invoke:
			base, action = s.Recv, "calling "+callName(s)+" on it"
		case *ir.Load:
			base, action = s.Base, "reading field "+s.Field.Name
		case *ir.Store:
			base, action = s.Base, "writing field "+s.Field.Name
		}
		if base == nil || base == m.This {
			return
		}
		v := before.Get(base)
		if v.K != dataflow.Null {
			return
		}
		why := v.Why
		if why == "" {
			why = "assigned null"
		}
		out = append(out, Finding{
			Check:    "null-view-deref",
			Severity: Warning,
			Pos:      s.Pos(),
			Msg: fmt.Sprintf("%s is always null here (%s); %s throws a NullPointerException",
				base.Name, why, action),
			SuggestedFix: "guard the dereference with a null check, or fix the id/layout so the lookup succeeds",
		})
	})
	return out
}

// checkListenerReset flags a second set-listener on the same view and event
// along one path: Android's setOnClickListener and friends *replace* the
// current handler, so the first registration is dead on that path — usually
// a copy-paste defect where two handlers were meant for two views.
//
// Implemented as a gen-only forward may-analysis: the fact is the set of
// set-listener sites that may already have executed. At each site, any
// reaching site with the same event and an overlapping receiver-view
// solution is a handler this statement silently discards.
//
// Receivers are program-point receivers (flowsTo at the registration site,
// see flowsto.go), which need reaching definitions. They are subsets of the
// flow-insensitive receivers, so a method without a conflict among the
// latter has none among the former and gets no CFG and no solve.
func checkListenerReset(ctx *Context) []Finding {
	var out []Finding
	for _, m := range ctx.AppMethods() {
		if _, conflict := listenerConflicts(listenerSites(ctx, m, ctx.receiverIDs)); conflict {
			out = append(out, listenerResets(ctx, m)...)
		}
	}
	return out
}

// listenerResets reports m's set-listener sites that replace a handler
// registered earlier on the same path, under program-point receivers.
func listenerResets(ctx *Context, m *ir.Method) []Finding {
	sites := listenerSites(ctx, m, func(op *graph.OpNode) []int { return ctx.pointRecvIDs(m, op) })
	conflicts, conflict := listenerConflicts(sites)
	if !conflict {
		return nil
	}
	index := map[*ir.Invoke]int{}
	for i, ls := range sites {
		index[ls.site] = i
	}
	res := traceSolve(ctx, m, dataflow.Forward[dataflow.Bits](ctx.CFG(m), listenerAnalysis{index: index}))
	var out []Finding
	reported := map[*ir.Invoke]bool{}
	res.VisitStmts(func(b *cfg.Block, s ir.Stmt, before dataflow.Bits) {
		inv, ok := s.(*ir.Invoke)
		if !ok || reported[inv] {
			return
		}
		i, isSet := index[inv]
		if !isSet {
			return
		}
		var replacedAt []string
		for _, j := range before.Ones() {
			if conflicts[i].Get(j) {
				replacedAt = append(replacedAt, sites[j].site.At.String())
			}
		}
		if len(replacedAt) == 0 {
			return
		}
		reported[inv] = true
		out = append(out, Finding{
			Check:    "listener-reset",
			Severity: Warning,
			Pos:      inv.At,
			Msg: fmt.Sprintf("%s replaces the %s listener installed at %s on the same view; the earlier handler never fires",
				callName(inv), sites[i].event, strings.Join(replacedAt, ", ")),
			SuggestedFix: "register the handlers on distinct views, or drop the earlier registration",
		})
	})
	return out
}

// listenerSite is one live set-listener call site of a method.
type listenerSite struct {
	site  *ir.Invoke
	event string
	recvs []int
}

// listenerSites collects m's live set-listener sites in source order, each
// with the union of its operations' receivers under recvIDs.
func listenerSites(ctx *Context, m *ir.Method, recvIDs func(*graph.OpNode) []int) []*listenerSite {
	var bySite map[*ir.Invoke]*listenerSite
	var sites []*listenerSite
	for _, op := range ctx.OpsIn(m) {
		if op.Kind != platform.OpSetListener || op.Site == nil || op.Event == "" {
			continue
		}
		recvs := recvIDs(op)
		if len(recvs) == 0 {
			continue // dead op
		}
		if ls, ok := bySite[op.Site]; ok {
			ls.recvs = mergeIDs(ls.recvs, recvs)
			continue
		}
		if bySite == nil {
			bySite = map[*ir.Invoke]*listenerSite{}
		}
		ls := &listenerSite{site: op.Site, event: op.Event, recvs: recvs}
		bySite[op.Site] = ls
		sites = append(sites, ls)
	}
	sort.Slice(sites, func(i, j int) bool { return posLess(sites[i].site.At, sites[j].site.At) })
	return sites
}

// listenerConflicts returns, for each site i, the sites whose handler site i
// would replace — same event, overlapping receivers — and whether there is
// any such pair.
func listenerConflicts(sites []*listenerSite) (conflicts []dataflow.Bits, conflict bool) {
	if len(sites) < 2 {
		return nil, false
	}
	conflicts = make([]dataflow.Bits, len(sites))
	for i, a := range sites {
		for j, b := range sites {
			if i != j && a.event == b.event && intersects(a.recvs, b.recvs) {
				conflicts[i] = conflicts[i].With(j)
				conflict = true
			}
		}
	}
	return conflicts, conflict
}

func posLess(a, b alite.Pos) bool {
	if a.File != b.File {
		return a.File < b.File
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col < b.Col
}

// listenerAnalysis: gen-only may-analysis over set-listener sites.
type listenerAnalysis struct {
	index map[*ir.Invoke]int
}

func (a listenerAnalysis) Bottom() dataflow.Bits            { return nil }
func (a listenerAnalysis) Entry(g *cfg.Graph) dataflow.Bits { return nil }
func (a listenerAnalysis) Join(x, y dataflow.Bits) dataflow.Bits {
	return x.Union(y)
}
func (a listenerAnalysis) Equal(x, y dataflow.Bits) bool      { return x.Equal(y) }
func (a listenerAnalysis) Copy(x dataflow.Bits) dataflow.Bits { return slices.Clone(x) }
func (a listenerAnalysis) Transfer(s ir.Stmt, in dataflow.Bits) dataflow.Bits {
	if inv, ok := s.(*ir.Invoke); ok {
		if i, isSet := a.index[inv]; isSet {
			in.Add(i)
		}
	}
	return in
}
func (a listenerAnalysis) Branch(c ir.Cond, taken bool, out dataflow.Bits) dataflow.Bits {
	return out
}
