package core

import (
	"gator/internal/alite"
	"gator/internal/graph"
	"gator/internal/ir"
	"gator/internal/layout"
	"gator/internal/platform"
)

// solve runs the outer fixpoint: flow propagation to quiescence, then one
// pass over the operation nodes applying the inference rules of Section 4.2.
// Operation processing can seed new values (FindView/Inflate outputs) and
// add relationship edges (parent-child, ids, listeners, roots), both of
// which require further rounds; the loop ends when a full round changes
// nothing. Termination: the value universe is finite (allocation sites,
// activities, resource ids, and per-site inflation nodes) and all sets and
// relations grow monotonically.
//
// By default a round re-applies only the operations the delta worklist
// marks (delta.go); Options.ReferenceSolver applies every operation every
// round, the baseline the differential harness holds the delta schedule
// to. Both schedules drain the same propagate loop and derive the same
// facts in the same order, so the choice is invisible in results,
// provenance, and iteration counts.
func (a *analysis) solve() {
	if !a.opts.ReferenceSolver {
		a.initDelta()
	}
	for {
		a.iterations++
		a.tr.Iteration(a.iterations, len(a.worklist))
		a.propagate()
		changed := false
		for i, op := range a.g.Ops() {
			if a.opDirty != nil && !a.opTake(i) {
				continue
			}
			if a.applyOp(op) {
				changed = true
				a.tr.Rule(op.Kind.String(), 1)
			}
		}
		if !changed && len(a.worklist) == 0 {
			return
		}
	}
}

// propagate drains the worklist, pushing each value across its node's flow
// edges in the graph's insertion order and through each edge's label: a
// dispatch guard or cast filter may stop it, and the edge's units go into
// the derived fact's record. Operation rules never add flow edges, so the
// successor lists are stable for the whole solve. Once the consumed prefix
// is at least half the worklist, the pending tail moves to the front, so
// the slice stays near the size of the live frontier instead of growing to
// a whole round's pushes; the queue order is unchanged.
func (a *analysis) propagate() {
	for head := 0; head < len(a.worklist); head++ {
		if 2*head >= len(a.worklist) {
			a.worklist = a.worklist[:copy(a.worklist, a.worklist[head:])]
			head = 0
		}
		it := a.worklist[head]
		src := it.node.ID()
		for _, succ := range a.g.FlowSucc(it.node) {
			l := a.edges[[2]int{src, succ.ID()}]
			if l.callee != nil && !dispatchAdmits(it.val, l.callee) {
				continue
			}
			if l.cast != nil && !castAdmits(it.val, l.cast) {
				continue
			}
			if a.seedChecked(succ, it.val) && a.tracking {
				a.record(flowFact(succ, it.val), "Flow", l.units, flowFact(it.node, it.val))
			}
		}
	}
	a.worklist = a.worklist[:0]
}

// dispatchAdmits reports whether a receiver value actually dispatches the
// call to the callee guarding the edge. Values without a dynamic class
// (resource ids) are never receivers.
func dispatchAdmits(v graph.Value, callee *ir.Method) bool {
	var vc *ir.Class
	switch v := v.(type) {
	case *graph.AllocNode:
		vc = v.Class
	case *graph.ActivityNode:
		vc = v.Class
	case *graph.InflNode:
		vc = v.Class
	default:
		return false
	}
	return vc.Dispatch(callee.Key) == callee
}

// castAdmits reports whether a value may pass a cast to cls. Values without
// a class (resource ids) pass unfiltered.
func castAdmits(v graph.Value, cls *ir.Class) bool {
	var vc *ir.Class
	switch v := v.(type) {
	case *graph.AllocNode:
		vc = v.Class
	case *graph.ActivityNode:
		vc = v.Class
	case *graph.InflNode:
		vc = v.Class
	default:
		return true
	}
	return vc.SubtypeOf(cls)
}

// seedChecked is seed that reports whether the value was new.
func (a *analysis) seedChecked(n graph.Node, v graph.Value) bool {
	if a.pts.ensure(n).Add(v) {
		a.worklist = append(a.worklist, propItem{n, v})
		a.markWatchers(n.ID())
		return true
	}
	return false
}

func (a *analysis) ptsOf(n graph.Node) []graph.Value {
	if s := a.pts.of(n); s != nil {
		return s.Values()
	}
	return nil
}

func viewsOf(vals []graph.Value) []graph.Value {
	var out []graph.Value
	for _, v := range vals {
		if graph.IsViewValue(v) {
			out = append(out, v)
		}
	}
	return out
}

// ownersOf filters values that can own a content view: implicitly created
// activities and explicitly allocated dialogs.
func ownersOf(vals []graph.Value) []graph.Value {
	var out []graph.Value
	for _, v := range vals {
		switch v := v.(type) {
		case *graph.ActivityNode:
			out = append(out, v)
		case *graph.AllocNode:
			if v.IsDialog {
				out = append(out, v)
			}
		}
	}
	return out
}

func layoutIDsOf(vals []graph.Value) []*graph.LayoutIDNode {
	var out []*graph.LayoutIDNode
	for _, v := range vals {
		if l, ok := v.(*graph.LayoutIDNode); ok {
			out = append(out, l)
		}
	}
	return out
}

func viewIDsOf(vals []graph.Value) []*graph.ViewIDNode {
	var out []*graph.ViewIDNode
	for _, v := range vals {
		if n, ok := v.(*graph.ViewIDNode); ok {
			out = append(out, n)
		}
	}
	return out
}

// applyOp applies one operation node's inference rule against the current
// solution; it reports whether anything changed.
func (a *analysis) applyOp(op *graph.OpNode) bool {
	switch op.Kind {
	case platform.OpInflate1:
		return a.applyInflate1(op)
	case platform.OpInflate2:
		return a.applyInflate2(op)
	case platform.OpAddView1:
		return a.applyAddView1(op)
	case platform.OpAddView2:
		return a.applyAddView2(op)
	case platform.OpSetId:
		return a.applySetID(op)
	case platform.OpSetListener:
		return a.applySetListener(op)
	case platform.OpFindView1:
		return a.applyFindView1(op)
	case platform.OpFindView2:
		return a.applyFindView2(op)
	case platform.OpFindView3:
		return a.applyFindView3(op)
	case platform.OpSetIntentTarget:
		return a.applySetIntentTarget(op)
	case platform.OpFindParent:
		return a.applyFindParent(op)
	case platform.OpMenuAdd:
		return a.applyMenuAdd(op)
	case platform.OpFindMenuItem:
		return a.applyFindMenuItem(op)
	case platform.OpSetAdapter:
		return a.applySetAdapter(op)
	}
	// OpShowDialog, OpDismissDialog, OpRemoveView: visibility changes are
	// no-ops for the monotone solution; the lifecycle checkers read the
	// operations' positions instead.
	return false
}

// applySetAdapter implements the list-adapter extension: the views returned
// by the adapter's getView callback become children of the AdapterView.
func (a *analysis) applySetAdapter(op *graph.OpNode) bool {
	changed := false
	u := a.unitOf(op.Method)
	key := ir.MethodKey("getView", []alite.Type{{Prim: alite.TypeInt}})
	for _, adapter := range a.ptsOf(op.Args[0]) {
		var cls *ir.Class
		switch ad := adapter.(type) {
		case *graph.AllocNode:
			cls = ad.Class
		case *graph.ActivityNode:
			cls = ad.Class
		default:
			continue
		}
		m := cls.Dispatch(key)
		if m == nil || m.Body == nil {
			continue
		}
		for _, rv := range a.methodReturnVars(m) {
			for _, item := range viewsOf(a.ptsOf(a.g.VarNode(rv))) {
				for _, parent := range viewsOf(a.ptsOf(op.Recv)) {
					if a.g.AddChild(parent, item) {
						changed = true
						if a.tracking {
							a.record(childFact(parent, item), op.Kind.String(), u.or(a.unitOf(m)),
								flowFact(op.Recv, parent), flowFact(op.Args[0], adapter),
								flowFact(a.g.VarNode(rv), item))
						}
					}
				}
			}
		}
	}
	return changed
}

// applyMenuAdd materializes the menu item of a Menu.add site, associates it
// with the reaching menus and item ids, and feeds it to the owning
// activities' onOptionsItemSelected callback.
func (a *analysis) applyMenuAdd(op *graph.OpNode) bool {
	changed := false
	u := a.unitOf(op.Method)
	for _, v := range a.ptsOf(op.Recv) {
		menu, ok := v.(*graph.MenuNode)
		if !ok {
			continue
		}
		item := a.g.MenuItemNode(op)
		if a.g.AddMenuItem(menu, item) {
			changed = true
			if a.tracking {
				a.record(menuItemFact(menu, item), op.Kind.String(), u, flowFact(op.Recv, menu))
			}
		}
		for _, id := range viewIDsOf(a.ptsOf(op.Args[0])) {
			if a.g.AddViewID(item, id) {
				changed = true
				if a.tracking {
					a.record(viewIDFact(item, id), op.Kind.String(), u,
						flowFact(op.Recv, menu), flowFact(op.Args[0], id))
				}
			}
		}
		if op.Out != nil && a.seedChecked(op.Out, item) {
			changed = true
			if a.tracking {
				a.record(flowFact(op.Out, item), op.Kind.String(), u, flowFact(op.Recv, menu))
			}
		}
		if h := menu.Activity.Dispatch(platform.MenuSelectCallback + "(R)"); h != nil && h.Body != nil && len(h.Params) == 1 {
			if a.seedChecked(a.g.VarNode(h.Params[0]), item) {
				changed = true
				if a.tracking {
					a.record(flowFact(a.g.VarNode(h.Params[0]), item), op.Kind.String(),
						u.or(a.unitOf(h)), menuItemFact(menu, item))
				}
			}
		}
	}
	return changed
}

// applyFindMenuItem resolves a Menu.findItem site: the items of the
// reaching menus that carry the argument item id flow to the output — the
// menu-space analogue of the FindView rules.
func (a *analysis) applyFindMenuItem(op *graph.OpNode) bool {
	if op.Out == nil {
		return false
	}
	changed := false
	u := a.unitOf(op.Method)
	for _, v := range a.ptsOf(op.Recv) {
		menu, ok := v.(*graph.MenuNode)
		if !ok {
			continue
		}
		for _, id := range viewIDsOf(a.ptsOf(op.Args[0])) {
			for _, item := range a.g.MenuItems(menu) {
				if a.g.HasViewID(item, id) && a.seedChecked(op.Out, item) {
					changed = true
					if a.tracking {
						a.record(flowFact(op.Out, item), op.Kind.String(), u,
							flowFact(op.Recv, menu), flowFact(op.Args[0], id),
							menuItemFact(menu, item), viewIDFact(item, id))
					}
				}
			}
		}
	}
	return changed
}

// applyFindParent propagates the recorded parents of the receiver views to
// the output (the inverse of the parent-child relation).
func (a *analysis) applyFindParent(op *graph.OpNode) bool {
	if op.Out == nil {
		return false
	}
	changed := false
	u := a.unitOf(op.Method)
	for _, view := range viewsOf(a.ptsOf(op.Recv)) {
		for _, p := range a.g.Parents(view) {
			if a.seedChecked(op.Out, p) {
				changed = true
				if a.tracking {
					a.record(flowFact(op.Out, p), op.Kind.String(), u,
						flowFact(op.Recv, view), childFact(p, view))
				}
			}
		}
	}
	return changed
}

// applySetIntentTarget implements the inter-component extension: intent
// allocations reaching the receiver become associated with the class
// literals reaching the argument.
func (a *analysis) applySetIntentTarget(op *graph.OpNode) bool {
	changed := false
	u := a.unitOf(op.Method)
	for _, intent := range a.ptsOf(op.Recv) {
		if _, ok := intent.(*graph.AllocNode); !ok {
			continue
		}
		for _, v := range a.ptsOf(op.Args[0]) {
			cls, ok := v.(*graph.ClassNode)
			if !ok {
				continue
			}
			if a.g.AddIntentTarget(intent, cls) {
				changed = true
				if a.tracking {
					a.record(intentFact(intent, cls), op.Kind.String(), u,
						flowFact(op.Recv, intent), flowFact(op.Args[0], cls))
				}
			}
		}
		// setClass returns the receiver for chaining.
		if op.Out != nil && a.seedChecked(op.Out, intent) {
			changed = true
			if a.tracking {
				a.record(flowFact(op.Out, intent), op.Kind.String(), u, flowFact(op.Recv, intent))
			}
		}
	}
	return changed
}

// inflate materializes the view nodes for inflating layout lid at op,
// once per (site, layout) pair — or per layout under SharedInflation.
// It returns the materialization and whether new nodes or edges appeared.
// The structural facts it establishes — child edges and view ids read from
// the layout XML — are derived by the inflation rule from the fact that the
// layout id reached the operation.
func (a *analysis) inflate(op *graph.OpNode, lid *graph.LayoutIDNode) (*inflation, bool) {
	key := inflationKey{layout: lid.Name}
	if !a.opts.SharedInflation {
		key.op = op.ID()
	}
	if inf, ok := a.inflations[key]; ok {
		return inf, false
	}
	l := a.prog.Layouts[lid.Name]
	if l == nil {
		return nil, false
	}
	inf := &inflation{}
	// Inflation-derived structure depends on the inflating call's file and on
	// the layout's content.
	ul := a.unitOf(op.Method).or(a.layoutUnit(lid.Name))
	path := 0
	var build func(n *layout.Node, parent *graph.InflNode)
	build = func(n *layout.Node, parent *graph.InflNode) {
		cls := a.prog.Class(n.Class)
		if n.Merge {
			// A standalone-inflated <merge> root becomes a transparent
			// ViewGroup container.
			cls = a.prog.Class("ViewGroup")
		}
		node := a.g.NewInflNode(op, lid.Name, path, cls, n.ID, n.OnClick)
		path++
		if parent == nil {
			inf.root = node
		} else {
			a.g.AddChild(parent, node)
			if a.tracking {
				a.record(childFact(parent, node), op.Kind.String(), ul, flowFact(op.Args[0], lid))
			}
		}
		inf.all = append(inf.all, node)
		if n.ID != "" {
			if resID, ok := a.prog.R.ViewID(n.ID); ok {
				id := a.g.ViewIDNode(resID, n.ID)
				a.g.AddViewID(node, id)
				if a.tracking {
					a.record(viewIDFact(node, id), op.Kind.String(), ul, flowFact(op.Args[0], lid))
				}
			}
		}
		for _, ch := range n.Children {
			build(ch, node)
		}
	}
	build(l.Root, nil)
	a.g.AddLayoutOf(inf.root, lid)
	a.inflations[key] = inf
	a.rootInflation[inf.root] = inf
	return inf, true
}

func (a *analysis) applyInflate1(op *graph.OpNode) bool {
	changed := false
	for _, lid := range layoutIDsOf(a.ptsOf(op.Args[0])) {
		inf, c := a.inflate(op, lid)
		if inf == nil {
			continue
		}
		changed = changed || c
		ul := a.unitOf(op.Method).or(a.layoutUnit(lid.Name))
		if op.Out != nil && a.seedChecked(op.Out, inf.root) {
			changed = true
			if a.tracking {
				a.record(flowFact(op.Out, inf.root), op.Kind.String(), ul, flowFact(op.Args[0], lid))
			}
		}
		if op.AttachParent && op.ParentArg < len(op.Args) {
			for _, parent := range viewsOf(a.ptsOf(op.Args[op.ParentArg])) {
				if a.g.AddChild(parent, inf.root) {
					changed = true
					if a.tracking {
						a.record(childFact(parent, inf.root), op.Kind.String(), ul,
							flowFact(op.Args[0], lid), flowFact(op.Args[op.ParentArg], parent))
					}
				}
			}
		}
	}
	return changed
}

func (a *analysis) applyInflate2(op *graph.OpNode) bool {
	changed := false
	for _, lid := range layoutIDsOf(a.ptsOf(op.Args[0])) {
		inf, c := a.inflate(op, lid)
		if inf == nil {
			continue
		}
		changed = changed || c
		ul := a.unitOf(op.Method).or(a.layoutUnit(lid.Name))
		for _, owner := range ownersOf(a.ptsOf(op.Recv)) {
			if a.g.AddRoot(owner, inf.root) {
				changed = true
				if a.tracking {
					a.record(rootFact(owner, inf.root), op.Kind.String(), ul,
						flowFact(op.Recv, owner), flowFact(op.Args[0], lid))
				}
			}
			if a.bindOnClick(owner, inf) {
				changed = true
			}
		}
	}
	return changed
}

func (a *analysis) applyAddView1(op *graph.OpNode) bool {
	changed := false
	u := a.unitOf(op.Method)
	for _, owner := range ownersOf(a.ptsOf(op.Recv)) {
		for _, view := range viewsOf(a.ptsOf(op.Args[0])) {
			if a.g.AddRoot(owner, view) {
				changed = true
				if a.tracking {
					a.record(rootFact(owner, view), op.Kind.String(), u,
						flowFact(op.Recv, owner), flowFact(op.Args[0], view))
				}
			}
			if root, ok := view.(*graph.InflNode); ok {
				if inf := a.rootInflation[root]; inf != nil && a.bindOnClick(owner, inf) {
					changed = true
				}
			}
		}
	}
	return changed
}

func (a *analysis) applyAddView2(op *graph.OpNode) bool {
	changed := false
	u := a.unitOf(op.Method)
	for _, parent := range viewsOf(a.ptsOf(op.Recv)) {
		for _, child := range viewsOf(a.ptsOf(op.Args[0])) {
			if a.g.AddChild(parent, child) {
				changed = true
				if a.tracking {
					a.record(childFact(parent, child), op.Kind.String(), u,
						flowFact(op.Recv, parent), flowFact(op.Args[0], child))
				}
			}
		}
	}
	return changed
}

func (a *analysis) applySetID(op *graph.OpNode) bool {
	changed := false
	u := a.unitOf(op.Method)
	for _, view := range viewsOf(a.ptsOf(op.Recv)) {
		for _, id := range viewIDsOf(a.ptsOf(op.Args[0])) {
			if a.g.AddViewID(view, id) {
				changed = true
				if a.tracking {
					a.record(viewIDFact(view, id), op.Kind.String(), u,
						flowFact(op.Recv, view), flowFact(op.Args[0], id))
				}
			}
		}
	}
	return changed
}

func (a *analysis) applySetListener(op *graph.OpNode) bool {
	changed := false
	u := a.unitOf(op.Method)
	for _, view := range viewsOf(a.ptsOf(op.Recv)) {
		for _, lst := range a.ptsOf(op.Args[0]) {
			if _, isID := lst.(*graph.ViewIDNode); isID {
				continue
			}
			if _, isLID := lst.(*graph.LayoutIDNode); isLID {
				continue
			}
			if a.g.AddListener(view, lst) {
				changed = true
				if a.tracking {
					a.record(listenerFact(view, lst), op.Kind.String(), u,
						flowFact(op.Recv, view), flowFact(op.Args[0], lst))
				}
			}
		}
	}
	return changed
}

func (a *analysis) applyFindView1(op *graph.OpNode) bool {
	if op.Out == nil {
		return false
	}
	changed := false
	u := a.unitOf(op.Method)
	for _, view := range viewsOf(a.ptsOf(op.Recv)) {
		for _, id := range viewIDsOf(a.ptsOf(op.Args[0])) {
			for _, w := range a.walk.Descendants(a.g, view) {
				if a.g.HasViewID(w, id) && a.seedChecked(op.Out, w) {
					changed = true
					if a.tracking {
						prem := []Fact{flowFact(op.Recv, view), flowFact(op.Args[0], id)}
						prem = append(prem, a.childPath(view, w)...)
						prem = append(prem, viewIDFact(w, id))
						a.record(flowFact(op.Out, w), op.Kind.String(), u, prem...)
					}
				}
			}
		}
	}
	return changed
}

func (a *analysis) applyFindView2(op *graph.OpNode) bool {
	if op.Out == nil {
		return false
	}
	changed := false
	u := a.unitOf(op.Method)
	for _, owner := range ownersOf(a.ptsOf(op.Recv)) {
		for _, id := range viewIDsOf(a.ptsOf(op.Args[0])) {
			for _, root := range a.g.Roots(owner) {
				for _, w := range a.walk.Descendants(a.g, root) {
					if a.g.HasViewID(w, id) && a.seedChecked(op.Out, w) {
						changed = true
						if a.tracking {
							prem := []Fact{flowFact(op.Recv, owner), flowFact(op.Args[0], id),
								rootFact(owner, root)}
							prem = append(prem, a.childPath(root, w)...)
							prem = append(prem, viewIDFact(w, id))
							a.record(flowFact(op.Out, w), op.Kind.String(), u, prem...)
						}
					}
				}
			}
		}
	}
	return changed
}

func (a *analysis) applyFindView3(op *graph.OpNode) bool {
	if op.Out == nil {
		return false
	}
	changed := false
	u := a.unitOf(op.Method)
	childOnly := op.Scope == platform.ScopeChildren && !a.opts.NoFindView3Refinement
	for _, view := range viewsOf(a.ptsOf(op.Recv)) {
		var candidates []graph.Value
		if childOnly {
			candidates = a.g.Children(view)
		} else {
			candidates = a.walk.Descendants(a.g, view)
		}
		for _, w := range candidates {
			if a.seedChecked(op.Out, w) {
				changed = true
				if a.tracking {
					prem := []Fact{flowFact(op.Recv, view)}
					prem = append(prem, a.childPath(view, w)...)
					a.record(flowFact(op.Out, w), op.Kind.String(), u, prem...)
				}
			}
		}
	}
	return changed
}

// bindOnClick wires declarative android:onClick handlers: when an inflated
// tree becomes the content of an activity or dialog, each onClick-annotated
// view flows to the View parameter of the owner's handler method, and the
// owner is recorded as the view's listener.
func (a *analysis) bindOnClick(owner graph.Value, inf *inflation) bool {
	k := onClickKey{owner, inf}
	if a.boundOnClick[k] {
		return false
	}
	a.boundOnClick[k] = true

	var ownerClass *ir.Class
	switch o := owner.(type) {
	case *graph.ActivityNode:
		ownerClass = o.Class
	case *graph.AllocNode:
		ownerClass = o.Class
	default:
		return false
	}
	changed := false
	// The binding reads the handler's declaring file and the layout's
	// onClick annotations; the owner/root association comes in as a premise.
	lu := a.layoutUnit(inf.root.LayoutName)
	for _, n := range inf.all {
		if n.OnClick == "" {
			continue
		}
		m := ownerClass.Dispatch(n.OnClick + "(R)")
		if m == nil || m.Body == nil || len(m.Params) != 1 {
			continue
		}
		hu := lu.or(a.unitOf(m))
		if a.seedChecked(a.g.VarNode(m.Params[0]), n) {
			changed = true
			if a.tracking {
				a.record(flowFact(a.g.VarNode(m.Params[0]), n), "OnClick", hu,
					rootFact(owner, inf.root))
			}
		}
		// The handler runs on the owner: the callback is owner.m(view).
		if a.seedChecked(a.g.VarNode(m.This), owner) {
			changed = true
			if a.tracking {
				a.record(flowFact(a.g.VarNode(m.This), owner), "OnClick", hu,
					rootFact(owner, inf.root))
			}
		}
		if a.g.AddListener(n, owner) {
			changed = true
			if a.tracking {
				a.record(listenerFact(n, owner), "OnClick", hu, rootFact(owner, inf.root))
			}
		}
	}
	return changed
}
