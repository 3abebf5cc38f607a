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
// the derived fact's record. Only a guarded edge resolves the value's node.
// Operation rules never add flow edges, so the successor lists are stable
// for the whole solve. Once the consumed prefix is at least half the
// worklist, the pending tail moves to the front, so the slice stays near
// the size of the live frontier instead of growing to a whole round's
// pushes; the queue order is unchanged.
func (a *analysis) propagate() {
	for head := 0; head < len(a.worklist); head++ {
		if 2*head >= len(a.worklist) {
			a.worklist = a.worklist[:copy(a.worklist, a.worklist[head:])]
			head = 0
		}
		it := a.worklist[head]
		dsts, labels := a.g.FlowSuccID(int(it.node))
		for i, dst := range dsts {
			var units unitBits
			if labels != nil && labels[i] != 0 {
				l := &a.labels.slots[labels[i]]
				if l.callee != nil && !dispatchAdmits(a.g.Nodes()[it.val], l.callee) {
					continue
				}
				if l.cast != nil && !castAdmits(a.g.Nodes()[it.val], l.cast) {
					continue
				}
				units = l.units
			}
			if a.seedID(dst, it.val) && a.tracking {
				a.record(Fact{FactFlow, int(dst), int(it.val)}, "Flow", units, Fact{FactFlow, int(it.node), int(it.val)})
			}
		}
	}
	a.worklist = a.worklist[:0]
}

// dispatchAdmits reports whether a receiver value actually dispatches the
// call to the callee guarding the edge. Values without a dynamic class
// (resource ids) are never receivers.
func dispatchAdmits(v graph.Node, callee *ir.Method) bool {
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
func castAdmits(v graph.Node, cls *ir.Class) bool {
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

// seedID adds the value with node id v to node n's set and, when it is new,
// queues it and marks n's watchers; it reports whether it was new.
func (a *analysis) seedID(n, v int32) bool {
	if a.pts.ensure(int(n)).Add(v) {
		a.worklist = append(a.worklist, propItem{n, v})
		a.markWatchers(int(n))
		return true
	}
	return false
}

// seedChecked is seed that reports whether the value was new.
func (a *analysis) seedChecked(n graph.Node, v graph.Value) bool {
	return a.seedID(int32(n.ID()), int32(v.ID()))
}

// ptsIDs returns the node ids of n's values in insertion order: the set's
// own array, which the rules walk in place. A rule that grows the set while
// walking it sees the values the walk started with, as the slice header
// fixes the length and appends never rewrite a prefix.
func (a *analysis) ptsIDs(n graph.Node) []int32 { return a.pts.ids(n.ID()) }

// node resolves a node id.
func (a *analysis) node(id int32) graph.Node { return a.g.Nodes()[id] }

// viewOf returns the value with node id if it abstracts views.
func (a *analysis) viewOf(id int32) (graph.Value, bool) {
	switch v := a.node(id).(type) {
	case *graph.InflNode:
		return v, true
	case *graph.AllocNode:
		return v, v.IsView
	}
	return nil, false
}

// ownerOf returns the value with node id if it can own a content view: an
// implicitly created activity or an explicitly allocated dialog.
func (a *analysis) ownerOf(id int32) (graph.Value, bool) {
	switch v := a.node(id).(type) {
	case *graph.ActivityNode:
		return v, true
	case *graph.AllocNode:
		return v, v.IsDialog
	}
	return nil, false
}

// getViewKey is the signature of an adapter's getView(int) callback.
var getViewKey = ir.MethodKey("getView", []alite.Type{{Prim: alite.TypeInt}})

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
	for _, aid := range a.ptsIDs(op.Args[0]) {
		var adapter graph.Value
		var cls *ir.Class
		switch ad := a.node(aid).(type) {
		case *graph.AllocNode:
			adapter, cls = ad, ad.Class
		case *graph.ActivityNode:
			adapter, cls = ad, ad.Class
		default:
			continue
		}
		m := cls.Dispatch(getViewKey)
		if m == nil || m.Body == nil {
			continue
		}
		for _, rv := range a.methodReturnVars(m) {
			rvNode := a.g.VarNode(rv)
			for _, iid := range a.ptsIDs(rvNode) {
				item, ok := a.viewOf(iid)
				if !ok {
					continue
				}
				for _, pid := range a.ptsIDs(op.Recv) {
					parent, ok := a.viewOf(pid)
					if !ok {
						continue
					}
					if a.g.Add(graph.RelChild, parent, item) {
						changed = true
						if a.tracking {
							a.record(relFact(graph.RelChild, parent, item), op.Kind.String(), u.or(a.unitOf(m)),
								flowFact(op.Recv, parent), flowFact(op.Args[0], adapter),
								flowFact(rvNode, item))
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
	for _, vid := range a.ptsIDs(op.Recv) {
		menu, ok := a.node(vid).(*graph.MenuNode)
		if !ok {
			continue
		}
		item := a.g.MenuItemNode(op)
		if a.g.Add(graph.RelMenuItem, menu, item) {
			changed = true
			if a.tracking {
				a.record(relFact(graph.RelMenuItem, menu, item), op.Kind.String(), u, flowFact(op.Recv, menu))
			}
		}
		for _, iid := range a.ptsIDs(op.Args[0]) {
			id, ok := a.node(iid).(*graph.ViewIDNode)
			if !ok {
				continue
			}
			if a.g.Add(graph.RelViewID, item, id) {
				changed = true
				if a.tracking {
					a.record(relFact(graph.RelViewID, item, id), op.Kind.String(), u,
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
						u.or(a.unitOf(h)), relFact(graph.RelMenuItem, menu, item))
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
	for _, vid := range a.ptsIDs(op.Recv) {
		menu, ok := a.node(vid).(*graph.MenuNode)
		if !ok {
			continue
		}
		for _, iid := range a.ptsIDs(op.Args[0]) {
			id, ok := a.node(iid).(*graph.ViewIDNode)
			if !ok {
				continue
			}
			items := a.g.Succ(graph.RelMenuItem, menu)
			for k := range items.Len() {
				item := items.At(k)
				if a.g.Has(graph.RelViewID, item, id) && a.seedChecked(op.Out, item) {
					changed = true
					if a.tracking {
						a.record(flowFact(op.Out, item), op.Kind.String(), u,
							flowFact(op.Recv, menu), flowFact(op.Args[0], id),
							relFact(graph.RelMenuItem, menu, item), relFact(graph.RelViewID, item, id))
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
	for _, vid := range a.ptsIDs(op.Recv) {
		view, ok := a.viewOf(vid)
		if !ok {
			continue
		}
		parents := a.g.Parents(view)
		for k := range parents.Len() {
			p := parents.At(k)
			if a.seedChecked(op.Out, p) {
				changed = true
				if a.tracking {
					a.record(flowFact(op.Out, p), op.Kind.String(), u,
						flowFact(op.Recv, view), relFact(graph.RelChild, p, view))
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
	for _, vid := range a.ptsIDs(op.Recv) {
		intent, ok := a.node(vid).(*graph.AllocNode)
		if !ok {
			continue
		}
		for _, cid := range a.ptsIDs(op.Args[0]) {
			cls, ok := a.node(cid).(*graph.ClassNode)
			if !ok {
				continue
			}
			if a.g.Add(graph.RelIntent, intent, cls) {
				changed = true
				if a.tracking {
					a.record(relFact(graph.RelIntent, intent, cls), op.Kind.String(), u,
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
			a.g.Add(graph.RelChild, parent, node)
			if a.tracking {
				a.record(relFact(graph.RelChild, parent, node), op.Kind.String(), ul, flowFact(op.Args[0], lid))
			}
		}
		inf.all = append(inf.all, node)
		if n.ID != "" {
			if resID, ok := a.prog.R.ViewID(n.ID); ok {
				id := a.g.ViewIDNode(resID, n.ID)
				a.g.Add(graph.RelViewID, node, id)
				if a.tracking {
					a.record(relFact(graph.RelViewID, node, id), op.Kind.String(), ul, flowFact(op.Args[0], lid))
				}
			}
		}
		for _, ch := range n.Children {
			build(ch, node)
		}
	}
	build(l.Root, nil)
	a.g.Add(graph.RelLayoutOf, inf.root, lid)
	a.inflations[key] = inf
	a.rootInflation[inf.root] = inf
	return inf, true
}

func (a *analysis) applyInflate1(op *graph.OpNode) bool {
	changed := false
	for _, vid := range a.ptsIDs(op.Args[0]) {
		lid, ok := a.node(vid).(*graph.LayoutIDNode)
		if !ok {
			continue
		}
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
			for _, pid := range a.ptsIDs(op.Args[op.ParentArg]) {
				parent, ok := a.viewOf(pid)
				if !ok {
					continue
				}
				if a.g.Add(graph.RelChild, parent, inf.root) {
					changed = true
					if a.tracking {
						a.record(relFact(graph.RelChild, parent, inf.root), op.Kind.String(), ul,
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
	for _, vid := range a.ptsIDs(op.Args[0]) {
		lid, ok := a.node(vid).(*graph.LayoutIDNode)
		if !ok {
			continue
		}
		inf, c := a.inflate(op, lid)
		if inf == nil {
			continue
		}
		changed = changed || c
		ul := a.unitOf(op.Method).or(a.layoutUnit(lid.Name))
		for _, oid := range a.ptsIDs(op.Recv) {
			owner, ok := a.ownerOf(oid)
			if !ok {
				continue
			}
			if a.g.Add(graph.RelRoot, owner, inf.root) {
				changed = true
				if a.tracking {
					a.record(relFact(graph.RelRoot, owner, inf.root), op.Kind.String(), ul,
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
	for _, oid := range a.ptsIDs(op.Recv) {
		owner, ok := a.ownerOf(oid)
		if !ok {
			continue
		}
		for _, vid := range a.ptsIDs(op.Args[0]) {
			view, ok := a.viewOf(vid)
			if !ok {
				continue
			}
			if a.g.Add(graph.RelRoot, owner, view) {
				changed = true
				if a.tracking {
					a.record(relFact(graph.RelRoot, owner, view), op.Kind.String(), u,
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
	for _, pid := range a.ptsIDs(op.Recv) {
		parent, ok := a.viewOf(pid)
		if !ok {
			continue
		}
		for _, cid := range a.ptsIDs(op.Args[0]) {
			child, ok := a.viewOf(cid)
			if !ok {
				continue
			}
			if a.g.Add(graph.RelChild, parent, child) {
				changed = true
				if a.tracking {
					a.record(relFact(graph.RelChild, parent, child), op.Kind.String(), u,
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
	for _, vid := range a.ptsIDs(op.Recv) {
		view, ok := a.viewOf(vid)
		if !ok {
			continue
		}
		for _, iid := range a.ptsIDs(op.Args[0]) {
			id, ok := a.node(iid).(*graph.ViewIDNode)
			if !ok {
				continue
			}
			if a.g.Add(graph.RelViewID, view, id) {
				changed = true
				if a.tracking {
					a.record(relFact(graph.RelViewID, view, id), op.Kind.String(), u,
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
	for _, vid := range a.ptsIDs(op.Recv) {
		view, ok := a.viewOf(vid)
		if !ok {
			continue
		}
		for _, lid := range a.ptsIDs(op.Args[0]) {
			var lst graph.Value
			switch l := a.node(lid).(type) {
			case *graph.ViewIDNode, *graph.LayoutIDNode:
				continue
			default:
				lst = l.(graph.Value)
			}
			if a.g.Add(graph.RelListener, view, lst) {
				changed = true
				if a.tracking {
					a.record(relFact(graph.RelListener, view, lst), op.Kind.String(), u,
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
	for _, vid := range a.ptsIDs(op.Recv) {
		view, ok := a.viewOf(vid)
		if !ok {
			continue
		}
		for _, iid := range a.ptsIDs(op.Args[0]) {
			id, ok := a.node(iid).(*graph.ViewIDNode)
			if !ok {
				continue
			}
			ws := a.walk.Descendants(a.g, view)
			for k := range ws.Len() {
				w := ws.At(k)
				if a.g.Has(graph.RelViewID, w, id) && a.seedChecked(op.Out, w) {
					changed = true
					if a.tracking {
						prem := []Fact{flowFact(op.Recv, view), flowFact(op.Args[0], id)}
						prem = append(prem, a.childPath(view, w)...)
						prem = append(prem, relFact(graph.RelViewID, w, id))
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
	for _, oid := range a.ptsIDs(op.Recv) {
		owner, ok := a.ownerOf(oid)
		if !ok {
			continue
		}
		for _, iid := range a.ptsIDs(op.Args[0]) {
			id, ok := a.node(iid).(*graph.ViewIDNode)
			if !ok {
				continue
			}
			roots := a.g.Succ(graph.RelRoot, owner)
			for r := range roots.Len() {
				root := roots.At(r)
				ws := a.walk.Descendants(a.g, root)
				for k := range ws.Len() {
					w := ws.At(k)
					if a.g.Has(graph.RelViewID, w, id) && a.seedChecked(op.Out, w) {
						changed = true
						if a.tracking {
							prem := []Fact{flowFact(op.Recv, owner), flowFact(op.Args[0], id),
								relFact(graph.RelRoot, owner, root)}
							prem = append(prem, a.childPath(root, w)...)
							prem = append(prem, relFact(graph.RelViewID, w, id))
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
	for _, vid := range a.ptsIDs(op.Recv) {
		view, ok := a.viewOf(vid)
		if !ok {
			continue
		}
		var candidates graph.Values
		if childOnly {
			candidates = a.g.Succ(graph.RelChild, view)
		} else {
			candidates = a.walk.Descendants(a.g, view)
		}
		for k := range candidates.Len() {
			w := candidates.At(k)
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
					relFact(graph.RelRoot, owner, inf.root))
			}
		}
		// The handler runs on the owner: the callback is owner.m(view).
		if a.seedChecked(a.g.VarNode(m.This), owner) {
			changed = true
			if a.tracking {
				a.record(flowFact(a.g.VarNode(m.This), owner), "OnClick", hu,
					relFact(graph.RelRoot, owner, inf.root))
			}
		}
		if a.g.Add(graph.RelListener, n, owner) {
			changed = true
			if a.tracking {
				a.record(relFact(graph.RelListener, n, owner), "OnClick", hu, relFact(graph.RelRoot, owner, inf.root))
			}
		}
	}
	return changed
}
