package checks

// Program-point flowsTo: a flow-sensitive refinement of the solved
// reference analysis. The fixpoint answers "which views may v EVER hold";
// FlowsToAt answers "which views may v hold HERE", by intersecting the
// solution with what the reaching definitions of v at one statement can
// produce. This matters exactly where the (even context-sensitive)
// solution still merges: a variable reassigned along the method drags
// every assignment's values to every use flow-insensitively, while each
// program point only sees the assignments that reach it.

import (
	"gator/internal/dataflow"
	"gator/internal/graph"
	"gator/internal/ir"
	"gator/internal/platform"
)

// Reaching returns the memoized reaching-definitions solution of a method.
func (c *Context) Reaching(m *ir.Method) *dataflow.ReachingDefs {
	if c.reach == nil {
		c.reach = map[*ir.Method]*dataflow.ReachingDefs{}
	}
	if rd, ok := c.reach[m]; ok {
		return rd
	}
	rd := dataflow.NewReachingDefs(c.CFG(m))
	traceSolve(c, m, rd.Result())
	c.reach[m] = rd
	return rd
}

// valueIndex builds the statement → graph-value maps FlowsToAt resolves
// definitions through, once.
func (c *Context) valueIndex() {
	if c.valIndexed {
		return
	}
	c.valIndexed = true
	c.allocsAt = map[*ir.New][]int32{}
	c.fieldNodes = map[*ir.Field]*graph.FieldNode{}
	c.viewIDByRes = map[int]graph.Value{}
	c.layoutIDByRes = map[int]graph.Value{}
	c.classNodes = map[*ir.Class]graph.Value{}
	for _, n := range c.Res.Graph.Nodes() {
		switch n := n.(type) {
		case *graph.AllocNode:
			if n.Site != nil {
				c.allocsAt[n.Site] = append(c.allocsAt[n.Site], int32(n.ID()))
			}
		case *graph.FieldNode:
			c.fieldNodes[n.Field] = n
		case *graph.ViewIDNode:
			c.viewIDByRes[n.ResID] = n
		case *graph.LayoutIDNode:
			c.layoutIDByRes[n.ResID] = n
		case *graph.ClassNode:
			c.classNodes[n.Class] = n
		}
	}
}

// defModeled reports whether the constraint graph models definition d
// one-to-one: false for an unmodeled call or an allocation of an untracked
// class. It is the ok half of defValues and computes no values.
func (c *Context) defModeled(d ir.Stmt) bool {
	c.valueIndex()
	switch d := d.(type) {
	case *ir.ConstNull, *ir.ConstInt, *ir.ConstRes, *ir.ConstClass, *ir.Copy:
		return true
	case *ir.New:
		return len(c.allocsAt[d]) > 0
	case *ir.Load:
		return c.fieldNodes[d.Field] != nil // false: untracked field
	case *ir.Invoke:
		return len(c.OpsAt(d)) > 0 // false: unmodeled call result
	}
	return false
}

// defValues returns the values one definition can write into its variable,
// or ok=false when the constraint graph does not model the definition
// one-to-one (see defModeled): callers must then fall back to the
// flow-insensitive solution to stay sound.
func (c *Context) defValues(d ir.Stmt) (vals graph.Values, ok bool) {
	if !c.defModeled(d) {
		return graph.Values{}, false
	}
	g := c.Res.Graph
	switch d := d.(type) {
	case *ir.New:
		return g.Values(c.allocsAt[d]), true
	case *ir.ConstRes:
		byRes := c.viewIDByRes
		if d.Layout {
			byRes = c.layoutIDByRes
		}
		if n, found := byRes[d.ID]; found {
			return g.Values([]int32{int32(n.ID())}), true
		}
		return graph.Values{}, true // id constant never interned: no op consumed it
	case *ir.ConstClass:
		if n, found := c.classNodes[d.Class]; found {
			return g.Values([]int32{int32(n.ID())}), true
		}
		return graph.Values{}, true
	case *ir.Copy:
		return c.Res.VarPointsTo(d.Src), true
	case *ir.Load:
		return c.Res.PointsTo(c.fieldNodes[d.Field]), true
	case *ir.Invoke:
		var out []int32
		seen := map[int]bool{}
		for _, op := range c.OpsAt(d) {
			vals := c.opProduces(op)
			for i := range vals.Len() {
				if id := vals.ID(i); !seen[id] {
					seen[id] = true
					out = append(out, int32(id))
				}
			}
		}
		return g.Values(out), true
	}
	return graph.Values{}, true // ConstNull, ConstInt: no object flows
}

// opProduces over-approximates the values one operation writes to its
// result. For find-view operations it replays the solver's rule against the
// solved receiver and id-argument sets — the rule is site-local, unlike
// pts(op.Out), which merges every assignment of the destination variable.
// Every replayed candidate is intersected with pts(op.Out), so the answer
// can only shrink the solution, never leave it. Other operation kinds fall
// back to pts(op.Out).
func (c *Context) opProduces(op *graph.OpNode) graph.Values {
	if op.Out == nil {
		return graph.Values{}
	}
	merged := c.Res.PointsTo(op.Out)
	switch op.Kind {
	case platform.OpFindView1, platform.OpFindView2, platform.OpFindView3:
	default:
		return merged
	}
	inMerged := map[graph.Value]bool{}
	for k := range merged.Len() {
		v := merged.At(k)
		inMerged[v] = true
	}
	// FindView1/2 take the queried id as the first argument; FindView3
	// variants (getListView etc.) have no id filter.
	var ids map[int]bool
	if op.Kind != platform.OpFindView3 && len(op.Args) > 0 {
		ids = map[int]bool{}
		vs := c.Res.OpArg(op, 0)
		for k := range vs.Len() {
			v := vs.At(k)
			if id, ok := v.(*graph.ViewIDNode); ok {
				ids[id.ID()] = true
			}
		}
	}
	g := c.Res.Graph
	var out []int32
	seen := map[graph.Value]bool{}
	consider := func(w graph.Value) {
		if seen[w] || !inMerged[w] {
			return
		}
		if ids != nil {
			match := false
			vids := g.ViewIDValues(w)
			for k := range vids.Len() {
				if ids[vids.ID(k)] {
					match = true
				}
			}
			if !match {
				return
			}
		}
		seen[w] = true
		out = append(out, int32(w.ID()))
	}
	// The search space unions the receiver's own hierarchy (view-rooted
	// lookups) with the hierarchies rooted at the receiver's content views
	// (activity/dialog lookups) — a superset of what either solver rule
	// searches for this op.
	rs := c.Res.OpReceivers(op)
	for k := range rs.Len() {
		r := rs.At(k)
		ws := c.walk.Descendants(g, r)
		for j := range ws.Len() {
			consider(ws.At(j))
		}
		roots := g.Roots(r)
		for i := range roots.Len() {
			ws := c.walk.Descendants(g, roots.At(i))
			for j := range ws.Len() {
				consider(ws.At(j))
			}
		}
	}
	return g.Values(out)
}

// pointRecvIDs narrows an operation's receiver solution to the values that
// can actually reach the op's call site, per FlowsToAt: a view variable
// reassigned between two registrations no longer makes the two sites look
// like they target one view. Falls back to the unrefined receiver set when
// the site has no resolvable program point.
func (c *Context) pointRecvIDs(m *ir.Method, op *graph.OpNode) []int {
	ids := c.receiverIDs(op)
	if op.Site == nil || op.Site.Recv == nil || len(ids) == 0 {
		return ids
	}
	at := map[int]bool{}
	vals := c.FlowsToAt(m, op.Site, op.Site.Recv)
	for i := range vals.Len() {
		at[vals.ID(i)] = true
	}
	out := ids[:0:0]
	for _, id := range ids {
		if at[id] {
			out = append(out, id)
		}
	}
	return out
}

// FlowsToAt answers flowsTo at one program point: the values v may hold
// immediately before statement at in method m. The answer is always a
// subset of the flow-insensitive VarPointsTo(v) (every contribution is an
// edge source of v in the constraint graph), and falls back to exactly
// VarPointsTo(v) — never less — when a reaching definition is one the
// graph does not model one-to-one, or when v reaches the point still
// holding its entry (parameter) value.
func (c *Context) FlowsToAt(m *ir.Method, at ir.Stmt, v *ir.Var) graph.Values {
	insens := c.Res.VarPointsTo(v)
	if v == nil || v.Method != m || insens.Len() == 0 {
		return insens
	}
	rd := c.Reaching(m)
	fact, found := rd.Result().At(at)
	// The entry check is what keeps partial redefinition sound: a
	// parameter redefined on only some paths reaches a merge both through
	// its explicit definitions and still holding the caller-supplied
	// value, which no definition accounts for.
	if !found || rd.EntryReaches(fact, v) {
		return insens
	}
	defs := rd.Defs(fact, v)
	if len(defs) == 0 {
		return insens
	}
	var out []int32
	seen := map[int]bool{}
	for _, d := range defs {
		vals, ok := c.defValues(d)
		if !ok {
			return insens
		}
		for i := range vals.Len() {
			if id := vals.ID(i); !seen[id] {
				seen[id] = true
				out = append(out, int32(id))
			}
		}
	}
	return c.Res.Graph.Values(out)
}
