package core

// Context projection: rendering the solution with cloning contexts erased.
// Context-sensitive runs give one allocation or inflation site several
// graph nodes (one per context). Node names (graph.Node's String) name a
// value by its source identity, class plus source site, so clones of one
// site share a name, and "mode A refines mode B" becomes plain set
// inclusion over rendered fact lines. The precision-monotonicity harness
// (ctx_test.go) and the BENCH_7 strictness probe are built on this
// rendering. SourceOps and CanonCount project operations the same way, so
// Table 2 and the oracle average over the paper's operation set, one entry
// per source call.

import (
	"sort"

	"gator/internal/graph"
	"gator/internal/ir"
)

// SourceOp is one source operation, a call site, with the solutions of its
// op nodes unioned. Under Ctx1CFA a call inside a cloned callee has one op
// node per context; with contexts off every call has exactly one.
type SourceOp struct {
	Ops                      []*graph.OpNode
	Receivers, Arg0, Results graph.Values
}

// SourceOps projects the operation nodes onto source operations: the op
// nodes of one call (op.Site) form one SourceOp, in the order of the call's
// first op node. An op node without a call site stands alone.
func (r *Result) SourceOps() []SourceOp {
	var out []SourceOp
	index := map[*ir.Invoke]int{}
	for _, op := range r.Graph.Ops() {
		if i, ok := index[op.Site]; ok && op.Site != nil {
			out[i].Ops = append(out[i].Ops, op)
			continue
		}
		index[op.Site] = len(out)
		out = append(out, SourceOp{Ops: []*graph.OpNode{op}})
	}
	arg0 := func(op *graph.OpNode) graph.Values { return r.OpArg(op, 0) }
	for i := range out {
		so := &out[i]
		so.Receivers = r.unionOver(so.Ops, r.OpReceivers)
		so.Arg0 = r.unionOver(so.Ops, arg0)
		so.Results = r.unionOver(so.Ops, r.OpResults)
	}
	return out
}

// unionOver unions one solution set over op nodes in first-encounter
// order. A single node's set is returned as is.
func (r *Result) unionOver(ops []*graph.OpNode, get func(*graph.OpNode) graph.Values) graph.Values {
	if len(ops) == 1 {
		return get(ops[0])
	}
	var out []int32
	seen := map[int]bool{}
	for _, op := range ops {
		vals := get(op)
		for i := range vals.Len() {
			if id := vals.ID(i); !seen[id] {
				seen[id] = true
				out = append(out, int32(id))
			}
		}
	}
	return r.Graph.Values(out)
}

// CanonCount counts the distinct source identities (node names) among the
// values keep admits, so context clones of one allocation or inflation
// site count once. A nil keep admits every value.
func CanonCount(vals graph.Values, keep func(graph.Value) bool) int {
	seen := map[string]bool{}
	for k := range vals.Len() {
		v := vals.At(k)
		if keep == nil || keep(v) {
			seen[v.String()] = true
		}
	}
	return len(seen)
}

// ProjectedSolution renders the full solution as sorted, deduplicated
// per-fact lines with contexts projected away: one "pts" line per
// (variable-or-field, value name) pair — context variants of one
// variable union into one entity — plus one line per derived relation
// pair. Because every line is a single fact, refinement between two modes
// is set inclusion over the returned slices, and the slice length is the
// solution size the precision benchmarks report.
func (r *Result) ProjectedSolution() []string {
	set := map[string]bool{}
	for _, n := range r.Graph.Nodes() {
		vals := r.PointsTo(n)
		if vals.Len() == 0 {
			continue
		}
		var ent string
		switch n := n.(type) {
		case *graph.VarNode:
			ent = "var " + n.Var.String()
		case *graph.FieldNode:
			ent = "field " + n.Field.Sig()
		default:
			continue
		}
		for k := range vals.Len() {
			set["pts "+ent+" = "+vals.At(k).String()] = true
		}
	}
	for _, rel := range []struct {
		rel  graph.Rel
		kind string
	}{
		{graph.RelChild, "child"}, {graph.RelListener, "listener"}, {graph.RelRoot, "root"},
		{graph.RelMenuItem, "menuitem"}, {graph.RelViewID, "viewid"}, {graph.RelIntent, "intent"},
		{graph.RelLayoutOf, "layoutof"},
	} {
		r.Graph.Pairs(rel.rel, func(a, b graph.Value) {
			set[rel.kind+" "+a.String()+" -> "+b.String()] = true
		})
	}
	out := make([]string, 0, len(set))
	for line := range set {
		out = append(out, line)
	}
	sort.Strings(out)
	return out
}
