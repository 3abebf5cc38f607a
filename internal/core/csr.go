package core

// The packed solver hot path. The reference engine (solve.go) chases two
// levels of maps per propagated value: the graph's flow-successor map, then
// a (src, dst)-keyed filter map per edge. This file snapshots the flow
// graph into CSR (compressed sparse row) arrays once per solve, so the
// propagation inner loop is three contiguous array reads per edge, and
// schedules the operation phase through a delta worklist so each round
// revisits only operations whose inputs actually changed.
//
// Byte-identity with the reference schedule is a proved property, not an
// aspiration:
//
//   - CSR propagation visits edges in exactly the reference order: nodes
//     are packed in id order and each node's successor run preserves the
//     graph's insertion-ordered successor slice. Same edge order + same
//     worklist discipline = same seedChecked call sequence, hence the same
//     points-to insertion order, provenance links, and dependency masks.
//
//   - The delta worklist skips an operation only when re-applying it is
//     provably a no-op: every rule is a monotone function of the points-to
//     sets of its watched nodes (receiver and arguments) and of the
//     relationship state, which is versioned by the graph generation
//     counter. An operation is re-applied whenever a watched set grew
//     (watchers fire in seedChecked) or any relationship changed since its
//     last application (generation stamp mismatch); otherwise the reference
//     engine would have applied it and changed nothing. SetAdapter
//     additionally reads the points-to sets of getView return variables, so
//     it is never skipped. Skipping no-ops preserves the derivation order,
//     the per-round changed flags, and therefore Result.Iterations.
//
// The snapshot cannot go stale mid-solve: flow edges are only added during
// graph construction (build or incremental rebuild), never by the rules.

import (
	"gator/internal/graph"
	"gator/internal/ir"
	"gator/internal/platform"
)

// flowCSR is the per-solve snapshot of the flow graph in compressed sparse
// row form. Edge e of node src lives at index row[src] <= e < row[src+1];
// dst, dispatch, cast, and units are parallel edge arrays.
type flowCSR struct {
	// numNodes is the node count at snapshot time. Nodes materialized
	// mid-solve (inflation trees, menu items) get larger ids and have no
	// flow edges; propagation skips them by bounds check.
	numNodes int
	// nodes is the graph's id-indexed node array, shared not copied.
	nodes []graph.Node
	row   []int32
	dst   []int32
	// dispatch indexes dispReqs for receiver-to-this edges, -1 otherwise.
	dispatch []int32
	dispReqs []dispatchReq
	// cast holds the cast target per edge; nil slice unless FilterCasts.
	cast []*ir.Class
	// units holds per-edge rule-site unit masks; nil slice unless tracking.
	units []unitBits
}

// buildCSR packs the current flow graph. Called at solve start, after
// build or incremental retract/rebuild has settled the edge set.
func (a *analysis) buildCSR() *flowCSR {
	nodes := a.g.Nodes()
	n := len(nodes)
	c := &flowCSR{
		numNodes: n,
		nodes:    nodes,
		row:      make([]int32, n+1),
		dst:      make([]int32, 0, a.g.NumFlowEdges()),
		dispatch: make([]int32, 0, a.g.NumFlowEdges()),
	}
	if a.opts.FilterCasts {
		c.cast = make([]*ir.Class, 0, a.g.NumFlowEdges())
	}
	if a.tracking {
		c.units = make([]unitBits, 0, a.g.NumFlowEdges())
	}
	for id := 0; id < n; id++ {
		c.row[id] = int32(len(c.dst))
		for _, succ := range a.g.FlowSucc(nodes[id]) {
			ek := [2]int{id, succ.ID()}
			di := int32(-1)
			if req, ok := a.dispatchFilter[ek]; ok {
				di = int32(len(c.dispReqs))
				c.dispReqs = append(c.dispReqs, req)
			}
			c.dst = append(c.dst, int32(succ.ID()))
			c.dispatch = append(c.dispatch, di)
			if c.cast != nil {
				c.cast = append(c.cast, a.castFilter[ek])
			}
			if c.units != nil {
				c.units = append(c.units, a.edgeUnits[ek])
			}
		}
	}
	c.row[n] = int32(len(c.dst))
	return c
}

// propagateCSR drains the worklist over the packed edge arrays. The edge
// visit order — and therefore every derived fact and its provenance — is
// identical to propagateReference. Once the consumed prefix is at least
// half the worklist, the pending tail moves to the front, so the slice
// stays near the size of the live frontier instead of growing to a whole
// round's pushes; the queue order is unchanged.
func (a *analysis) propagateCSR() {
	c := a.csr
	for head := 0; head < len(a.worklist); head++ {
		if 2*head >= len(a.worklist) {
			a.worklist = a.worklist[:copy(a.worklist, a.worklist[head:])]
			head = 0
		}
		it := a.worklist[head]
		src := it.node.ID()
		if src >= c.numNodes {
			continue // materialized mid-solve; no flow edges
		}
		for e := c.row[src]; e < c.row[src+1]; e++ {
			if di := c.dispatch[e]; di >= 0 && !dispatchAdmits(it.val, c.dispReqs[di]) {
				continue
			}
			if c.cast != nil {
				if cls := c.cast[e]; cls != nil && !castAdmits(it.val, cls) {
					continue
				}
			}
			succ := c.nodes[c.dst[e]]
			if a.seedChecked(succ, it.val) && a.tracking {
				a.record(flowFact(succ, it.val), "Flow", c.units[e],
					flowFact(it.node, it.val))
			}
		}
	}
	a.worklist = a.worklist[:0]
}

// initDelta prepares the delta operation worklist: per-node watcher lists
// (which operations read a node as receiver or argument) and per-op dirty
// state. All operations start dirty — including after an incremental
// rebuild, where retained facts may need re-matching against rebuilt ops.
func (a *analysis) initDelta() {
	ops := a.g.Ops()
	a.opDirty = make([]bool, len(ops))
	a.opAlways = make([]bool, len(ops))
	a.opLastGen = make([]int, len(ops))
	a.watchers = make([][]int32, a.csr.numNodes)
	for i, op := range ops {
		a.opDirty[i] = true
		a.opLastGen[i] = -1
		// SetAdapter reads getView return-variable sets the watcher lists
		// cannot anticipate (the adapter set grows during solving), so it
		// is applied every round like the reference engine does.
		a.opAlways[i] = op.Kind == platform.OpSetAdapter
		watch := func(n graph.Node) {
			if n == nil {
				return
			}
			if id := n.ID(); id < len(a.watchers) {
				a.watchers[id] = append(a.watchers[id], int32(i))
			}
		}
		watch(op.Recv)
		for _, arg := range op.Args {
			watch(arg)
		}
	}
}

// markWatchers flags every operation watching node id for re-application.
// Called by seedChecked whenever a points-to set grows; a no-op when delta
// scheduling is inactive (reference engine, or during build).
func (a *analysis) markWatchers(id int) {
	if a.watchers == nil || id >= len(a.watchers) {
		return
	}
	for _, oi := range a.watchers[id] {
		a.opDirty[oi] = true
	}
}

// opTake reports whether delta scheduling requires applying op i this
// round: a watched points-to set grew, a relationship changed since the
// op's last application, or the op reads state watchers cannot cover.
// Taking an op stamps it clean against the current generation; its own
// effects (new values, new relations) re-dirty it for the next round
// exactly when the reference engine could derive more from them.
func (a *analysis) opTake(i int) bool {
	gen := a.g.Gen()
	if !a.opDirty[i] && !a.opAlways[i] && a.opLastGen[i] == gen {
		return false
	}
	a.opDirty[i] = false
	a.opLastGen[i] = gen
	return true
}
