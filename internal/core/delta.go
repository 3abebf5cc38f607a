package core

// The delta operation worklist. The apply-every-operation schedule
// (Options.ReferenceSolver) re-applies every operation rule in every round;
// the delta schedule re-applies only operations whose inputs changed since
// their last application.
//
// Byte-identity with apply-every-operation is a proved property, not an
// aspiration. Both schedules drain the worklist through the same propagate
// loop, so flow propagation visits the same edges in the same order. The
// delta worklist skips an operation only when re-applying it is provably a
// no-op: every rule is a monotone function of the points-to sets of its
// watched nodes (receiver and arguments) and of the relationship state,
// which is versioned by the graph generation counter. An operation is
// re-applied whenever a watched set grew (watchers fire in seedChecked) or
// any relationship changed since its last application (generation stamp
// mismatch); otherwise apply-every-operation would have applied it and
// changed nothing. SetAdapter additionally reads the points-to sets of
// getView return variables, so it is never skipped. Skipping no-ops
// preserves the derivation order, the per-round changed flags, and
// therefore Result.Iterations.

import (
	"gator/internal/graph"
	"gator/internal/platform"
)

// initDelta prepares the delta operation worklist: the watcher index
// (which operations read a node as receiver or argument) and per-op dirty
// state. All operations start dirty — including after an incremental
// rebuild, where retained facts may need re-matching against rebuilt ops.
//
// The watcher index is flat: watchOps lists op indices grouped by watched
// node, and node id's group is watchOps[watchStart[id]:watchStart[id+1]].
// Two passes over the operations fill it, one counting and one placing, so
// a solve makes two allocations for it whatever the node count.
func (a *analysis) initDelta() {
	ops := a.g.Ops()
	a.opDirty = make([]bool, len(ops))
	a.opAlways = make([]bool, len(ops))
	a.opLastGen = make([]int, len(ops))
	numNodes := len(a.g.Nodes())
	start := make([]int32, numNodes+1)
	for i, op := range ops {
		a.opDirty[i] = true
		a.opLastGen[i] = -1
		// SetAdapter reads getView return-variable sets the watcher lists
		// cannot anticipate (the adapter set grows during solving), so it
		// is applied every round, as apply-every-operation does.
		a.opAlways[i] = op.Kind == platform.OpSetAdapter
		forWatched(op, func(id int) { start[id+1]++ })
	}
	for id := 1; id <= numNodes; id++ {
		start[id] += start[id-1]
	}
	// Placing advances each group's start to its end, which is the next
	// group's start; shifting by one restores the starts.
	watchOps := make([]int32, start[numNodes])
	for i, op := range ops {
		forWatched(op, func(id int) {
			watchOps[start[id]] = int32(i)
			start[id]++
		})
	}
	copy(start[1:], start[:numNodes])
	start[0] = 0
	a.watchStart, a.watchOps = start, watchOps
}

// forWatched calls f with the id of op's receiver and of each argument.
func forWatched(op *graph.OpNode, f func(id int)) {
	if op.Recv != nil {
		f(op.Recv.ID())
	}
	for _, arg := range op.Args {
		if arg != nil {
			f(arg.ID())
		}
	}
}

// markWatchers flags every operation watching node id for re-application.
// Called by seedChecked whenever a points-to set grows; a no-op when delta
// scheduling is inactive (apply-every-operation, or during build). Nodes
// materialized mid-solve have ids past the watcher index and no watchers.
func (a *analysis) markWatchers(id int) {
	if id+1 >= len(a.watchStart) {
		return
	}
	for _, oi := range a.watchOps[a.watchStart[id]:a.watchStart[id+1]] {
		a.opDirty[oi] = true
	}
}

// opTake reports whether delta scheduling requires applying op i this
// round: a watched points-to set grew, a relationship changed since the
// op's last application, or the op reads state watchers cannot cover.
// Taking an op stamps it clean against the current generation; its own
// effects (new values, new relations) re-dirty it for the next round
// exactly when apply-every-operation could derive more from them.
func (a *analysis) opTake(i int) bool {
	gen := a.g.Gen()
	if !a.opDirty[i] && !a.opAlways[i] && a.opLastGen[i] == gen {
		return false
	}
	a.opDirty[i] = false
	a.opLastGen[i] = gen
	return true
}
