package core

import "gator/internal/graph"

// ptsTable is the points-to store: one slot per graph-node id, indexed
// directly by id instead of hashing node pointers. Graph ids are dense
// creation-order integers, so the table is an array the solver's hot loops
// walk with no map overhead; slots for nodes that never receive a value
// stay nil. The table grows on demand — operation processing materializes
// inflation and menu-item nodes mid-solve, and those can appear as lookup
// subjects even though only build-created nodes ever hold sets.
type ptsTable struct {
	sets []*ValueSet
}

// of returns n's set, or nil when n has no values (or is nil).
func (t *ptsTable) of(n graph.Node) *ValueSet {
	if n == nil {
		return nil
	}
	id := n.ID()
	if id >= len(t.sets) {
		return nil
	}
	return t.sets[id]
}

// ensure returns n's set, creating it when absent.
func (t *ptsTable) ensure(n graph.Node) *ValueSet {
	id := n.ID()
	if id >= len(t.sets) {
		t.grow(id + 1)
	}
	s := t.sets[id]
	if s == nil {
		s = NewValueSet()
		t.sets[id] = s
	}
	return s
}

// grow sizes the table for at least n node ids, doubling to amortize.
func (t *ptsTable) grow(n int) {
	if n <= len(t.sets) {
		return
	}
	if c := 2 * len(t.sets); n < c {
		n = c
	}
	grown := make([]*ValueSet, n)
	copy(grown, t.sets)
	t.sets = grown
}

// drop discards n's set entirely (incremental retraction of stale nodes).
func (t *ptsTable) drop(n graph.Node) {
	if id := n.ID(); id < len(t.sets) {
		t.sets[id] = nil
	}
}

// renumber moves each live node's set to its new id after a graph
// compaction (graph.Compact's remap; -1 for a retired node, whose set is
// gone already) and re-keys the sets' indices by their values' new ids.
func (t *ptsTable) renumber(remap []int32, numNodes int) {
	sets := make([]*ValueSet, numNodes)
	for old, s := range t.sets {
		if s != nil && remap[old] >= 0 {
			s.reindex()
			sets[remap[old]] = s
		}
	}
	t.sets = sets
}

// visit calls f for every node with a non-empty set, in node-id order.
// nodes is the graph's node array, used to recover the node for an id.
func (t *ptsTable) visit(nodes []graph.Node, f func(n graph.Node, s *ValueSet)) {
	for id, s := range t.sets {
		if s != nil && s.Len() > 0 && id < len(nodes) {
			f(nodes[id], s)
		}
	}
}

// size counts nodes with a non-empty set.
func (t *ptsTable) size() int {
	n := 0
	for _, s := range t.sets {
		if s != nil && s.Len() > 0 {
			n++
		}
	}
	return n
}
