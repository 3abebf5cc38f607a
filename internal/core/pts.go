package core

// ptsTable is the points-to store: one set per graph-node id, held by
// value and indexed directly by id instead of hashing node pointers. Graph
// ids are dense creation-order integers, so the table is an array the
// solver's hot loops walk with no map overhead, and it holds no pointer
// beyond its sets' arrays. Slots for nodes that never receive a value stay
// empty. The table grows on demand, doubling: operation processing
// materializes inflation and menu-item nodes mid-solve, and those can
// appear as lookup subjects even though only build-created nodes ever hold
// sets.
type ptsTable struct {
	sets []ValueSet
}

// of returns node id's set, or nil when id has no slot. The pointer is
// valid until the table next grows.
func (t *ptsTable) of(id int) *ValueSet {
	if id >= len(t.sets) {
		return nil
	}
	return &t.sets[id]
}

// ids returns node id's values in insertion order, nil when it has none.
func (t *ptsTable) ids(id int) []int32 {
	if id >= len(t.sets) {
		return nil
	}
	return t.sets[id].ids
}

// ensure returns node id's set, growing the table to hold it. The pointer
// is valid until the table next grows.
func (t *ptsTable) ensure(id int) *ValueSet {
	t.sets = growTo(t.sets, id+1)
	return &t.sets[id]
}

// drop discards node id's set entirely (incremental retraction of stale
// nodes).
func (t *ptsTable) drop(id int) {
	if id < len(t.sets) {
		t.sets[id] = ValueSet{}
	}
}

// renumber moves each live node's set to its new id after a graph
// compaction (graph.Compact's remap; -1 for a retired node, whose set is
// gone already) and rewrites the sets' ids to their values' new ids. remap
// never raises an id, so the sets move down in place.
func (t *ptsTable) renumber(remap []int32, numNodes int) {
	for old := range t.sets {
		s := t.sets[old]
		t.sets[old] = ValueSet{}
		if to := remap[old]; to >= 0 && len(s.ids) > 0 {
			s.renumber(remap)
			t.sets[to] = s
		}
	}
	if len(t.sets) > numNodes {
		t.sets = t.sets[:numNodes]
	}
}

// size counts nodes with a non-empty set.
func (t *ptsTable) size() int {
	n := 0
	for i := range t.sets {
		if len(t.sets[i].ids) > 0 {
			n++
		}
	}
	return n
}

// growTo returns s extended with zero values to length n, doubling its
// capacity when it must reallocate.
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n > cap(s) {
		grown := make([]T, len(s), max(n, 2*cap(s), 64))
		copy(grown, s)
		s = grown
	}
	old := len(s)
	s = s[:n]
	clear(s[old:])
	return s
}
