package core

import (
	"gator/internal/graph"
	"gator/internal/slab"
)

// ptsTable is the points-to store. at holds, per graph-node id, 1 + the
// position of the node's set in sets (0: the node never received a
// value), and sets holds the sets, lists of value node ids, by value in
// the order their nodes first received one (in node id order after a
// compaction). Graph ids are dense
// creation-order integers, so a lookup is two array reads with no hashing,
// and the table holds no pointer beyond its sets' arrays. About half of a
// graph's nodes never hold a value, and they pay 4 bytes each, not a set
// header. Both arrays double when they grow: operation processing
// materializes inflation and menu-item nodes mid-solve, and those can
// appear as lookup subjects even though only build-created nodes ever hold
// sets.
type ptsTable struct {
	at   []int32
	sets []graph.IDList
}

// of returns node id's set, or nil when id never received a value. The
// pointer is valid until a node receives its first value.
func (t *ptsTable) of(id int) *graph.IDList {
	if id < len(t.at) {
		if at := t.at[id]; at != 0 {
			return &t.sets[at-1]
		}
	}
	return nil
}

// ids returns node id's values in insertion order, nil when it has none.
func (t *ptsTable) ids(id int) []int32 {
	if s := t.of(id); s != nil {
		return s.IDs()
	}
	return nil
}

// ensure returns node id's set, giving the node one when it has none. The
// pointer is valid until a node receives its first value.
func (t *ptsTable) ensure(id int) *graph.IDList {
	if s := t.of(id); s != nil {
		return s
	}
	t.at = slab.GrowTo(t.at, id+1)
	t.sets = append(slab.Grow(t.sets, len(t.sets)+1, 64), graph.IDList{})
	t.at[id] = int32(len(t.sets))
	return &t.sets[len(t.sets)-1]
}

// drop discards node id's values (incremental retraction of stale nodes);
// the node keeps its empty set.
func (t *ptsTable) drop(id int) {
	if s := t.of(id); s != nil {
		*s = graph.IDList{}
	}
}

// renumber moves each live node's set to its new id after a graph
// compaction (graph.Compact's remap; -1 for a retired node, whose set is
// gone already) and rewrites the sets' ids to their values' new ids.
// Retraction has already removed every retired value; one left anyway
// leaves its set. Empty sets and the sets of retired nodes leave the
// table, and the rest are laid out in node id order. remap never raises an
// id, so the slots move down in place.
func (t *ptsTable) renumber(remap []int32, numNodes int) {
	sets := make([]graph.IDList, 0, len(t.sets))
	for old, at := range t.at {
		if at == 0 {
			continue
		}
		t.at[old] = 0
		s := t.sets[at-1]
		if to := remap[old]; to >= 0 && s.Len() > 0 {
			s.Renumber(remap)
			sets = append(sets, s)
			t.at[to] = int32(len(sets))
		}
	}
	t.sets = sets
	t.at = t.at[:min(len(t.at), numNodes)]
}

// size counts nodes with a non-empty set.
func (t *ptsTable) size() int {
	n := 0
	for i := range t.sets {
		if t.sets[i].Len() > 0 {
			n++
		}
	}
	return n
}
