package core

import "gator/internal/graph"

// smallSet is the size up to which a ValueSet answers membership by
// scanning its ids instead of keeping an index. Most points-to sets stay
// this small: all but 45 of the 9,192 non-empty sets of the 20 corpus
// apps, and all but 1,701 of the 38,871 of the 9 chain apps, whose large
// sets get an index.
const smallSet = 8

// ValueSet is an insertion-ordered set of abstract values, held as their
// graph node ids. Insertion order is deterministic given a deterministic
// construction order, which keeps the whole analysis reproducible run to
// run. The zero value is the empty set, and a set owns no pointers: the
// points-to table holds its sets by value, one for each node that ever
// received a value, and the garbage collector never scans their arrays.
type ValueSet struct {
	ids []int32
	// index holds the ids exactly while the set holds more than smallSet
	// of them.
	index graph.IDSet
}

// NewValueSet returns an empty set.
func NewValueSet() *ValueSet { return &ValueSet{} }

// Contains reports whether the value with node id v is in the set.
func (s *ValueSet) Contains(v int32) bool {
	if s.index != nil {
		return s.index.Has(v)
	}
	for _, x := range s.ids {
		if x == v {
			return true
		}
	}
	return false
}

// Add inserts the value with node id v, reporting whether it was new.
func (s *ValueSet) Add(v int32) bool {
	if s.Contains(v) {
		return false
	}
	s.ids = append(s.ids, v)
	switch n := len(s.ids); {
	case n == smallSet+1:
		s.reindex()
	case n > smallSet+1:
		s.index = s.index.Add(v, n)
	}
	return true
}

// Remove deletes the value with node id v, reporting whether it was
// present. Removal preserves the insertion order of the remaining values,
// keeping iteration deterministic after incremental retraction.
func (s *ValueSet) Remove(v int32) bool {
	if !s.Contains(v) {
		return false
	}
	i := 0
	for s.ids[i] != v {
		i++
	}
	s.ids = append(s.ids[:i], s.ids[i+1:]...)
	switch {
	case len(s.ids) == smallSet:
		s.index = nil
	case s.index != nil:
		s.index.Delete(v)
	}
	return true
}

// reindex rebuilds the index from the ids: it drops the index of a set
// down to smallSet values and refills it otherwise.
func (s *ValueSet) reindex() {
	if len(s.ids) <= smallSet {
		s.index = nil
		return
	}
	clear(s.index)
	for i, x := range s.ids {
		s.index = s.index.Add(x, i+1)
	}
}

// renumber rewrites the ids by remap after a graph compaction
// (graph.Compact's remap), keeping their order. Retraction has already
// removed every retired value; one left anyway leaves the set.
func (s *ValueSet) renumber(remap []int32) {
	kept := s.ids[:0]
	for _, x := range s.ids {
		if y := remap[x]; y >= 0 {
			kept = append(kept, y)
		}
	}
	s.ids = kept
	if s.index != nil {
		s.reindex()
	}
}

// Len returns the number of values.
func (s *ValueSet) Len() int { return len(s.ids) }
