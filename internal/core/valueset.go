package core

import "gator/internal/graph"

// ValueSet is an insertion-ordered set of abstract values. Insertion order
// is deterministic given a deterministic construction order, which keeps
// the whole analysis reproducible run to run.
type ValueSet struct {
	order []graph.Value
	index map[int]int32 // value ID -> position in order
}

// NewValueSet returns an empty set.
func NewValueSet() *ValueSet {
	return &ValueSet{index: map[int]int32{}}
}

// Add inserts v, reporting whether it was new.
func (s *ValueSet) Add(v graph.Value) bool {
	if _, ok := s.index[v.ID()]; ok {
		return false
	}
	s.index[v.ID()] = int32(len(s.order))
	s.order = append(s.order, v)
	return true
}

// Remove deletes v, reporting whether it was present. Removal preserves the
// insertion order of the remaining values, keeping iteration deterministic
// after incremental retraction.
func (s *ValueSet) Remove(v graph.Value) bool {
	i, ok := s.index[v.ID()]
	if !ok {
		return false
	}
	delete(s.index, v.ID())
	copy(s.order[i:], s.order[i+1:])
	s.order[len(s.order)-1] = nil
	s.order = s.order[:len(s.order)-1]
	for j := int(i); j < len(s.order); j++ {
		s.index[s.order[j].ID()] = int32(j)
	}
	return true
}

// Contains reports membership.
func (s *ValueSet) Contains(v graph.Value) bool {
	_, ok := s.index[v.ID()]
	return ok
}

// Len returns the number of values.
func (s *ValueSet) Len() int { return len(s.order) }

// Values returns the values in insertion order. The returned slice is the
// set's backing store; callers must not modify it.
func (s *ValueSet) Values() []graph.Value { return s.order }

// Views returns the member values that abstract views.
func (s *ValueSet) Views() []graph.Value {
	var out []graph.Value
	for _, v := range s.order {
		if graph.IsViewValue(v) {
			out = append(out, v)
		}
	}
	return out
}
