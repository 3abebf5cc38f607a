package core

import "gator/internal/graph"

// smallSet is the size up to which a ValueSet answers membership by
// scanning its order slice instead of keeping an index. Most points-to sets
// stay this small: all but 45 of the 9,192 non-empty sets of the 20 corpus
// apps, and all but 1,701 of the 38,871 of the 9 chain apps, whose large
// sets get an index.
const smallSet = 8

// ValueSet is an insertion-ordered set of abstract values. Insertion order
// is deterministic given a deterministic construction order, which keeps
// the whole analysis reproducible run to run.
type ValueSet struct {
	order []graph.Value
	// index maps value ID -> position in order. It exists exactly while
	// the set holds more than smallSet values. Values of one graph are
	// equal exactly when their ids are, so a scan compares values directly.
	index map[int]int32
}

// NewValueSet returns an empty set.
func NewValueSet() *ValueSet { return &ValueSet{} }

// find returns v's position in order, or -1.
func (s *ValueSet) find(v graph.Value) int {
	if s.index != nil {
		if i, ok := s.index[v.ID()]; ok {
			return int(i)
		}
		return -1
	}
	for i, x := range s.order {
		if x == v {
			return i
		}
	}
	return -1
}

// Add inserts v, reporting whether it was new.
func (s *ValueSet) Add(v graph.Value) bool {
	if s.find(v) >= 0 {
		return false
	}
	s.order = append(s.order, v)
	switch {
	case s.index != nil:
		s.index[v.ID()] = int32(len(s.order) - 1)
	case len(s.order) > smallSet:
		s.index = make(map[int]int32, len(s.order))
		for i, x := range s.order {
			s.index[x.ID()] = int32(i)
		}
	}
	return true
}

// Remove deletes v, reporting whether it was present. Removal preserves the
// insertion order of the remaining values, keeping iteration deterministic
// after incremental retraction.
func (s *ValueSet) Remove(v graph.Value) bool {
	i := s.find(v)
	if i < 0 {
		return false
	}
	copy(s.order[i:], s.order[i+1:])
	s.order[len(s.order)-1] = nil
	s.order = s.order[:len(s.order)-1]
	if s.index == nil {
		return true
	}
	if len(s.order) <= smallSet {
		s.index = nil
		return true
	}
	delete(s.index, v.ID())
	for j := i; j < len(s.order); j++ {
		s.index[s.order[j].ID()] = int32(j)
	}
	return true
}

// Contains reports membership.
func (s *ValueSet) Contains(v graph.Value) bool { return s.find(v) >= 0 }

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
