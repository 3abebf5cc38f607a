package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gator/internal/graph"
)

func TestValueSetBasics(t *testing.T) {
	s := NewValueSet()
	if s.Len() != 0 || s.Contains(0) {
		t.Error("empty set misbehaves")
	}
	if !s.Add(0) || !s.Add(1) {
		t.Error("Add of new value = false")
	}
	if s.Add(0) {
		t.Error("Add of duplicate = true")
	}
	if s.Len() != 2 || !s.Contains(0) || s.Contains(2) {
		t.Error("membership wrong")
	}
	if got := s.ids; !slices.Equal(got, []int32{0, 1}) {
		t.Errorf("insertion order not preserved: %v", got)
	}
}

// TestValueSetQuickProperties: for any seeded sequence of Add, Remove and
// renumber over ids from a universe larger than smallSet, the set agrees
// with a slice-plus-map model: (1) Add and Remove report what the history
// says, (2) the ids keep the model's order, Remove included, (3) Len and
// Contains agree for every id, and (4) the index exists exactly while the
// set holds more than smallSet values, at most half full and holding
// exactly the set's ids. Each sequence alternates add-heavy and
// remove-heavy phases, so sets cross smallSet in both directions, and now
// and then renumbers every id by a random order-preserving compaction, as
// graph.Compact does, with some ids retired.
func TestValueSetQuickProperties(t *testing.T) {
	const universe = 3 * smallSet
	crossedDown, renumbered := false, false
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewValueSet()
		var order []int32
		in := map[int32]bool{}
		for i := 0; i < 300; i++ {
			v := int32(rng.Intn(universe))
			wasLarge := s.Len() > smallSet
			switch {
			case rng.Intn(50) == 0:
				// An order-preserving renumbering that retires ids not in
				// the set, as compaction after retraction does.
				remap := make([]int32, universe)
				next := int32(0)
				for id := range remap {
					if !in[int32(id)] && rng.Intn(3) == 0 {
						remap[id] = -1
						continue
					}
					remap[id] = next
					next++
				}
				s.renumber(remap)
				renumbered = renumbered || s.Len() > smallSet
				moved := map[int32]bool{}
				for j, x := range order {
					order[j] = remap[x]
					moved[remap[x]] = true
				}
				in = moved
			case i/75%2 == 1 && rng.Intn(4) > 0:
				if s.Remove(v) != in[v] {
					return false
				}
				if j := slices.Index(order, v); j >= 0 {
					order = slices.Delete(order, j, j+1)
				}
				delete(in, v)
			default:
				if s.Add(v) == in[v] {
					return false
				}
				if !in[v] {
					in[v] = true
					order = append(order, v)
				}
			}
			crossedDown = crossedDown || wasLarge && s.Len() <= smallSet
			if s.Len() != len(order) || !slices.Equal(s.ids, order) || !indexMatches(s) {
				return false
			}
			for x := int32(0); x < universe; x++ {
				if s.Contains(x) != in[x] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if !crossedDown || !renumbered {
		t.Fatalf("shrank back to smallSet %v, renumbered an indexed set %v; the test lost its coverage", crossedDown, renumbered)
	}
}

// indexMatches holds a set's index to its contract: present exactly above
// smallSet, at most half full, and holding exactly the set's ids.
func indexMatches(s *ValueSet) bool {
	if s.Len() <= smallSet {
		return s.index == nil
	}
	n := 0
	for _, x := range s.index {
		if x != 0 {
			n++
		}
	}
	if n != s.Len() || 2*n > len(s.index) {
		return false
	}
	for _, x := range s.ids {
		if !s.index.Has(x) {
			return false
		}
	}
	return true
}

// TestValueSetViews: a set's values, read through the graph's view, hold
// no views when none was added, and the view resolves each id to its node
// in insertion order.
func TestValueSetViews(t *testing.T) {
	g := graph.New()
	id := g.ViewIDNode(1, "x")
	act := g.ActivityNode(nil) // nil class is fine for this structural test
	s := NewValueSet()
	s.Add(int32(id.ID()))
	s.Add(int32(act.ID()))
	vals := g.Values(s.ids)
	for _, v := range vals.Slice() {
		if graph.IsViewValue(v) {
			t.Errorf("view %v among non-view values", v)
		}
	}
	if vals.Len() != 2 || vals.At(0) != graph.Value(id) || vals.At(1) != graph.Value(act) {
		t.Errorf("view resolves %v, want [%v %v]", vals.Slice(), id, act)
	}
}
