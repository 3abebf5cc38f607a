package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gator/internal/graph"
)

// mkValues builds n distinct values (view id nodes are the simplest).
func mkValues(n int) []graph.Value {
	g := graph.New()
	out := make([]graph.Value, n)
	for i := range out {
		out[i] = g.ViewIDNode(i, "v")
	}
	return out
}

func TestValueSetBasics(t *testing.T) {
	vals := mkValues(3)
	s := NewValueSet()
	if s.Len() != 0 || s.Contains(vals[0]) {
		t.Error("empty set misbehaves")
	}
	if !s.Add(vals[0]) || !s.Add(vals[1]) {
		t.Error("Add of new value = false")
	}
	if s.Add(vals[0]) {
		t.Error("Add of duplicate = true")
	}
	if s.Len() != 2 || !s.Contains(vals[0]) || s.Contains(vals[2]) {
		t.Error("membership wrong")
	}
	got := s.Values()
	if len(got) != 2 || got[0] != vals[0] || got[1] != vals[1] {
		t.Error("insertion order not preserved")
	}
}

// TestValueSetQuickProperties: for any seeded sequence of Add and Remove
// over a universe larger than smallSet, the set agrees with a slice-plus-map
// model: (1) Add and Remove report what the history says, (2) Values keeps
// the model's order, (3) Len and Contains agree, and (4) the index exists
// exactly while the set holds more than smallSet values. Each sequence
// alternates add-heavy and remove-heavy phases, so sets cross smallSet in
// both directions.
func TestValueSetQuickProperties(t *testing.T) {
	universe := mkValues(3 * smallSet)
	crossedDown := false
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewValueSet()
		var order []graph.Value
		in := map[int]bool{}
		for i := 0; i < 300; i++ {
			v := universe[rng.Intn(len(universe))]
			wasLarge := s.Len() > smallSet
			if i/75%2 == 1 && rng.Intn(4) > 0 {
				if s.Remove(v) != in[v.ID()] {
					return false
				}
				for j, x := range order {
					if x == v {
						order = append(order[:j:j], order[j+1:]...)
						break
					}
				}
				delete(in, v.ID())
			} else {
				if s.Add(v) == in[v.ID()] {
					return false
				}
				if !in[v.ID()] {
					in[v.ID()] = true
					order = append(order, v)
				}
			}
			crossedDown = crossedDown || wasLarge && s.Len() <= smallSet
			if s.Len() != len(order) || (s.index != nil) != (s.Len() > smallSet) {
				return false
			}
			for j, x := range s.Values() {
				if x != order[j] {
					return false
				}
			}
			for _, x := range universe {
				if s.Contains(x) != in[x.ID()] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if !crossedDown {
		t.Fatal("no set shrank back to smallSet; the test lost its coverage")
	}
}

func TestValueSetViews(t *testing.T) {
	g := graph.New()
	id := g.ViewIDNode(1, "x")
	act := g.ActivityNode(nil) // nil class is fine for this structural test
	s := NewValueSet()
	s.Add(id)
	s.Add(act)
	if len(s.Views()) != 0 {
		t.Errorf("Views() of non-view values = %v", s.Views())
	}
}
