package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestIDListQuickProperties: for any seeded sequence of Add, Remove, filter
// and Renumber over ids from a universe larger than listScan, the list
// agrees with a slice-plus-map model: (1) Add, Remove and filter report
// what the history says, (2) the ids keep the model's order, (3) Len and
// Has agree for every id, and (4) the index is nil while the list holds up
// to listScan ids and otherwise holds exactly its ids, at most half full
// (indexMatches). Each sequence alternates add-heavy and remove-heavy
// phases, so lists cross listScan in both directions, and now and then
// filters the list by a random predicate or renumbers every id by a random
// order-preserving compaction, as Graph.Compact does, with some ids
// retired.
func TestIDListQuickProperties(t *testing.T) {
	const universe = 3 * listScan
	crossedUp, crossedDown, filtered, renumbered := false, false, false, false
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var l IDList
		var order []int32
		in := map[int32]bool{}
		for i := 0; i < 300; i++ {
			v := int32(rng.Intn(universe))
			wasLong := l.Len() > listScan
			switch p := rng.Intn(100); {
			case p < 2:
				// An order-preserving renumbering that retires some ids, as
				// compaction after retraction does.
				remap := make([]int32, universe)
				next := int32(0)
				for id := range remap {
					if rng.Intn(4) == 0 {
						remap[id] = -1
						continue
					}
					remap[id] = next
					next++
				}
				renumbered = renumbered || wasLong
				l.Renumber(remap)
				order = slices.DeleteFunc(order, func(x int32) bool { return remap[x] < 0 })
				in = map[int32]bool{}
				for j, x := range order {
					order[j] = remap[x]
					in[remap[x]] = true
				}
			case p < 4:
				salt, drop := rng.Intn(universe), 2+rng.Intn(3)
				keep := func(at int, id int32) bool { return (at+int(id)*7+salt)%drop != 0 }
				var want []int32
				for at, x := range order {
					if keep(at, x) {
						want = append(want, x)
					} else {
						delete(in, x)
					}
				}
				filtered = filtered || wasLong
				if l.filter(func(at int, id int32) (int32, bool) { return id, keep(at, id) }) != len(order)-len(want) {
					return false
				}
				order = want
			case i/75%2 == 1 && p < 75:
				if l.Remove(v) != in[v] {
					return false
				}
				order = slices.DeleteFunc(order, func(x int32) bool { return x == v })
				delete(in, v)
			default:
				if l.Add(v) == in[v] {
					return false
				}
				if !in[v] {
					in[v] = true
					order = append(order, v)
				}
			}
			crossedUp = crossedUp || !wasLong && l.Len() > listScan
			crossedDown = crossedDown || wasLong && l.Len() <= listScan
			if l.Len() != len(order) || !slices.Equal(l.IDs(), order) || !indexMatches(&l) {
				return false
			}
			for x := int32(0); x < universe; x++ {
				if l.Has(x) != in[x] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if !crossedUp || !crossedDown || !filtered || !renumbered {
		t.Fatalf("crossed listScan upward %v, downward %v; filtered %v and renumbered %v a list past it; the test lost its coverage",
			crossedUp, crossedDown, filtered, renumbered)
	}
}

// indexMatches holds a list's index to its contract: nil while the list
// holds up to listScan ids, and otherwise at most half full and holding
// exactly the list's ids.
func indexMatches(l *IDList) bool {
	if l.Len() <= listScan {
		return l.index == nil
	}
	n := 0
	for _, x := range l.index {
		if x != 0 {
			n++
		}
	}
	if n != l.Len() || 2*n > len(l.index) {
		return false
	}
	for _, id := range l.ids {
		if !l.index.Has(id) {
			return false
		}
	}
	return true
}
