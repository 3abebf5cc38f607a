package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gator/internal/corpus"
	"gator/internal/graph"
)

// solvedChainApp solves ModularChainApp(60, 18) and returns the analysis.
func solvedChainApp(t *testing.T) *analysis {
	t.Helper()
	sources, layouts := corpus.ModularChainApp(60, 18)
	a := newAnalysis(buildMaps(t, sources, layouts), Options{})
	a.buildGraph()
	a.solve()
	return a
}

// TestRelationViewsZeroAlloc is the allocation contract of the relation
// getters: on a solved chain app, reading every relation's view of every
// value, walking the hierarchy under every content root, and visiting every
// child, listener, root and menu pair allocates nothing. The views and the
// walker read the graph's int32 id lists in place, and the pair visitors
// resolve each id as they go.
func TestRelationViewsZeroAlloc(t *testing.T) {
	a := solvedChainApp(t)
	g := a.g
	var vals []graph.Value
	for _, n := range g.Nodes() {
		if v, ok := n.(graph.Value); ok {
			vals = append(vals, v)
		}
	}
	menus := g.Menus()
	var roots []graph.Value
	g.Pairs(graph.RelRoot, func(_, root graph.Value) { roots = append(roots, root) })
	var walk graph.Walker
	read := func(vs graph.Values) int {
		n := 0
		for i := range vs.Len() {
			if vs.At(i).ID() == vs.ID(i) {
				n++
			}
		}
		return n
	}
	var viewed, pairs int
	count := func(_, _ graph.Value) { pairs++ }
	pass := func() {
		viewed, pairs = 0, 0
		for _, v := range vals {
			viewed += read(g.Parents(v)) + read(g.Succ(graph.RelChild, v)) + read(g.Succ(graph.RelListener, v)) +
				read(g.Succ(graph.RelRoot, v)) + read(g.Succ(graph.RelLayoutOf, v)) + read(g.Succ(graph.RelViewID, v)) +
				read(g.Succ(graph.RelIntent, v))
		}
		for _, m := range menus {
			viewed += read(g.Succ(graph.RelMenuItem, m))
		}
		for _, root := range roots {
			viewed += read(walk.Descendants(g, root))
		}
		g.Pairs(graph.RelChild, count)
		g.Pairs(graph.RelListener, count)
		g.Pairs(graph.RelRoot, count)
		g.Pairs(graph.RelMenuItem, count)
	}
	pass() // sizes the walker's buffer and marks
	if len(roots) == 0 || viewed <= len(roots) || pairs <= len(roots) {
		t.Fatalf("the chain app has %d content roots, %d viewed values and %d pairs; want relations to read", len(roots), viewed, pairs)
	}
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Errorf("reading the relations of a solved chain app allocates %v times per pass, want 0", allocs)
	}
}

// TestPointsToTablePaysPerEntry: after a solve, the points-to table holds
// exactly one set per node that was ever seeded, every one of them
// non-empty, and its slot array holds at most twice as many slots as the
// graph has nodes.
func TestPointsToTablePaysPerEntry(t *testing.T) {
	a := solvedChainApp(t)
	nodes := len(a.g.Nodes())
	seeded := 0
	for id := range nodes {
		if len(a.pts.ids(id)) > 0 {
			seeded++
		}
	}
	if seeded == 0 || seeded == nodes {
		t.Fatalf("%d of %d nodes hold values; want a table with empty slots", seeded, nodes)
	}
	if len(a.pts.sets) != seeded || a.pts.size() != seeded {
		t.Errorf("the table holds %d sets (%d non-empty) for %d seeded nodes", len(a.pts.sets), a.pts.size(), seeded)
	}
	if cap(a.pts.at) > 2*nodes {
		t.Errorf("the slot array has room for %d node ids, more than twice the %d nodes", cap(a.pts.at), nodes)
	}
}

// TestValueSetBasics: a node's points-to set starts out absent, is made
// empty by ensure, and keeps its values deduplicated in insertion order.
func TestValueSetBasics(t *testing.T) {
	var pts ptsTable
	if pts.of(3) != nil || pts.ids(3) != nil || pts.size() != 0 {
		t.Error("empty table misbehaves")
	}
	s := pts.ensure(3)
	if s.Len() != 0 || s.Has(0) {
		t.Error("new set not empty")
	}
	if !s.Add(0) || !s.Add(1) {
		t.Error("Add of new value = false")
	}
	if s.Add(0) {
		t.Error("Add of duplicate = true")
	}
	if s.Len() != 2 || !s.Has(0) || s.Has(2) {
		t.Error("membership wrong")
	}
	if got := pts.ids(3); !slices.Equal(got, []int32{0, 1}) {
		t.Errorf("insertion order not preserved: %v", got)
	}
	if pts.ensure(3) != s || pts.of(2) != nil || pts.size() != 1 {
		t.Error("ensure of a held set or lookup of another node misbehaves")
	}
}

// TestValueSetQuickProperties: for any seeded sequence of Add, Remove, drop
// and renumber on the points-to sets of a few nodes, over ids from a
// universe larger than an id list's scan length, the table agrees with a
// per-node slice model: (1) Add and Remove report what the history says,
// (2) each node's ids keep the model's order, Remove included, (3) Len and
// Has agree for every id, (4) a node has a set exactly while the model
// says it received a value and did not lose its set to a renumbering, and
// (5) size counts the non-empty sets. Each sequence alternates add-heavy
// and remove-heavy phases, so sets cross the scan length in both
// directions, and now and then renumbers every id by a random
// order-preserving compaction, as graph.Compact does, with some ids
// retired: a retired node loses its set, a retired value leaves every
// set, and an empty set leaves the table.
func TestValueSetQuickProperties(t *testing.T) {
	const scan = 8 // graph.IDList's scan length: a longer list keeps an index
	const universe = 3 * scan
	crossedDown, renumbered := false, false
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var pts ptsTable
		order := make([][]int32, universe)
		held := make([]bool, universe) // the node has a set in the table
		for i := 0; i < 300; i++ {
			n, v := rng.Intn(4), int32(rng.Intn(universe))
			switch p := rng.Intn(100); {
			case p < 2:
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
				moved, movedHeld := make([][]int32, universe), make([]bool, universe)
				for old, o := range order {
					to := remap[old]
					if to < 0 {
						continue
					}
					renumbered = renumbered || len(o) > scan
					movedHeld[to] = held[old] && len(o) > 0
					for _, x := range o {
						if remap[x] >= 0 {
							moved[to] = append(moved[to], remap[x])
						}
					}
				}
				pts.renumber(remap, int(next))
				order, held = moved, movedHeld
			case p < 4:
				pts.drop(n)
				order[n] = nil
			case i/75%2 == 1 && p < 75:
				wasLong, removed := len(order[n]) > scan, false
				if s := pts.of(n); s != nil {
					removed = s.Remove(v)
				}
				if removed != slices.Contains(order[n], v) {
					return false
				}
				order[n] = slices.DeleteFunc(order[n], func(x int32) bool { return x == v })
				crossedDown = crossedDown || wasLong && len(order[n]) <= scan
			default:
				if pts.ensure(n).Add(v) == slices.Contains(order[n], v) {
					return false
				}
				held[n] = true
				if !slices.Contains(order[n], v) {
					order[n] = append(order[n], v)
				}
			}
			nonEmpty := 0
			for id, o := range order {
				s := pts.of(id)
				if (s != nil) != held[id] || !slices.Equal(pts.ids(id), o) {
					return false
				}
				if len(o) > 0 {
					nonEmpty++
				}
				if s == nil {
					continue
				}
				if s.Len() != len(o) {
					return false
				}
				for x := int32(0); x < universe; x++ {
					if s.Has(x) != slices.Contains(o, x) {
						return false
					}
				}
			}
			if pts.size() != nonEmpty {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if !crossedDown || !renumbered {
		t.Fatalf("shrank a set back to the scan length %v, renumbered a set past it %v; the test lost its coverage", crossedDown, renumbered)
	}
}

// TestValueSetViews: a points-to set's values, read through the graph's
// view, hold no views when none was added, and the view resolves each id
// to its node in insertion order.
func TestValueSetViews(t *testing.T) {
	g := graph.New()
	id := g.ViewIDNode(1, "x")
	act := g.ActivityNode(nil) // nil class is fine for this structural test
	var s graph.IDList
	s.Add(int32(id.ID()))
	s.Add(int32(act.ID()))
	vals := g.Values(s.IDs())
	for _, v := range vals.Slice() {
		if graph.IsViewValue(v) {
			t.Errorf("view %v among non-view values", v)
		}
	}
	if vals.Len() != 2 || vals.At(0) != graph.Value(id) || vals.At(1) != graph.Value(act) {
		t.Errorf("view resolves %v, want [%v %v]", vals.Slice(), id, act)
	}
}
