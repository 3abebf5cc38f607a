package core

import (
	"testing"

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
	g.RootPairs(func(_, root graph.Value) { roots = append(roots, root) })
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
			viewed += read(g.Parents(v)) + read(g.Children(v)) + read(g.Listeners(v)) + read(g.Roots(v)) +
				read(g.LayoutOf(v)) + read(g.ViewIDValues(v)) + read(g.IntentTargets(v))
		}
		for _, m := range menus {
			viewed += read(g.MenuItems(m))
		}
		for _, root := range roots {
			viewed += read(walk.Descendants(g, root))
		}
		g.ChildPairs(count)
		g.ListenerPairs(count)
		g.RootPairs(count)
		g.MenuPairs(count)
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
