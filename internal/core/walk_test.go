package core

import (
	"testing"

	"gator/internal/corpus"
	"gator/internal/graph"
	"gator/internal/ir"
)

// TestFindViewWalkZeroAlloc is the allocation contract of the FindView
// rules' candidate search: once the solver's walker has walked a solved
// app's view hierarchies, walking them again allocates nothing — the
// walker reuses its buffer and marks instead of rebuilding a descendant
// list per lookup.
func TestFindViewWalkZeroAlloc(t *testing.T) {
	p, err := ir.Build(corpus.Figure1Files(), corpus.Figure1Layouts())
	if err != nil {
		t.Fatal(err)
	}
	a := newAnalysis(p, Options{})
	a.buildGraph()
	a.solve()
	var roots []graph.Value
	a.g.Pairs(graph.RelRoot, func(_, root graph.Value) { roots = append(roots, root) })
	views := 0
	for _, root := range roots {
		views += a.walk.Descendants(a.g, root).Len() // warm-up
	}
	if len(roots) == 0 || views <= len(roots) {
		t.Fatalf("Figure 1 has %d content roots and %d views under them; want a hierarchy to walk", len(roots), views)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, root := range roots {
			a.walk.Descendants(a.g, root)
		}
	})
	if allocs != 0 {
		t.Errorf("the solver's walk allocates %v times per pass over Figure 1's roots, want 0", allocs)
	}
}
