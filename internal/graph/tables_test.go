package graph_test

import (
	"sort"
	"testing"

	"gator/internal/alite"
	"gator/internal/core"
	"gator/internal/corpus"
	"gator/internal/graph"
	"gator/internal/ir"
	"gator/internal/layout"
)

// TestFlowTablePaysPerEntry: after solving ModularChainApp(60, 18), the
// flow table holds exactly one successor list per node with a successor,
// and its slot array and the relations' shared slot array each hold at
// most twice as many slots as the graph has nodes.
func TestFlowTablePaysPerEntry(t *testing.T) {
	sources, layouts := corpus.ModularChainApp(60, 18)
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	files := make([]*alite.File, len(names))
	for i, name := range names {
		f, err := alite.Parse(name, sources[name])
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	lays := make(map[string]*layout.Layout, len(layouts))
	for name, xml := range layouts {
		l, err := layout.Parse(name, xml)
		if err != nil {
			t.Fatal(err)
		}
		lays[name] = l
	}
	prog, err := ir.Build(files, lays)
	if err != nil {
		t.Fatal(err)
	}
	g := core.Analyze(prog, core.Options{}).Graph

	nodes, withSucc := len(g.Nodes()), 0
	for _, n := range g.Nodes() {
		if dsts, _ := g.FlowSucc(n); len(dsts) > 0 {
			withSucc++
		}
	}
	if withSucc == 0 || withSucc == nodes {
		t.Fatalf("%d of %d nodes have flow successors; want a table with empty slots", withSucc, nodes)
	}
	lists, slots := graph.FlowTableSize(g)
	if lists != withSucc {
		t.Errorf("the flow table holds %d successor lists for %d nodes with successors", lists, withSucc)
	}
	if slots > 2*nodes {
		t.Errorf("the flow slot array has room for %d node ids, more than twice the %d nodes", slots, nodes)
	}
	if rel := graph.RelIndexSlots(g); rel > 2*nodes {
		t.Errorf("the relation slot array has room for %d node ids, more than twice the %d nodes", rel, nodes)
	}
}
