package graph

import (
	"math/rand"
	"slices"
	"testing"

	"gator/internal/platform"
)

// TestCompactRenumbersLiveNodes: on seeded random graphs whose views carry
// child, id and listener edges and whose operations carry flow edges, some
// lists longer than listScan, retiring a random part of the inflated views
// and operations and compacting leaves exactly the live nodes, numbered
// densely in their old order, with every successor list and visit order
// the old one minus the retired nodes, and the flow table and every
// relation keeping their invariant under the new ids (flowTableHolds,
// relationTableHolds). A Walker that walked before the compaction walks
// correctly after it.
func TestCompactRenumbersLiveNodes(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		var views []Value
		var ops []*OpNode
		ids := []*ViewIDNode{g.ViewIDNode(1, "a"), g.ViewIDNode(2, "b")}
		for i := 0; i < 60; i++ {
			if rng.Intn(3) == 0 {
				ops = append(ops, g.NewOpNode(platform.OpFindView1, nil, nil))
			} else {
				views = append(views, g.NewInflNode(nil, "l", i, nil, "", ""))
			}
		}
		for _, v := range views {
			for k := rng.Intn(2 * listScan); k > 0; k-- {
				g.Add(RelChild, v, views[rng.Intn(len(views))])
			}
			g.Add(RelViewID, v, ids[rng.Intn(2)])
			g.Add(RelListener, v, views[rng.Intn(len(views))])
		}
		for _, op := range ops {
			for k := rng.Intn(2 * listScan); k > 0; k-- {
				g.AddFlow(op, ops[rng.Intn(len(ops))])
			}
		}
		var w Walker
		w.Descendants(g, views[0])

		dead := map[Node]bool{}
		for _, n := range g.Nodes() {
			if _, isID := n.(*ViewIDNode); !isID && n != views[0] && rng.Intn(3) == 0 {
				dead[n] = true
			}
		}
		live := slices.DeleteFunc(slices.Clone(g.Nodes()), func(n Node) bool { return dead[n] })
		keep := func(vals []Value) []Value {
			return slices.DeleteFunc(slices.Clone(vals), func(v Value) bool { return dead[v] })
		}
		wantChildren, wantParents := map[Node][]Value{}, map[Node][]Value{}
		wantFlow := map[Node][]Node{}
		for _, n := range live {
			if v, ok := n.(Value); ok {
				wantChildren[n], wantParents[n] = keep(g.Succ(RelChild, v).Slice()), keep(g.Parents(v).Slice())
			}
			wantFlow[n] = slices.DeleteFunc(flowDsts(g, n), func(d Node) bool { return dead[d] })
		}
		var wantPairs [][2]Value
		g.Pairs(RelChild, func(p, c Value) {
			if !dead[p] && !dead[c] {
				wantPairs = append(wantPairs, [2]Value{p, c})
			}
		})

		g.Retire(func(n Node) bool { return dead[n] })
		if g.NumRetired() != len(dead) {
			t.Fatalf("seed %d: NumRetired %d, want %d", seed, g.NumRetired(), len(dead))
		}
		if remap := g.Compact(); len(remap) != len(live)+len(dead) {
			t.Fatalf("seed %d: remap covers %d ids, want %d", seed, len(remap), len(live)+len(dead))
		}
		if !slices.Equal(g.Nodes(), live) || g.NumRetired() != 0 {
			t.Fatalf("seed %d: compacted nodes are not the live ones in order", seed)
		}
		flowEdges := 0
		for id, n := range g.Nodes() {
			if n.ID() != id {
				t.Fatalf("seed %d: node %d has id %d", seed, id, n.ID())
			}
			if v, ok := n.(Value); ok {
				if !slices.Equal(g.Succ(RelChild, v).Slice(), wantChildren[n]) || !slices.Equal(g.Parents(v).Slice(), wantParents[n]) {
					t.Fatalf("seed %d: child lists of node %d changed", seed, id)
				}
			}
			if !slices.Equal(flowDsts(g, n), wantFlow[n]) {
				t.Fatalf("seed %d: flow successors of node %d changed", seed, id)
			}
			flowEdges += len(wantFlow[n])
		}
		if g.NumFlowEdges() != flowEdges {
			t.Fatalf("seed %d: NumFlowEdges %d, want %d", seed, g.NumFlowEdges(), flowEdges)
		}
		var gotPairs [][2]Value
		g.Pairs(RelChild, func(p, c Value) { gotPairs = append(gotPairs, [2]Value{p, c}) })
		if !slices.Equal(gotPairs, wantPairs) {
			t.Fatalf("seed %d: child visit order changed", seed)
		}
		if !flowTableHolds(g) {
			t.Fatalf("seed %d: the compacted flow table breaks its invariant", seed)
		}
		if !relationTableHolds(g) {
			t.Fatalf("seed %d: the compacted relations break their invariant", seed)
		}
		if got := w.Descendants(g, views[0]).Slice(); !sameValues(got, referenceDescendants(g, views[0])) {
			t.Fatalf("seed %d: a walker reused across Compact walks wrongly", seed)
		}
	}
}

// flowDsts returns n's flow successors as nodes.
func flowDsts(g *Graph, n Node) []Node {
	var out []Node
	dsts, _ := g.FlowSucc(n)
	for _, d := range dsts {
		out = append(out, g.Nodes()[d])
	}
	return out
}
