package graph

import (
	"math/rand"
	"slices"
	"testing"

	"gator/internal/platform"
)

// TestCompactRenumbersLiveNodes: on seeded random graphs whose views carry
// child, id and listener edges and whose operations carry flow edges, some
// lists longer than relScan, retiring a random part of the inflated views
// and operations and compacting leaves exactly the live nodes, numbered
// densely in their old order, with every successor list and visit order
// the old one minus the retired nodes, and the edge maps holding exactly
// the edges of the long lists. A Walker that walked before the compaction
// walks correctly after it.
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
			for k := rng.Intn(2 * relScan); k > 0; k-- {
				g.AddChild(v, views[rng.Intn(len(views))])
			}
			g.AddViewID(v, ids[rng.Intn(2)])
			g.AddListener(v, views[rng.Intn(len(views))])
		}
		for _, op := range ops {
			for k := rng.Intn(2 * relScan); k > 0; k-- {
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
				wantChildren[n], wantParents[n] = keep(g.Children(v)), keep(g.Parents(v))
			}
			wantFlow[n] = slices.DeleteFunc(slices.Clone(g.FlowSucc(n)), func(d Node) bool { return dead[d] })
		}
		var wantPairs [][2]Value
		g.ChildPairs(func(p, c Value) {
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
				if !slices.Equal(g.Children(v), wantChildren[n]) || !slices.Equal(g.Parents(v), wantParents[n]) {
					t.Fatalf("seed %d: child lists of node %d changed", seed, id)
				}
			}
			if !slices.Equal(g.FlowSucc(n), wantFlow[n]) {
				t.Fatalf("seed %d: flow successors of node %d changed", seed, id)
			}
			flowEdges += len(wantFlow[n])
		}
		if g.NumFlowEdges() != flowEdges {
			t.Fatalf("seed %d: NumFlowEdges %d, want %d", seed, g.NumFlowEdges(), flowEdges)
		}
		var gotPairs [][2]Value
		g.ChildPairs(func(p, c Value) { gotPairs = append(gotPairs, [2]Value{p, c}) })
		if !slices.Equal(gotPairs, wantPairs) {
			t.Fatalf("seed %d: child visit order changed", seed)
		}
		checkLong(t, g.flowLong, func(visit func(sid int, succs []Node)) {
			for sid, succs := range g.flow {
				visit(sid, succs)
			}
		})
		for _, r := range g.relations() {
			checkLong(t, r.long, func(visit func(sid int, succs []Value)) {
				for sid, succs := range r.succ {
					visit(sid, succs)
				}
			})
		}
		if got := w.Descendants(g, views[0]); !sameValues(got, referenceDescendants(g, views[0])) {
			t.Fatalf("seed %d: a walker reused across Compact walks wrongly", seed)
		}
	}
}

// checkLong holds an edge map to its contract: it holds exactly the edges
// of the successor lists longer than relScan.
func checkLong[T succNode](t *testing.T, long map[edgeKey]struct{}, lists func(func(sid int, succs []T))) {
	t.Helper()
	want := 0
	lists(func(sid int, succs []T) {
		if len(succs) <= relScan {
			return
		}
		for _, d := range succs {
			if _, ok := long[edgeKey{sid, d.ID()}]; !ok {
				t.Fatalf("edge %d -> %d of a long list is missing from the edge map", sid, d.ID())
			}
			want++
		}
	})
	if len(long) != want {
		t.Fatalf("edge map holds %d edges, want %d", len(long), want)
	}
}
