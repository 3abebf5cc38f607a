package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// refFlow is the flow-edge store Graph kept before successors were indexed
// by source id: successor lists in a map keyed by source node, and every
// edge in a set for deduplication. The graph's store must agree with it.
type refFlow struct {
	flowSucc map[Node][]Node
	flowSet  map[[2]int]bool
	numFlow  int
}

func (r *refFlow) AddFlow(src, dst Node) bool {
	k := [2]int{src.ID(), dst.ID()}
	if r.flowSet[k] {
		return false
	}
	r.flowSet[k] = true
	r.flowSucc[src] = append(r.flowSucc[src], dst)
	r.numFlow++
	return true
}

func (r *refFlow) FilterFlow(keep func(src, dst Node) bool) int {
	removed := 0
	for src, succs := range r.flowSucc {
		var kept []Node
		for _, dst := range succs {
			if keep(src, dst) {
				kept = append(kept, dst)
			} else {
				delete(r.flowSet, [2]int{src.ID(), dst.ID()})
				removed++
			}
		}
		if len(kept) == 0 {
			delete(r.flowSucc, src)
			continue
		}
		r.flowSucc[src] = kept
	}
	r.numFlow -= removed
	return removed
}

// TestFlowQuickProperties: for any seeded sequence of AddFlow and FilterFlow
// over a few sources and a universe larger than relScan, the graph agrees
// with refFlow on every result, on FlowSucc for every node, on
// NumFlowEdges, and on VisitFlow, which must visit each non-empty list once
// in source id order; and the flow table keeps its invariant after every
// step (flowTableHolds). Sequences alternate add-heavy and filter-heavy
// phases, so successor lists cross relScan in both directions.
func TestFlowQuickProperties(t *testing.T) {
	g := New()
	universe := make([]Node, 3*relScan)
	for i := range universe {
		universe[i] = g.ViewIDNode(i, "v")
	}
	const numSrcs = 3
	crossedUp, crossedDown := false, false
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g.flowAt, g.flows, g.numFlow = nil, nil, 0
		ref := &refFlow{flowSucc: map[Node][]Node{}, flowSet: map[[2]int]bool{}}
		wasLong := map[int]bool{}
		for i := 0; i < 300; i++ {
			if filterHeavy := i/100%2 == 1; rng.Intn(100) < 3 || filterHeavy && rng.Intn(100) < 15 {
				salt := rng.Int()
				drop := 2 + rng.Intn(3)
				keep := func(src, dst Node) bool { return (src.ID()*7+dst.ID()*13+salt)%drop != 0 }
				graphKeep := func(src Node, e FlowEdge) bool { return keep(src, g.nodes[e.Dst]) }
				if g.FilterFlow(graphKeep) != ref.FilterFlow(keep) {
					return false
				}
			} else {
				s := universe[rng.Intn(numSrcs)]
				d := universe[rng.Intn(len(universe))]
				if g.AddFlow(s, d) != ref.AddFlow(s, d) {
					return false
				}
			}
			if !flowAgrees(g, ref, universe) {
				return false
			}
			for _, s := range universe[:numSrcs] {
				long := len(g.FlowSucc(s)) > relScan
				crossedUp = crossedUp || !wasLong[s.ID()] && long
				crossedDown = crossedDown || wasLong[s.ID()] && !long
				wasLong[s.ID()] = long
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
	if !crossedUp || !crossedDown {
		t.Fatalf("successor lists crossed relScan upward %v, downward %v; the test lost its coverage", crossedUp, crossedDown)
	}
}

func flowAgrees(g *Graph, ref *refFlow, universe []Node) bool {
	if g.NumFlowEdges() != ref.numFlow {
		return false
	}
	for _, n := range universe {
		got, want := g.FlowSucc(n), ref.flowSucc[n]
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if g.nodes[got[i].Dst] != want[i] || got[i].Label != 0 {
				return false
			}
		}
	}
	if !flowTableHolds(g) {
		return false
	}
	var visited, want []Node
	g.VisitFlow(func(src Node, dsts []FlowEdge) {
		if len(dsts) == 0 || len(dsts) != len(ref.flowSucc[src]) {
			visited = append(visited, nil)
		}
		visited = append(visited, src)
	})
	for src := range ref.flowSucc {
		want = append(want, src)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].ID() < want[j].ID() })
	if len(visited) != len(want) {
		return false
	}
	for i := range visited {
		if visited[i] != want[i] {
			return false
		}
	}
	return true
}

// flowTableHolds checks the flow table's invariant: each slot of flowAt is
// 0 or names a list of flows whose src is that node, every list is named by
// exactly one slot, and each list's IDSet holds exactly its destinations
// while the list is longer than relScan (setMatches).
func flowTableHolds(g *Graph) bool {
	named := make([]bool, len(g.flows))
	for id, at := range g.flowAt {
		if at == 0 {
			continue
		}
		if int(at) > len(g.flows) || named[at-1] || g.flows[at-1].src != int32(id) {
			return false
		}
		named[at-1] = true
	}
	for i, l := range g.flows {
		ids := make([]int32, len(l.edges))
		for j, e := range l.edges {
			ids[j] = e.Dst
		}
		if !named[i] || !setMatches(l.set, ids) {
			return false
		}
	}
	return true
}

// setMatches holds a successor list's IDSet to its contract: the set exists
// exactly while the list is longer than relScan, is at most half full, and
// holds exactly the list's ids.
func setMatches(set IDSet, ids []int32) bool {
	if len(ids) <= relScan {
		return set == nil
	}
	n := 0
	for _, x := range set {
		if x != 0 {
			n++
		}
	}
	if n != len(ids) || 2*n > len(set) {
		return false
	}
	for _, id := range ids {
		if !set.Has(id) {
			return false
		}
	}
	return true
}

// TestVarNodeAndFlowHitsZeroAlloc: looking up an existing variable node,
// context-insensitive or cloned, and re-adding an existing flow edge, to a
// short successor list or to one past relScan, allocate nothing.
func TestVarNodeAndFlowHitsZeroAlloc(t *testing.T) {
	p := testProgram(t)
	g := New()
	m := p.Class("A").Methods["onCreate()"]
	v := m.Locals[1]
	g.VarNode(v)
	ctx := g.InternContext("site")
	g.VarNodeCtx(v, ctx)
	short, long := g.VarNode(m.Locals[0]), g.VarNode(m.Locals[2])
	dst := g.ViewIDNode(0, "v0")
	g.AddFlow(short, dst)
	for i := 0; i <= relScan; i++ {
		g.AddFlow(long, g.ViewIDNode(i, "v"))
	}
	for name, f := range map[string]func(){
		"VarNode hit":                      func() { g.VarNode(v) },
		"VarNodeCtx hit":                   func() { g.VarNodeCtx(v, ctx) },
		"duplicate AddFlow":                func() { g.AddFlow(short, dst) },
		"duplicate AddFlow past relScan":   func() { g.AddFlow(long, dst) },
		"FlowSucc of a source":             func() { g.FlowSucc(long) },
		"FlowSucc of a node with no edges": func() { g.FlowSucc(dst) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %.0f times, want 0", name, allocs)
		}
	}
}
