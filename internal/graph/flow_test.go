package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// refFlow is the flow-edge store Graph kept before successors were indexed
// by source id: successor lists in a map keyed by source node, and every
// edge in a map to its label, which also deduplicates. The graph's store
// must agree with it.
type refFlow struct {
	flowSucc map[Node][]Node
	label    map[[2]int]int32
	numFlow  int
}

func (r *refFlow) AddFlow(src, dst Node) bool {
	k := [2]int{src.ID(), dst.ID()}
	if _, ok := r.label[k]; ok {
		return false
	}
	r.label[k] = 0
	r.flowSucc[src] = append(r.flowSucc[src], dst)
	r.numFlow++
	return true
}

func (r *refFlow) FilterFlow(keep func(src, dst Node, label int32) bool) int {
	removed := 0
	for src, succs := range r.flowSucc {
		var kept []Node
		for _, dst := range succs {
			k := [2]int{src.ID(), dst.ID()}
			if keep(src, dst, r.label[k]) {
				kept = append(kept, dst)
			} else {
				delete(r.label, k)
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

// TestFlowQuickProperties: for any seeded sequence of AddFlow, FlowLabel
// and FilterFlow over a few sources and a universe larger than listScan,
// the graph agrees with refFlow on every result, on FlowSucc for every node
// (destinations and labels), on NumFlowEdges, and on VisitFlow, which must
// visit each non-empty list once in source id order; FilterFlow hands keep
// each edge's label; and the flow table keeps its invariant after every
// step (flowTableHolds). Sequences alternate add-heavy and filter-heavy
// phases, so successor lists cross listScan in both directions, and about
// one edge in four gets a label, so some lists keep theirs beside the
// destinations and others never have any.
func TestFlowQuickProperties(t *testing.T) {
	g := New()
	universe := make([]Node, 3*listScan)
	for i := range universe {
		universe[i] = g.ViewIDNode(i, "v")
	}
	const numSrcs = 3
	crossedUp, crossedDown := false, false
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g.flowAt, g.flows, g.numFlow = nil, nil, 0
		ref := &refFlow{flowSucc: map[Node][]Node{}, label: map[[2]int]int32{}}
		wasLong := map[int]bool{}
		for i := 0; i < 300; i++ {
			if filterHeavy := i/100%2 == 1; rng.Intn(100) < 3 || filterHeavy && rng.Intn(100) < 15 {
				salt := rng.Int()
				drop := 2 + rng.Intn(3)
				keep := func(src, dst Node, label int32) bool {
					return (src.ID()*7+dst.ID()*13+int(label)+salt)%drop != 0
				}
				graphKeep := func(src Node, dst, label int32) bool { return keep(src, g.nodes[dst], label) }
				if g.FilterFlow(graphKeep) != ref.FilterFlow(keep) {
					return false
				}
			} else {
				s := universe[rng.Intn(numSrcs)]
				d := universe[rng.Intn(len(universe))]
				if g.AddFlow(s, d) != ref.AddFlow(s, d) {
					return false
				}
				if rng.Intn(4) == 0 {
					label := 1 + rng.Int31n(100)
					*g.FlowLabel(s, d) = label
					ref.label[[2]int{s.ID(), d.ID()}] = label
				}
			}
			if !flowAgrees(g, ref, universe) {
				return false
			}
			for _, s := range universe[:numSrcs] {
				dsts, _ := g.FlowSucc(s)
				long := len(dsts) > listScan
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
		t.Fatalf("successor lists crossed listScan upward %v, downward %v; the test lost its coverage", crossedUp, crossedDown)
	}
}

func flowAgrees(g *Graph, ref *refFlow, universe []Node) bool {
	if g.NumFlowEdges() != ref.numFlow {
		return false
	}
	for _, n := range universe {
		dsts, labels := g.FlowSucc(n)
		want := ref.flowSucc[n]
		if len(dsts) != len(want) {
			return false
		}
		for i, d := range dsts {
			label := ref.label[[2]int{n.ID(), int(d)}]
			if g.nodes[d] != want[i] || labels == nil && label != 0 || labels != nil && labels[i] != label {
				return false
			}
		}
	}
	if !flowTableHolds(g) {
		return false
	}
	var visited, want []Node
	g.VisitFlow(func(src Node, dsts, _ []int32) {
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
// 0 or names a list of flows, every list is named by exactly one slot,
// each list's labels are nil or one per destination, and each list's index
// holds exactly its destinations while the list is longer than listScan
// (indexMatches). Which list a slot names, flowAgrees checks through
// FlowSucc.
func flowTableHolds(g *Graph) bool {
	named := make([]bool, len(g.flows))
	for _, at := range g.flowAt {
		if at == 0 {
			continue
		}
		if int(at) > len(g.flows) || named[at-1] {
			return false
		}
		named[at-1] = true
	}
	for i, l := range g.flows {
		if !named[i] || l.labels != nil && len(l.labels) != l.dsts.Len() || !indexMatches(&l.dsts) {
			return false
		}
	}
	return true
}

// TestVarNodeAndFlowHitsZeroAlloc: looking up an existing variable node,
// context-insensitive or cloned, and re-adding an existing flow edge, to a
// short successor list or to one past listScan, allocate nothing.
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
	for i := 0; i <= listScan; i++ {
		g.AddFlow(long, g.ViewIDNode(i, "v"))
	}
	for name, f := range map[string]func(){
		"VarNode hit":                      func() { g.VarNode(v) },
		"VarNodeCtx hit":                   func() { g.VarNodeCtx(v, ctx) },
		"duplicate AddFlow":                func() { g.AddFlow(short, dst) },
		"duplicate AddFlow past listScan":  func() { g.AddFlow(long, dst) },
		"FlowSucc of a source":             func() { g.FlowSucc(long) },
		"FlowSucc of a node with no edges": func() { g.FlowSucc(dst) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %.0f times, want 0", name, allocs)
		}
	}
}
