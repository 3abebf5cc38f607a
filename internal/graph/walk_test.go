package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// referenceDescendants is the breadth-first walk Graph.Descendants ran
// before Walker replaced it: a map of visited ids, marked at dequeue, over
// a queue that re-slices its head. Walker must return exactly its output.
func referenceDescendants(g *Graph, root Value) []Value {
	var out []Value
	seen := map[int]bool{}
	queue := []Value{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if seen[v.ID()] {
			continue
		}
		seen[v.ID()] = true
		out = append(out, v)
		queue = append(queue, g.Succ(RelChild, v).Slice()...)
	}
	return out
}

func sameValues(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomChildGraph builds n stand-in values with random child edges: any
// value may be any value's child, so the graph has shared children,
// diamonds, self-loops and cycles.
func randomChildGraph(rng *rand.Rand, n, maxKids int) (*Graph, []Value) {
	g := New()
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = g.ViewIDNode(i, "v")
	}
	for _, p := range vals {
		for k := rng.Intn(maxKids + 1); k > 0; k-- {
			g.Add(RelChild, p, vals[rng.Intn(n)])
		}
	}
	return g, vals
}

// treeGraph builds a binary tree over n values, value i the parent of 2i+1
// and 2i+2, plus a diamond (value 3 also a child of value 2) and a cycle
// (value 0 a child of the last value), so every value is reachable from
// value 0.
func treeGraph(n int) (*Graph, []Value) {
	g := New()
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = g.ViewIDNode(i, "v")
	}
	for i := 1; i < n; i++ {
		g.Add(RelChild, vals[(i-1)/2], vals[i])
	}
	g.Add(RelChild, vals[2], vals[3])
	g.Add(RelChild, vals[n-1], vals[0])
	return g, vals
}

// TestWalkerMatchesReference: on seeded random child graphs from one value
// to a few hundred, with walks both below and above walkScan, one reused
// Walker returns exactly the reference walk from every root, also after
// edges are added and removed and nodes are created between walks.
func TestWalkerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w Walker
	marked := false
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(250)
		g, vals := randomChildGraph(rng, n, 1+rng.Intn(4))
		check := func(stage string) {
			t.Helper()
			for _, root := range vals {
				want := referenceDescendants(g, root)
				if got := w.Descendants(g, root).Slice(); !sameValues(got, want) {
					t.Fatalf("trial %d %s: root %d: walk %v, reference %v", trial, stage, root.ID(), got, want)
				}
				marked = marked || len(want) > walkScan
			}
		}
		check("built")
		// Grow and shrink the hierarchy between walks, and create nodes
		// after the mark array was sized.
		for k := 0; k < n/4+1; k++ {
			vals = append(vals, g.ViewIDNode(n+k, "late"))
			g.Add(RelChild, vals[rng.Intn(len(vals))], vals[len(vals)-1])
			p, c := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
			if rng.Intn(2) == 0 {
				g.Remove(RelChild, p, c)
			} else {
				g.Add(RelChild, p, c)
			}
		}
		check("edited")
	}
	if !marked {
		t.Fatal("no walk exceeded walkScan; the epoch-mark path went untested")
	}
}

// TestWalkerEpochWrap: when the epoch counter wraps, stale marks are
// cleared; without that, marks from the first epoch would read as current
// and truncate the walk.
func TestWalkerEpochWrap(t *testing.T) {
	g, vals := treeGraph(4 * walkScan)
	root := vals[0]
	want := referenceDescendants(g, root)
	if len(want) != len(vals) {
		t.Fatalf("reference walk visits %d values, want all %d", len(want), len(vals))
	}
	var w Walker
	w.Descendants(g, root) // marks every value of the walk with epoch 1
	w.epoch = math.MaxUint32
	for i := 0; i < 3; i++ {
		if got := w.Descendants(g, root).Slice(); !sameValues(got, want) {
			t.Fatalf("walk %d after the wrap: %d values, want %d", i, len(got), len(want))
		}
	}
	if w.epoch != 3 {
		t.Errorf("epoch after the wrap = %d, want 3", w.epoch)
	}
}

// TestWalkerMarkingZeroAlloc: once a walker has walked a graph, repeat
// walks past walkScan allocate nothing.
func TestWalkerMarkingZeroAlloc(t *testing.T) {
	g, vals := treeGraph(4 * walkScan)
	var w Walker
	if w.Descendants(g, vals[0]).Len() != len(vals) {
		t.Fatal("walk missed values of the tree")
	}
	if allocs := testing.AllocsPerRun(100, func() { w.Descendants(g, vals[0]) }); allocs != 0 {
		t.Errorf("repeat walk allocates %v times, want 0", allocs)
	}
}

// relModel is the obvious relation: per-source successor slices plus the
// source visit order, with every membership test a scan.
type relModel struct {
	succ map[int][]Value
	srcs []Value
}

func (m *relModel) add(s, d Value) bool {
	for _, x := range m.succ[s.ID()] {
		if x == d {
			return false
		}
	}
	if _, listed := m.succ[s.ID()]; !listed {
		m.srcs = append(m.srcs, s)
	}
	m.succ[s.ID()] = append(m.succ[s.ID()], d)
	return true
}

func (m *relModel) remove(s, d Value) bool {
	list := m.succ[s.ID()]
	for i, x := range list {
		if x == d {
			m.succ[s.ID()] = append(list[:i:i], list[i+1:]...)
			return true
		}
	}
	return false
}

func (m *relModel) dropSrcIf(dead func(Value) bool) {
	var kept []Value
	for _, s := range m.srcs {
		if dead(s) {
			delete(m.succ, s.ID())
			continue
		}
		kept = append(kept, s)
	}
	m.srcs = kept
}

// TestRelationQuickProperties: for any seeded sequence of Add, Remove and
// Retire over every relation, a few sources and a universe larger than
// listScan, the graph agrees with one relModel per relation on every
// result, on Succ and Has for every pair of values, on Parents (the model
// of RelChild read backward), and on the order Pairs visits; Gen moves
// exactly when a call reports a change; and the relations' lists and their
// shared source index keep their invariant after every step
// (relationTableHolds). Retire drops a source's pairs from RelLayoutOf
// only. Each sequence alternates add-heavy and remove-heavy phases, so
// successor lists cross listScan in both directions.
func TestRelationQuickProperties(t *testing.T) {
	rels := []Rel{RelChild, RelViewID, RelListener, RelRoot, RelIntent, RelMenuItem, RelLayoutOf}
	const numSrcs = 3
	crossedDown := false
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		universe := make([]Value, 3*listScan)
		for i := range universe {
			universe[i] = g.ViewIDNode(i, "v")
		}
		models := map[Rel]*relModel{relParent: {succ: map[int][]Value{}}}
		for _, rel := range rels {
			models[rel] = &relModel{succ: map[int][]Value{}}
		}
		wasLong := map[[2]int]bool{}
		for i := 0; i < 400; i++ {
			rel := rels[rng.Intn(len(rels))]
			s := universe[rng.Intn(numSrcs)]
			d := universe[rng.Intn(len(universe))]
			gen := g.Gen()
			changed := false
			removeHeavy := i/100%2 == 1
			switch p := rng.Intn(100); {
			case p < 2:
				g.Retire(func(n Node) bool { return n == s })
				models[RelLayoutOf].dropSrcIf(func(v Value) bool { return v == s })
				changed = true
			case p < 30 || removeHeavy && p < 80:
				changed = models[rel].remove(s, d)
				if g.Remove(rel, s, d) != changed {
					return false
				}
				if changed && rel == RelChild {
					models[relParent].remove(d, s)
				}
			default:
				changed = models[rel].add(s, d)
				if g.Add(rel, s, d) != changed {
					return false
				}
				if changed && rel == RelChild {
					models[relParent].add(d, s)
				}
			}
			if (g.Gen() != gen) != changed || !relationsAgree(g, models, universe) {
				return false
			}
			n, key := g.Succ(rel, s).Len(), [2]int{int(rel), s.ID()}
			crossedDown = crossedDown || wasLong[key] && n <= listScan
			wasLong[key] = n > listScan
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
	if !crossedDown {
		t.Fatal("no successor list shrank back to listScan; the test lost its coverage")
	}
}

func relationsAgree(g *Graph, models map[Rel]*relModel, universe []Value) bool {
	for rel, m := range models {
		for _, v := range universe {
			want := m.succ[v.ID()]
			if !sameValues(g.Succ(rel, v).Slice(), want) {
				return false
			}
			for _, d := range universe {
				if g.Has(rel, v, d) != containsValue(want, d) {
					return false
				}
			}
		}
		var visited, want []int32
		g.Pairs(rel, func(s, d Value) { visited = append(visited, nodeID(s), nodeID(d)) })
		for _, s := range m.srcs {
			for _, d := range m.succ[s.ID()] {
				want = append(want, nodeID(s), nodeID(d))
			}
		}
		if !slices.Equal(visited, want) {
			return false
		}
	}
	for _, v := range universe {
		if !sameValues(g.Parents(v).Slice(), models[relParent].succ[v.ID()]) {
			return false
		}
	}
	return relationTableHolds(g)
}

// relationTableHolds checks the relations' lists and their shared source
// index: no two nodes share a row, each node's slot in a relation's column
// is 0 or names a list of that relation whose src is that node, every list
// is named by exactly one slot, and each list's index holds exactly its
// successors while the list is longer than listScan (indexMatches).
func relationTableHolds(g *Graph) bool {
	x := &g.relIdx
	rowUsed := make([]bool, len(x.rows))
	var named [numRels][]bool
	for rel := range named {
		named[rel] = make([]bool, len(g.rels[rel]))
	}
	for id, row := range x.row {
		if row == 0 {
			continue
		}
		if int(row) > len(x.rows) || rowUsed[row-1] {
			return false
		}
		rowUsed[row-1] = true
		for rel, pos := range x.rows[row-1] {
			if pos == 0 {
				continue
			}
			lists := g.rels[rel]
			if int(pos) > len(lists) || named[rel][pos-1] || lists[pos-1].src != int32(id) {
				return false
			}
			named[rel][pos-1] = true
		}
	}
	for rel, lists := range g.rels {
		for i := range lists {
			if !named[rel][i] || !indexMatches(&lists[i].dsts) {
				return false
			}
		}
	}
	return true
}

func containsValue(vals []Value, v Value) bool {
	for _, x := range vals {
		if x == v {
			return true
		}
	}
	return false
}
