package graph

import "gator/internal/slab"

// Rel names one of the relations between values that the solver grows to
// a fixed point (Section 4.2 of the paper, plus the extensions). Each
// relates a source value to an insertion-ordered list of successor
// values. No exported Rel is 0.
type Rel uint8

const (
	// relParent is RelChild read backward, child view ⇒ parent view. The
	// graph keeps it in step with RelChild; Parents reads it.
	relParent Rel = iota
	// RelChild is parent view ⇒ child view: one step of the paper's
	// ancestorOf.
	RelChild
	// RelViewID is view ⇒ *ViewIDNode: hasId.
	RelViewID
	// RelListener is view ⇒ listener value: hasListener.
	RelListener
	// RelRoot is activity or dialog value ⇒ content root view: rootView.
	RelRoot
	// RelIntent is intent allocation ⇒ *ClassNode, the inter-component
	// extension's target class.
	RelIntent
	// RelMenuItem is menu ⇒ menu item, the menu extension.
	RelMenuItem
	// RelLayoutOf is inflated root ⇒ the *LayoutIDNode it was inflated
	// from.
	RelLayoutOf
	numRels
)

// Gen returns the relationship-edge generation counter; it changes whenever
// a relationship edge is added or removed. The solver's delta worklist reads
// it to re-apply operations after any relationship changed; nothing memoizes
// reachability against it.
func (g *Graph) Gen() int { return g.gen }

// Add records the pair src ⇒ dst in rel; it reports whether the pair is
// new.
func (g *Graph) Add(rel Rel, src, dst Value) bool { return g.update(rel, src, dst, true) }

// Remove deletes the pair src ⇒ dst from rel; it reports whether the pair
// was there. src keeps its place in the order Pairs visits, so a later Add
// appends to its list instead of listing src twice.
func (g *Graph) Remove(rel Rel, src, dst Value) bool { return g.update(rel, src, dst, false) }

// update adds or removes src ⇒ dst in rel, and when rel is RelChild
// dst ⇒ src in relParent too; a change bumps gen.
func (g *Graph) update(rel Rel, src, dst Value, add bool) bool {
	s, d := nodeID(src), nodeID(dst)
	if !g.edit(rel, s, d, add) {
		return false
	}
	if rel == RelChild {
		g.edit(relParent, d, s, add)
	}
	g.gen++
	return true
}

// edit adds or removes s ⇒ d in rel; it reports whether rel changed. Only
// an add gives s a list.
func (g *Graph) edit(rel Rel, s, d int32, add bool) bool {
	l := g.listOf(rel, s)
	if !add {
		return l != nil && l.dsts.Remove(d)
	}
	if l == nil {
		g.rels[rel] = slab.Push(g.rels[rel], relList{src: s})
		g.relIdx.set(s, rel, len(g.rels[rel]))
		l = &g.rels[rel][len(g.rels[rel])-1]
	}
	return l.dsts.Add(d)
}

// Has reports whether rel holds src ⇒ dst.
func (g *Graph) Has(rel Rel, src, dst Value) bool {
	l := g.listOf(rel, nodeID(src))
	return l != nil && l.dsts.Has(nodeID(dst))
}

// Succ returns src's successors in rel, in insertion order.
func (g *Graph) Succ(rel Rel, src Value) Values { return g.Values(g.succIDs(rel, nodeID(src))) }

// Parents returns the recorded parent views of child: RelChild read
// backward.
func (g *Graph) Parents(child Value) Values { return g.Succ(relParent, child) }

// Pairs calls visit with every pair src ⇒ dst of rel: sources in the order
// they were first added, each source's successors in insertion order.
func (g *Graph) Pairs(rel Rel, visit func(src, dst Value)) {
	for _, l := range g.rels[rel] {
		src := g.nodes[l.src].(Value)
		for _, d := range l.dsts.IDs() {
			visit(src, g.nodes[d].(Value))
		}
	}
}

// succIDs returns src's successors in rel; the slice is the list's own
// array.
func (g *Graph) succIDs(rel Rel, src int32) []int32 {
	if l := g.listOf(rel, src); l != nil {
		return l.dsts.IDs()
	}
	return nil
}

// relList is one source's successors in a relation. A relation holds one
// list per source, in the order the sources first appeared.
type relList struct {
	src  int32
	dsts IDList
}

// relIndex is the source index the graph's relations share: one int32 per
// node id for all of them, and one row of list positions per node that is
// the source of any relation, so each relation pays for its own sources
// only.
type relIndex struct {
	row  []int32          // node id -> 1 + its row, 0 when it is no relation's source
	rows [][numRels]int32 // per row, 1 + the source's list position in each relation, 0 for none
}

// set records that the source with node id has its list at position pos-1
// of rel (pos 0: no list).
func (x *relIndex) set(id int32, rel Rel, pos int) {
	x.row = slab.GrowTo(x.row, int(id)+1)
	r := x.row[id]
	if r == 0 {
		x.rows = slab.Push(x.rows, [numRels]int32{})
		r = int32(len(x.rows))
		x.row[id] = r
	}
	x.rows[r-1][rel] = int32(pos)
}

// listOf returns src's list in rel, or nil when src has none. The pointer
// is valid until rel next gains a source.
func (g *Graph) listOf(rel Rel, src int32) *relList {
	if int(src) >= len(g.relIdx.row) {
		return nil
	}
	if row := g.relIdx.row[src]; row != 0 {
		if pos := g.relIdx.rows[row-1][rel]; pos != 0 {
			return &g.rels[rel][pos-1]
		}
	}
	return nil
}

// dropSrcIf removes every pair of rel whose source satisfies dead,
// including the source's place in the visit order (safe: a dead source can
// never be re-added).
func (g *Graph) dropSrcIf(rel Rel, dead func(src int32) bool) {
	lists := g.rels[rel]
	kept := lists[:0]
	for _, l := range lists {
		if dead(l.src) {
			g.relIdx.set(l.src, rel, 0)
			continue
		}
		kept = append(kept, l)
		g.relIdx.set(l.src, rel, len(kept))
	}
	clear(lists[len(kept):])
	g.rels[rel] = kept
}

// compactRelations renumbers every relation by remap: retired sources
// leave the visit order, retired successors leave their lists, and the
// shared source index is rebuilt under the new ids. A live source keeps
// its list, even one Remove left empty.
func (g *Graph) compactRelations(remap []int32, numNodes int) {
	x := &g.relIdx
	clear(x.row)
	x.row = x.row[:min(len(x.row), numNodes)]
	x.rows = x.rows[:0]
	for rel, lists := range g.rels {
		kept := lists[:0]
		for _, l := range lists {
			src := remap[l.src]
			if src < 0 {
				continue
			}
			l.src = src
			l.dsts.Renumber(remap)
			kept = append(kept, l)
			x.set(src, Rel(rel), len(kept))
		}
		clear(lists[len(kept):])
		g.rels[rel] = kept
	}
}
