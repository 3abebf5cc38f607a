// Package dot renders a solved constraint graph in Graphviz format,
// reproducing the visual structure of Figures 3 and 4 of the paper:
// variable/field/id/op nodes connected by value-flow edges, and view nodes
// connected by the relationship edges the solver inferred (parent-child,
// view ids, listeners, activity roots, layout provenance).
package dot

import (
	"fmt"
	"sort"
	"strings"

	"gator/internal/core"
	"gator/internal/graph"
)

// edge is one rendered edge: its endpoints and its attribute list.
type edge struct {
	src, dst graph.Node
	attrs    string
}

// Export renders the result's constraint graph: the value-flow edges and
// operation connections (Figure 3) and the inferred relationship edges
// (Figure 4). Nodes are numbered at render time in the order of their
// names, and edges are sorted by the numbers of their endpoints, so the
// bytes do not depend on the graph ids that produced them: a warm
// incremental result renders as a cold run does. The graph id breaks a tie
// between equal names, which only context clones, the variables of
// overloaded methods and a method's synthesized operations can have.
func Export(res *core.Result) string {
	g := res.Graph
	nodes := g.Nodes()
	var edges []edge
	g.VisitFlow(func(src graph.Node, dsts, _ []int32) {
		for _, d := range dsts {
			edges = append(edges, edge{src, nodes[d], ""})
		}
	})
	for _, op := range g.Ops() {
		if op.Recv != nil {
			edges = append(edges, edge{op.Recv, op, ` [label="recv" style=dashed]`})
		}
		for i, a := range op.Args {
			if a != nil {
				edges = append(edges, edge{a, op, fmt.Sprintf(` [label="arg%d" style=dashed]`, i)})
			}
		}
		if op.Out != nil {
			edges = append(edges, edge{op, op.Out, ` [style=dashed]`})
		}
	}
	for _, r := range []struct {
		rel   graph.Rel
		attrs string
	}{
		{graph.RelChild, ` [label="child" color=blue]`},
		{graph.RelViewID, ` [label="id" color=darkgreen]`},
		{graph.RelLayoutOf, ` [label="layout" color=darkgreen]`},
		{graph.RelListener, ` [label="listener" color=red]`},
		{graph.RelRoot, ` [label="root" color=purple]`},
	} {
		g.Pairs(r.rel, func(src, dst graph.Value) { edges = append(edges, edge{src, dst, r.attrs}) })
	}

	// num maps a graph id to 1 + the node's rank by name (0: not drawn).
	num := make([]int, len(nodes))
	type named struct {
		n    graph.Node
		name string
	}
	var drawn []named
	for _, e := range edges {
		for _, n := range [2]graph.Node{e.src, e.dst} {
			if num[n.ID()] == 0 {
				num[n.ID()] = 1
				drawn = append(drawn, named{n, n.String()})
			}
		}
	}
	sort.Slice(drawn, func(i, j int) bool {
		if drawn[i].name != drawn[j].name {
			return drawn[i].name < drawn[j].name
		}
		return drawn[i].n.ID() < drawn[j].n.ID()
	})
	for rank, d := range drawn {
		num[d.n.ID()] = rank + 1
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if as, bs := num[a.src.ID()], num[b.src.ID()]; as != bs {
			return as < bs
		}
		if ad, bd := num[a.dst.ID()], num[b.dst.ID()]; ad != bd {
			return ad < bd
		}
		return a.attrs < b.attrs
	})

	var b strings.Builder
	b.WriteString("digraph gator {\n")
	b.WriteString("\trankdir=LR;\n\tnode [fontsize=10];\n")
	for rank, d := range drawn {
		shape, style := "ellipse", ""
		switch d.n.(type) {
		case *graph.OpNode:
			shape = "box"
			style = ` style=rounded`
		case *graph.InflNode, *graph.AllocNode:
			shape = "box"
			style = ` style=filled fillcolor=lightgray`
		case *graph.ActivityNode:
			shape = "hexagon"
		case *graph.LayoutIDNode, *graph.ViewIDNode, *graph.StringIDNode:
			shape = "diamond"
		}
		fmt.Fprintf(&b, "\tn%d [label=%q shape=%s%s];\n", rank, escape(d.name), shape, style)
	}
	for _, e := range edges {
		fmt.Fprintf(&b, "\tn%d -> n%d%s;\n", num[e.src.ID()]-1, num[e.dst.ID()]-1, e.attrs)
	}
	b.WriteString("}\n")
	return b.String()
}

func escape(s string) string {
	return strings.ReplaceAll(s, `"`, `\"`)
}
