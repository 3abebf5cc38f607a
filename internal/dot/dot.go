// Package dot renders a solved constraint graph in Graphviz format,
// reproducing the visual structure of Figures 3 and 4 of the paper:
// variable/field/id/op nodes connected by value-flow edges, and view nodes
// connected by the relationship edges the solver inferred (parent-child,
// view ids, listeners, activity roots, layout provenance).
package dot

import (
	"fmt"
	"strings"

	"gator/internal/core"
	"gator/internal/graph"
)

// Options select which parts of the graph to render.
type Options struct {
	// Flow includes value-flow edges (Figure 3).
	Flow bool
	// Relations includes inferred relationship edges (Figure 4).
	Relations bool
	// PointsTo annotates variable nodes with their solutions.
	PointsTo bool
}

// Export renders the result's constraint graph.
func Export(res *core.Result, opts Options) string {
	var b strings.Builder
	b.WriteString("digraph gator {\n")
	b.WriteString("\trankdir=LR;\n\tnode [fontsize=10];\n")

	used := map[int]bool{}
	nodeID := func(n graph.Node) string { return fmt.Sprintf("n%d", n.ID()) }
	declare := func(n graph.Node) string {
		id := nodeID(n)
		if used[n.ID()] {
			return id
		}
		used[n.ID()] = true
		label := escape(n.String())
		shape, style := "ellipse", ""
		switch n.(type) {
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
		fmt.Fprintf(&b, "\t%s [label=%q shape=%s%s];\n", id, label, shape, style)
		return id
	}

	if opts.Flow {
		nodes := res.Graph.Nodes()
		for _, n := range nodes {
			dsts, _ := res.Graph.FlowSucc(n)
			for _, d := range dsts {
				fmt.Fprintf(&b, "\t%s -> %s;\n", declare(n), declare(nodes[d]))
			}
		}
		// Operation connections: inputs and outputs.
		for _, op := range res.Graph.Ops() {
			opID := declare(op)
			if op.Recv != nil {
				fmt.Fprintf(&b, "\t%s -> %s [label=\"recv\" style=dashed];\n", declare(op.Recv), opID)
			}
			for i, a := range op.Args {
				if a != nil {
					fmt.Fprintf(&b, "\t%s -> %s [label=\"arg%d\" style=dashed];\n", declare(a), opID, i)
				}
			}
			if op.Out != nil {
				fmt.Fprintf(&b, "\t%s -> %s [style=dashed];\n", opID, declare(op.Out))
			}
		}
	}

	if opts.Relations {
		res.Graph.Pairs(graph.RelChild, func(p, c graph.Value) {
			fmt.Fprintf(&b, "\t%s -> %s [label=\"child\" color=blue];\n", declare(p), declare(c))
		})
		for _, n := range res.Graph.Nodes() {
			v, ok := n.(graph.Value)
			if !ok {
				continue
			}
			ids := res.Graph.Succ(graph.RelViewID, v)
			for k := range ids.Len() {
				fmt.Fprintf(&b, "\t%s -> %s [label=\"id\" color=darkgreen];\n", declare(v), declare(ids.At(k)))
			}
			lids := res.Graph.Succ(graph.RelLayoutOf, v)
			for k := range lids.Len() {
				fmt.Fprintf(&b, "\t%s -> %s [label=\"layout\" color=darkgreen];\n", declare(v), declare(lids.At(k)))
			}
		}
		res.Graph.Pairs(graph.RelListener, func(view, lst graph.Value) {
			fmt.Fprintf(&b, "\t%s -> %s [label=\"listener\" color=red];\n", declare(view), declare(lst))
		})
		res.Graph.Pairs(graph.RelRoot, func(owner, root graph.Value) {
			fmt.Fprintf(&b, "\t%s -> %s [label=\"root\" color=purple];\n", declare(owner), declare(root))
		})
	}

	if opts.PointsTo {
		for _, n := range res.Graph.Nodes() {
			vn, ok := n.(*graph.VarNode)
			if !ok {
				continue
			}
			vs := res.PointsTo(vn)
			for k := range vs.Len() {
				v := vs.At(k)
				fmt.Fprintf(&b, "\t%s -> %s [label=\"pts\" color=gray style=dotted];\n", declare(v), declare(vn))
			}
		}
	}

	b.WriteString("}\n")
	return b.String()
}

func escape(s string) string {
	return strings.ReplaceAll(s, `"`, `\"`)
}
