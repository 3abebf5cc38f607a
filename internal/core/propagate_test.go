package core

import (
	"testing"

	"gator/internal/corpus"
	"gator/internal/graph"
	"gator/internal/ir"
)

// TestPropagateZeroAlloc is the allocation contract of flow propagation:
// once a corpus app is solved, re-pushing every points-to value and
// draining the worklist visits each flow edge out of a node that holds
// values, with its label, derives nothing, and allocates nothing —
// propagation reads the graph's successor lists, with their labels, and the
// label table in place.
func TestPropagateZeroAlloc(t *testing.T) {
	spec, ok := corpus.SpecByName("XBMC")
	if !ok {
		t.Fatal("corpus has no XBMC app")
	}
	app := corpus.Generate(spec)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"incremental-casts", Options{Incremental: true, FilterCasts: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newAnalysis(buildMaps(t, app.BatchSources(), app.LayoutXML()), tc.opts)
			a.buildGraph()
			a.solve()
			var items []propItem
			for _, n := range a.g.Nodes() {
				for _, v := range a.ptsIDs(n) {
					items = append(items, propItem{int32(n.ID()), v})
				}
			}
			guarded := 0
			a.g.VisitFlow(func(_ graph.Node, _, labels []int32) {
				for _, l := range labels {
					if a.labels.slots[l].callee != nil {
						guarded++
					}
				}
			})
			if len(items) == 0 || a.g.NumFlowEdges() == 0 || guarded == 0 {
				t.Fatalf("%d values, %d flow edges, %d dispatch-guarded: want all nonzero", len(items), a.g.NumFlowEdges(), guarded)
			}
			facts := len(items)
			allocs := testing.AllocsPerRun(20, func() {
				a.worklist = append(a.worklist[:0], items...)
				a.propagate()
			})
			if allocs != 0 {
				t.Errorf("re-propagating %d values allocates %v times, want 0", len(items), allocs)
			}
			got := 0
			for _, n := range a.g.Nodes() {
				got += len(a.ptsIDs(n))
			}
			if got != facts || len(a.worklist) != 0 {
				t.Errorf("re-propagation changed the solution: %d facts and %d queued, had %d facts", got, len(a.worklist), facts)
			}
		})
	}
}

// TestEdgeLabelMerge: re-adding a flow edge merges its label field by
// field. More units are ORed in, a dispatch guard or cast filter already on
// the edge stays whatever the re-add carries, the edge itself is not
// duplicated, and a cast is recorded only under FilterCasts.
func TestEdgeLabelMerge(t *testing.T) {
	p, err := ir.Build(corpus.Figure1Files(), corpus.Figure1Layouts())
	if err != nil {
		t.Fatal(err)
	}
	var callee *ir.Method
	var local *ir.Var
	for _, c := range p.AppClasses() {
		for _, m := range c.MethodsSorted() {
			if callee == nil && m.This != nil && m.Body != nil {
				callee = m
			}
			for _, v := range m.Locals {
				if local == nil && v != m.This {
					local = v
				}
			}
		}
	}
	if callee == nil || local == nil {
		t.Fatal("Figure 1 has no method with a receiver and a local")
	}
	button, view := p.Class("Button"), p.Class("View")
	if button == nil || view == nil {
		t.Fatal("no Button or View class")
	}
	u1, u2 := unitBits{lo: 1}, unitBits{lo: 2}

	a := newAnalysis(p, Options{Incremental: true, FilterCasts: true})
	label := func(a *analysis, src, dst graph.Node) edgeLabel {
		return a.labels.slots[*a.g.FlowLabel(src, dst)]
	}
	recv, this := a.g.VarNode(local), a.g.VarNode(callee.This)
	a.addDispatchFlow(recv, callee, u1)
	a.addFlow(recv, this, u2)
	a.addEdge(recv, this, edgeLabel{callee: &ir.Method{}})
	if l := label(a, recv, this); l.callee != callee || l.units.lo != 3 || l.units.hi != nil {
		t.Errorf("dispatch edge re-added: label %+v, want callee %s and units 0b11", l, callee.Key)
	}

	src, dst := a.g.VarNode(callee.This), a.g.VarNode(local)
	a.addCastFlow(src, dst, button, u1)
	a.addCastFlow(src, dst, view, u2)
	a.addFlow(src, dst, u2)
	if l := label(a, src, dst); l.cast != button || l.callee != nil || l.units.lo != 3 || l.units.hi != nil {
		t.Errorf("cast edge re-added: label %+v, want cast Button and units 0b11", l)
	}
	if n := a.g.NumFlowEdges(); n != 2 {
		t.Errorf("%d flow edges after re-adding two edges, want 2", n)
	}
	if n := len(a.labels.slots); n != 3 {
		t.Errorf("%d label slots for two labeled edges, want 3 (slot 0 is the empty label)", n)
	}

	plain := newAnalysis(p, Options{})
	src, dst = plain.g.VarNode(callee.This), plain.g.VarNode(local)
	plain.addCastFlow(src, dst, button, plain.unitOf(callee))
	if dsts, labels := plain.g.FlowSucc(src); len(dsts) != 1 || dsts[0] != int32(dst.ID()) || labels != nil {
		t.Errorf("cast edge without FilterCasts or Incremental: successors %v labeled %v, want one unlabeled edge to %v", dsts, labels, dst)
	}
	if n := len(plain.labels.slots); n != 1 {
		t.Errorf("%d label slots with no labeled edge, want 1", n)
	}
}
