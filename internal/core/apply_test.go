package core

import (
	"testing"

	"gator/internal/corpus"
)

// TestApplyOpsZeroAlloc is the allocation contract of the operation rules:
// once an app is solved, re-applying every operation derives nothing and
// allocates nothing. The rules walk the points-to sets' ids in place and
// test each value's kind where they read it, instead of copying a filtered
// slice per application; with dependency tracking on, a rule that re-reads
// a layout's unit builds no string to look it up.
func TestApplyOpsZeroAlloc(t *testing.T) {
	sources, layouts := corpus.ModularChainApp(60, 18)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"incremental", Options{Incremental: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newAnalysis(buildMaps(t, sources, layouts), tc.opts)
			a.buildGraph()
			a.solve()
			ops := a.g.Ops()
			if len(ops) < 1000 {
				t.Fatalf("ModularChainApp(60,18) has %d operations; want a chain app's worth", len(ops))
			}
			nodes, edges := len(a.g.Nodes()), a.g.NumFlowEdges()
			var changed []string
			allocs := testing.AllocsPerRun(10, func() {
				for _, op := range ops {
					if a.applyOp(op) {
						changed = append(changed, op.String())
					}
				}
			})
			if len(changed) > 0 || len(a.worklist) > 0 || len(a.g.Nodes()) != nodes || a.g.NumFlowEdges() != edges {
				t.Fatalf("re-applying the operations of a solved app derived something: changed %v, %d queued", changed, len(a.worklist))
			}
			if allocs != 0 {
				t.Errorf("re-applying %d operations allocates %v times, want 0", len(ops), allocs)
			}
		})
	}
}
