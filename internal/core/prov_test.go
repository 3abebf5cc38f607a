package core

import (
	"strings"
	"testing"

	"gator/internal/corpus"
	"gator/internal/graph"
	"gator/internal/ir"
	"gator/internal/trace"
)

// TestProvenanceFindView verifies the tentpole query: "why does view v flow
// to x?" for an op-produced fact. The derivation tree's root names the paper
// rule that fired, and every premise chain bottoms out in Seed facts.
func TestProvenanceFindView(t *testing.T) {
	r := analyzeFigure1(t, Options{Provenance: true})
	if !r.HasProvenance() {
		t.Fatal("provenance not recorded")
	}
	g := r.Graph.VarNode(localVar(t, r, "ConsoleActivity", "onCreate()", "g"))
	vals := r.PointsTo(g).Slice()
	if len(vals) != 1 {
		t.Fatalf("pts(g) = %v", valueNames(vals))
	}
	f, ok := r.FlowFactOf(g, vals[0])
	if !ok {
		t.Fatal("FlowFactOf: fact absent")
	}
	root := r.Why(f)
	if root == nil {
		t.Fatal("Why returned nil for a derived fact")
	}
	// g is assigned from the findViewById output: the chain is Flow steps
	// back to a FindView-rule conclusion.
	sawFindView := false
	sawSeed := false
	var walk func(n *DerivNode)
	walk = func(n *DerivNode) {
		if strings.HasPrefix(n.Rule, "FindView") {
			sawFindView = true
		}
		if n.Rule == "Seed" {
			sawSeed = true
		}
		if n.Rule == "?" {
			t.Errorf("premise without derivation: %s", r.FactString(n.Fact))
		}
		if !n.Repeat && len(n.Premises) == 0 && n.Rule != "Seed" {
			t.Errorf("non-seed leaf %s derived by %s", r.FactString(n.Fact), n.Rule)
		}
		for _, p := range n.Premises {
			walk(p)
		}
	}
	walk(root)
	if !sawFindView {
		t.Errorf("derivation of %s never applies a FindView rule:\n%s",
			r.FactString(f), r.RenderDerivation(f))
	}
	if !sawSeed {
		t.Errorf("derivation of %s never reaches a Seed fact:\n%s",
			r.FactString(f), r.RenderDerivation(f))
	}
	// The rendering names the rule at each node.
	text := r.RenderDerivation(f)
	if !strings.Contains(text, "[FindView") || !strings.Contains(text, "[Seed]") {
		t.Errorf("rendering misses rule names:\n%s", text)
	}
}

// TestProvenanceRelationshipFacts: the recorded DAG covers relationship
// facts (ancestorOf, hasId, rootView), not just points-to facts, and the
// FindView premises cite them.
func TestProvenanceRelationshipFacts(t *testing.T) {
	src := `
class Main extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		View b = this.findViewById(R.id.go);
	}
}`
	layouts := map[string]string{
		"main": `<LinearLayout><Button android:id="@+id/go"/></LinearLayout>`,
	}
	r := analyzeSrc(t, src, layouts, Options{Provenance: true})
	b := r.Graph.VarNode(localVar(t, r, "Main", "onCreate()", "b"))
	vals := r.PointsTo(b).Slice()
	if len(vals) != 1 {
		t.Fatalf("pts(b) = %v", valueNames(vals))
	}
	f, _ := r.FlowFactOf(b, vals[0])
	text := r.RenderDerivation(f)
	for _, want := range []string{"[FindView2]", "rootView(", "ancestorOf(", "hasId(", "[Seed]"} {
		if !strings.Contains(text, want) {
			t.Errorf("derivation misses %q:\n%s", want, text)
		}
	}
	// hasId facts are queryable by resource name.
	idFacts := r.ViewIDFacts("go")
	if len(idFacts) != 1 {
		t.Fatalf("ViewIDFacts(go) = %v", idFacts)
	}
	if r.Why(idFacts[0]) == nil {
		t.Error("hasId fact has no derivation")
	}
	if r.ViewIDFacts("missing") != nil {
		t.Error("ViewIDFacts of unknown id should be nil")
	}
}

// TestProvenanceWellFounded: every premise of every recorded fact has its
// own recorded derivation, so Why always expands to Seed leaves.
func TestProvenanceWellFounded(t *testing.T) {
	r := analyzeFigure1(t, Options{Provenance: true})
	if r.NumDerivations() == 0 {
		t.Fatal("no derivations recorded")
	}
	for f, d := range r.rec.deriv {
		for _, p := range d.Premises {
			if _, ok := r.rec.deriv[p]; !ok {
				t.Errorf("fact %s (rule %s) has unrecorded premise %s",
					r.FactString(f), d.Rule, r.FactString(p))
			}
		}
	}
}

// TestProvenanceCoversSolution: every fact in the final points-to solution
// has a derivation — nothing enters the solution unexplained.
func TestProvenanceCoversSolution(t *testing.T) {
	r := analyzeFigure1(t, Options{Provenance: true})
	for _, n := range r.Graph.Nodes() {
		for _, v := range r.PointsTo(n).Slice() {
			if _, ok := r.rec.deriv[flowFact(n, v)]; !ok {
				t.Errorf("flowsTo(%s, %s) has no recorded derivation", n, v)
			}
		}
	}
}

// TestProvenanceDeterministic: fact ids and rendered trees are identical
// across independent runs — the stability contract that makes the DAG a
// substrate for incremental solving.
func TestProvenanceDeterministic(t *testing.T) {
	render := func() (int, string) {
		r := analyzeFigure1(t, Options{Provenance: true})
		g := r.Graph.VarNode(localVar(t, r, "ConsoleActivity", "onCreate()", "g"))
		vals := r.PointsTo(g).Slice()
		if len(vals) != 1 {
			t.Fatalf("pts(g) = %v", valueNames(vals))
		}
		f, _ := r.FlowFactOf(g, vals[0])
		return r.NumDerivations(), r.RenderDerivation(f)
	}
	n1, t1 := render()
	n2, t2 := render()
	if n1 != n2 {
		t.Errorf("derivation counts differ across runs: %d vs %d", n1, n2)
	}
	if t1 != t2 {
		t.Errorf("rendered trees differ across runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", t1, t2)
	}
}

// TestProvenanceDisabled: without Options.Provenance the query API reports
// cleanly empty results.
func TestProvenanceDisabled(t *testing.T) {
	r := analyzeFigure1(t, Options{})
	if r.HasProvenance() {
		t.Error("HasProvenance without Options.Provenance")
	}
	if r.NumDerivations() != 0 {
		t.Error("NumDerivations != 0 without provenance")
	}
	g := r.Graph.VarNode(localVar(t, r, "ConsoleActivity", "onCreate()", "g"))
	vals := r.PointsTo(g).Slice()
	if len(vals) != 1 {
		t.Fatalf("pts(g) = %v", valueNames(vals))
	}
	f, ok := r.FlowFactOf(g, vals[0])
	if !ok {
		t.Fatal("FlowFactOf should report facts that hold even without provenance")
	}
	if r.Why(f) != nil {
		t.Error("Why != nil without provenance")
	}
	if r.RenderDerivation(f) != "" {
		t.Error("RenderDerivation != \"\" without provenance")
	}
}

// TestProvenanceSameSolution: recording provenance must not change the
// computed solution.
func TestProvenanceSameSolution(t *testing.T) {
	plain := analyzeFigure1(t, Options{})
	prov := analyzeFigure1(t, Options{Provenance: true})
	if plain.pts.size() != prov.pts.size() {
		t.Fatalf("pts sizes differ: %d vs %d", plain.pts.size(), prov.pts.size())
	}
	for _, n := range plain.Graph.Nodes() {
		// Node identities differ across runs; compare by id through the
		// other graph's node list.
		other := prov.Graph.Nodes()[n.ID()]
		if plain.PointsTo(n).Len() != prov.PointsTo(other).Len() {
			t.Errorf("pts(%s) differs with provenance enabled", n)
		}
	}
	if plain.Iterations != prov.Iterations {
		t.Errorf("iteration counts differ: %d vs %d", plain.Iterations, prov.Iterations)
	}
}

// TestSolverTraceEvents: a traced analysis emits balanced build/solve phases
// and per-round iteration events with rule firings named after the paper's
// rules.
func TestSolverTraceEvents(t *testing.T) {
	sink := &trace.Collect{}
	tr := trace.New(sink)
	scope := tr.Scope("figure1", 0)
	r := analyzeFigure1(t, Options{Trace: scope})

	evs := sink.Events()
	phases := map[string]int{}
	iterations := 0
	rules := map[string]int64{}
	for _, ev := range evs {
		switch ev.Kind {
		case trace.KindPhaseBegin:
			phases[ev.Name]++
		case trace.KindPhaseEnd:
			phases[ev.Name]--
		case trace.KindIteration:
			iterations++
		case trace.KindRule:
			rules[ev.Name] += ev.N
		}
		if ev.App != "figure1" {
			t.Errorf("event app = %q", ev.App)
		}
	}
	for _, phase := range []string{"build", "solve"} {
		if phases[phase] != 0 {
			t.Errorf("unbalanced %s phase events: %d", phase, phases[phase])
		}
	}
	if iterations != r.Iterations {
		t.Errorf("iteration events = %d, solver iterations = %d", iterations, r.Iterations)
	}
	if len(rules) == 0 {
		t.Error("no rule events emitted")
	}
	for name := range rules {
		if name != "OnClick" && !knownRuleName(name) {
			t.Errorf("rule event with unknown name %q", name)
		}
	}
}

func knownRuleName(name string) bool {
	for _, r := range []string{
		"Inflate1", "Inflate2", "AddView1", "AddView2", "SetId", "SetListener",
		"FindView1", "FindView2", "FindView3", "SetIntentTarget", "FindParent",
		"MenuAdd", "SetAdapter",
	} {
		if name == r {
			return true
		}
	}
	return false
}

// TestTracingDisabledZeroAlloc is the overhead contract of the
// instrumentation layer: with tracing and provenance disabled (nil scope,
// nil recorder), every emission path the solver executes is an
// allocation-free no-op, and the stage hook only appends to its pre-sized
// log.
func TestTracingDisabledZeroAlloc(t *testing.T) {
	var s *trace.Scope
	stages := make(trace.Log, 0, 2)
	allocs := testing.AllocsPerRun(1000, func() {
		// Exactly the calls solve() and Analyze() make per round / firing.
		stages = stages[:0]
		s.Stage(&stages, trace.StageBuild, func() {})
		s.Stage(&stages, trace.StageSolve, func() {
			s.Iteration(3, 128)
			s.Rule("FindView2", 1)
			s.Rule("Inflate2", 1)
		})
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %v allocs/op, want 0", allocs)
	}
	if len(stages) != 2 || stages[1].Stage != trace.StageSolve {
		t.Errorf("stage log = %+v, want build then solve", stages)
	}
}

// BenchmarkSolveTracingDisabled measures the default (untraced) analysis of
// the Figure 1 program. Its guard re-asserts the zero-allocation contract of
// the disabled instrumentation paths before timing, so a regression fails
// the benchmark rather than silently skewing it.
func BenchmarkSolveTracingDisabled(b *testing.B) {
	var s *trace.Scope
	stages := make(trace.Log, 0, 1)
	if allocs := testing.AllocsPerRun(1000, func() {
		stages = stages[:0]
		s.Stage(&stages, trace.StageSolve, func() {
			s.Iteration(1, 1)
			s.Rule("FindView2", 1)
		})
	}); allocs != 0 {
		b.Fatalf("disabled tracing allocates %v allocs/op, want 0", allocs)
	}
	p, err := ir.Build(corpus.Figure1Files(), corpus.Figure1Layouts())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Analyze(p, Options{})
	}
}

// BenchmarkSolveProvenance measures the same analysis with the derivation
// DAG recorded, to keep the provenance overhead visible.
func BenchmarkSolveProvenance(b *testing.B) {
	p, err := ir.Build(corpus.Figure1Files(), corpus.Figure1Layouts())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Analyze(p, Options{Provenance: true})
	}
}

// TestProvenanceFlowChain: a pure data-flow chain (no GUI op) renders as
// Flow steps ending in the allocation seed.
func TestProvenanceFlowChain(t *testing.T) {
	src := `
class A extends Activity {
	View keep;
	void onCreate() {
		LinearLayout x = new LinearLayout();
		View y = x;
		this.keep = y;
	}
	void later() {
		View z = this.keep;
	}
}`
	r := analyzeSrc(t, src, nil, Options{Provenance: true})
	z := r.Graph.VarNode(localVar(t, r, "A", "later()", "z"))
	vals := r.PointsTo(z).Slice()
	if len(vals) != 1 {
		t.Fatalf("pts(z) = %v", valueNames(vals))
	}
	f, _ := r.FlowFactOf(z, vals[0])
	text := r.RenderDerivation(f)
	if !strings.Contains(text, "[Flow]") || !strings.Contains(text, "[Seed]") {
		t.Errorf("flow chain derivation:\n%s", text)
	}
	// Depth: z <- field <- y <- x(seed): at least three Flow nodes above the
	// seed.
	if strings.Count(text, "[Flow]") < 3 {
		t.Errorf("expected >=3 Flow steps:\n%s", text)
	}
}

// TestFactKindNames pins the name of every fact kind: derivation trees
// print them, and a relationship kind is its graph.Rel.
func TestFactKindNames(t *testing.T) {
	for _, c := range []struct {
		kind FactKind
		rel  graph.Rel
		want string
	}{
		{FactFlow, 0, "flowsTo"},
		{FactChild, graph.RelChild, "ancestorOf"},
		{FactViewID, graph.RelViewID, "hasId"},
		{FactListener, graph.RelListener, "hasListener"},
		{FactRoot, graph.RelRoot, "rootView"},
		{FactIntent, graph.RelIntent, "intentTarget"},
		{FactMenuItem, graph.RelMenuItem, "menuItem"},
	} {
		if got := c.kind.String(); got != c.want || FactKind(c.rel) != c.kind {
			t.Errorf("kind %d (rel %d) is named %q, want %q", c.kind, c.rel, got, c.want)
		}
	}
}
