// Package core implements the paper's contribution: the constraint-based,
// flow- and context-insensitive, field-based reference analysis for Android
// GUI objects. It builds the constraint graph from a resolved ir.Program
// (Section 4.1), then runs a fixed-point computation over the inference
// rules of Section 4.2, modeling layout inflation, view operations, and
// platform callbacks.
package core

import (
	"fmt"
	"strings"

	"gator/internal/graph"
	"gator/internal/ir"
	"gator/internal/platform"
	"gator/internal/trace"
)

// CtxMode selects the context-sensitive solving mode (see DESIGN.md,
// "Context sensitivity"). The zero value is the paper's context-insensitive
// analysis.
type CtxMode int

const (
	// CtxOff is the context-insensitive baseline.
	CtxOff CtxMode = iota
	// Ctx1CFA clones small callees per call site; contexts are labeled
	// with the call-site source position.
	Ctx1CFA
)

// String renders the mode the way the -ctx CLI flag spells it.
func (m CtxMode) String() string {
	if m == Ctx1CFA {
		return "1cfa"
	}
	return "off"
}

// ParseCtxMode parses a -ctx flag value: "" or a mode's String. The error
// names every mode, so the CLIs and the server report it as is.
func ParseCtxMode(s string) (CtxMode, error) {
	if s == "" {
		return CtxOff, nil
	}
	var names []string
	for _, m := range []CtxMode{CtxOff, Ctx1CFA} {
		if s == m.String() {
			return m, nil
		}
		names = append(names, m.String())
	}
	return CtxOff, fmt.Errorf("unknown context mode %q (known: %s)", s, strings.Join(names, ", "))
}

// Options configure analysis variants. The zero value is the configuration
// evaluated in the paper; the other settings exist for the ablation
// benchmarks called out in DESIGN.md.
type Options struct {
	// FilterCasts drops values that cannot satisfy a cast's target type
	// when they flow through a cast edge. The paper's analysis does not
	// filter; enabling this is a precision refinement.
	FilterCasts bool

	// SharedInflation shares one set of inflated view nodes per layout
	// instead of materializing a fresh set per inflation site (the paper's
	// choice is per-site, i.e. SharedInflation=false).
	SharedInflation bool

	// NoFindView3Refinement disables the child-only refinement of
	// FindView3 operations such as getCurrentView, treating them as
	// returning any descendant (the paper's implementation refines).
	NoFindView3Refinement bool

	// DeclaredDispatchOnly resolves calls to the statically found target
	// only, instead of class-hierarchy analysis over all subtypes.
	DeclaredDispatchOnly bool

	// ContextSensitivity selects bounded (depth-1) context sensitivity:
	// small non-recursive application methods get per-context clones of
	// their variables, operations, and allocation sites, one context per
	// call site (Ctx1CFA). Contexts carry interned human-readable labels
	// that renderers and derivation trees show. Ctx1CFA is the refinement
	// the paper's case study identifies as the fix for the XBMC receiver
	// imprecision.
	ContextSensitivity CtxMode

	// Incremental records per-fact unit-dependency bitmasks (which source
	// files and layouts each derivation touched), enabling AnalyzeIncremental
	// to retract and re-derive only the facts an edit can affect. Masks are
	// paged bitsets, so applications of any unit count are tracked.
	Incremental bool

	// Provenance records the derivation DAG: every derived fact keeps its
	// inference rule and premise facts, queryable through Result.Why and
	// RenderDerivation. Off by default — recording costs memory
	// proportional to the number of derived facts.
	Provenance bool

	// ReferenceSolver forces the original solver schedule: map-walking flow
	// propagation and an apply-every-operation round structure. It computes
	// exactly what the default CSR engine computes — the differential
	// harness (differential_test.go) holds every optimized configuration
	// byte-identical to it — and exists as that baseline, not for use.
	ReferenceSolver bool

	// Trace receives solver events: build/solve stage boundaries,
	// per-iteration worklist sizes, and per-rule firing counts. A nil
	// scope disables tracing with no overhead (see internal/trace).
	Trace *trace.Scope
}

// Result is the computed analysis solution.
type Result struct {
	Prog  *ir.Program
	Graph *graph.Graph
	Opts  Options

	pts *ptsTable
	rec *recorder

	// dep and units carry the unit-dependency state for incremental
	// re-solving (Options.Incremental); warm carries the reusable solver
	// working state AnalyzeIncremental resumes in place. All nil when
	// tracking was disabled.
	dep   *depTracker
	units *unitTable
	warm  *warmState

	// Iterations counts outer fixpoint rounds (flow propagation followed by
	// operation processing) until quiescence.
	Iterations int

	// Stages is the stage log of this solve: build and solve, or retract,
	// rebuild and solve on the warm incremental path.
	Stages trace.Log

	// Incr describes how this result was computed when it came from
	// AnalyzeIncremental; zero for plain Analyze runs.
	Incr IncrementalStats
}

// Explain reconstructs how value v reached node n: the chain of nodes the
// value flowed through, from its origin (an initial seed or the operation
// node that produced it) to n. Returns nil when v does not reach n.
func (r *Result) Explain(n graph.Node, v graph.Value) []graph.Node {
	if s := r.pts.of(n); s == nil || !s.Contains(v) {
		return nil
	}
	chain := []graph.Node{n}
	seen := map[int]bool{n.ID(): true}
	cur := n
	for {
		s := r.pts.of(cur)
		if s == nil {
			break
		}
		prev := s.Origin(v)
		if prev == nil {
			break
		}
		if _, isOp := prev.(*graph.OpNode); isOp {
			chain = append(chain, prev)
			break
		}
		if seen[prev.ID()] {
			break
		}
		seen[prev.ID()] = true
		chain = append(chain, prev)
		cur = prev
	}
	// Reverse: origin first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// PointsTo returns the abstract values that may flow to a graph node
// (variable or field node). The slice is shared; do not modify.
func (r *Result) PointsTo(n graph.Node) []graph.Value {
	if s := r.pts.of(n); s != nil {
		return s.Values()
	}
	return nil
}

// VarPointsTo returns the abstract values of an IR variable, projected
// across cloning contexts: the union, in first-encounter order, over every
// context variant of the variable's node. Context-insensitive runs have a
// single variant, so this is the plain lookup.
func (r *Result) VarPointsTo(v *ir.Var) []graph.Value {
	if len(r.Graph.VarContextClones(v)) == 0 {
		// Never cloned (always, context-insensitively): plain lookup, no
		// projection slice to build.
		return r.PointsTo(r.Graph.VarNode(v))
	}
	var out []graph.Value
	seen := map[graph.Value]bool{}
	for _, n := range r.Graph.ContextVarNodes(v) {
		for _, val := range r.PointsTo(n) {
			if !seen[val] {
				seen[val] = true
				out = append(out, val)
			}
		}
	}
	return out
}

// VarNodesOf returns every context variant of v's node, base (context-0)
// node first — the projection index renderers and derivation queries use
// under context-sensitive modes.
func (r *Result) VarNodesOf(v *ir.Var) []*graph.VarNode {
	return r.Graph.ContextVarNodes(v)
}

// FieldPointsTo returns the abstract values of a field (field-based: one
// summary per field signature).
func (r *Result) FieldPointsTo(f *ir.Field) []graph.Value {
	return r.PointsTo(r.Graph.FieldNode(f))
}

// OpReceivers returns the values reaching an operation's receiver.
func (r *Result) OpReceivers(op *graph.OpNode) []graph.Value {
	if op.Recv == nil {
		return nil
	}
	return r.PointsTo(op.Recv)
}

// OpArg returns the values reaching an operation's i-th argument.
func (r *Result) OpArg(op *graph.OpNode, i int) []graph.Value {
	if i >= len(op.Args) || op.Args[i] == nil {
		return nil
	}
	return r.PointsTo(op.Args[i])
}

// OpResults returns the values flowing out of an operation.
func (r *Result) OpResults(op *graph.OpNode) []graph.Value {
	if op.Out == nil {
		return nil
	}
	return r.PointsTo(op.Out)
}

// Transition is one inter-component control-flow edge: the receiver
// activity (or dialog) of a startActivity operation launches the target
// activity class, from within Via.
type Transition struct {
	// Source is the launching activity/dialog class.
	Source *ir.Class
	// Target is the launched activity class.
	Target *ir.Class
	// Via is the method containing the startActivity call.
	Via *ir.Method
}

// Transitions derives the activity transition graph from the solution
// (the inter-component model that Section 6 of the paper motivates).
func (r *Result) Transitions() []Transition {
	var out []Transition
	seen := map[Transition]bool{}
	for _, op := range r.Graph.Ops() {
		if op.Kind != platform.OpStartActivity || len(op.Args) == 0 {
			continue
		}
		for _, src := range r.OpReceivers(op) {
			var srcClass *ir.Class
			switch s := src.(type) {
			case *graph.ActivityNode:
				srcClass = s.Class
			case *graph.AllocNode:
				if s.IsDialog {
					srcClass = s.Class
				}
			}
			if srcClass == nil {
				continue
			}
			for _, intent := range r.PointsTo(op.Args[0]) {
				for _, target := range r.Graph.IntentTargets(intent) {
					tr := Transition{Source: srcClass, Target: target.Class, Via: op.Method}
					if !seen[tr] {
						seen[tr] = true
						out = append(out, tr)
					}
				}
			}
		}
	}
	return out
}

// Analyze runs the full analysis on a resolved program.
func Analyze(p *ir.Program, opts Options) *Result {
	a := newAnalysis(p, opts)
	stages := make(trace.Log, 0, 2)
	a.tr.Stage(&stages, trace.StageBuild, a.buildGraph)
	a.tr.Stage(&stages, trace.StageSolve, a.solve)
	return &Result{
		Prog:       p,
		Graph:      a.g,
		Opts:       opts,
		pts:        a.pts,
		rec:        a.rec,
		dep:        a.dep,
		units:      a.units,
		warm:       a.warmState(),
		Iterations: a.iterations,
		Stages:     stages,
	}
}
