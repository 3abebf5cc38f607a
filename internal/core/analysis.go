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

// MarshalText renders the mode as its String, so JSON carries "off" or
// "1cfa" (gatord's options.contextSensitivity).
func (m CtxMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses the mode with ParseCtxMode; an unknown mode is an
// error naming the known ones.
func (m *CtxMode) UnmarshalText(b []byte) error {
	mode, err := ParseCtxMode(string(b))
	if err == nil {
		*m = mode
	}
	return err
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

	// ReferenceSolver selects the apply-every-operation schedule: every
	// round re-applies every operation rule instead of only those the delta
	// worklist marks (delta.go). Flow propagation is the same. It computes
	// exactly what the default schedule computes — the differential harness
	// (differential_test.go) holds every configuration byte-identical to it
	// — and exists as that baseline, not for use.
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

// PointsTo returns the abstract values that may flow to a graph node
// (variable or field node): a view of its points-to set that resolves each
// value on access and allocates nothing.
func (r *Result) PointsTo(n graph.Node) graph.Values {
	if n == nil {
		return graph.Values{}
	}
	return r.Graph.Values(r.pts.ids(n.ID()))
}

// VarPointsTo returns the abstract values of an IR variable, projected
// across cloning contexts: the union, in first-encounter order, over every
// context variant of the variable's node. Context-insensitive runs have a
// single variant, so this is the plain lookup.
func (r *Result) VarPointsTo(v *ir.Var) graph.Values {
	if len(r.Graph.VarContextClones(v)) == 0 {
		// Never cloned (always, context-insensitively): plain lookup, no
		// projection slice to build.
		return r.PointsTo(r.Graph.VarNode(v))
	}
	var out []int32
	seen := map[int32]bool{}
	for _, n := range r.Graph.ContextVarNodes(v) {
		for _, id := range r.pts.ids(n.ID()) {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return r.Graph.Values(out)
}

// VarNodesOf returns every context variant of v's node, base (context-0)
// node first — the projection index renderers and derivation queries use
// under context-sensitive modes.
func (r *Result) VarNodesOf(v *ir.Var) []*graph.VarNode {
	return r.Graph.ContextVarNodes(v)
}

// FieldPointsTo returns the abstract values of a field (field-based: one
// summary per field signature).
func (r *Result) FieldPointsTo(f *ir.Field) graph.Values {
	return r.PointsTo(r.Graph.FieldNode(f))
}

// OpReceivers returns the values reaching an operation's receiver.
func (r *Result) OpReceivers(op *graph.OpNode) graph.Values {
	if op.Recv == nil {
		return graph.Values{}
	}
	return r.PointsTo(op.Recv)
}

// OpArg returns the values reaching an operation's i-th argument.
func (r *Result) OpArg(op *graph.OpNode, i int) graph.Values {
	if i >= len(op.Args) || op.Args[i] == nil {
		return graph.Values{}
	}
	return r.PointsTo(op.Args[i])
}

// OpResults returns the values flowing out of an operation.
func (r *Result) OpResults(op *graph.OpNode) graph.Values {
	if op.Out == nil {
		return graph.Values{}
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
		srcs := r.OpReceivers(op)
		for k := range srcs.Len() {
			src := srcs.At(k)
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
			intents := r.PointsTo(op.Args[0])
			for j := range intents.Len() {
				intent := intents.At(j)
				targets := r.Graph.IntentTargets(intent)
				for t := range targets.Len() {
					target := targets.At(t).(*graph.ClassNode)
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
