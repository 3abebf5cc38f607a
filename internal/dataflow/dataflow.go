// Package dataflow is a generic forward dataflow framework over the
// control-flow graphs of package cfg: a worklist solver parameterized by a
// join-semilattice of facts and a per-statement transfer function, with an
// optional branch-refinement hook for conditional edges.
//
// Two concrete instances ship with the framework: reaching definitions
// (reaching.go) and a nullness lattice seeded by the reference analysis
// (nullness.go). Client checkers layer additional instances on top (see
// internal/checks).
//
// Soundness over the flow-insensitive solution: the reference analysis
// computes, for every variable, an over-approximation of the values it may
// ever hold. A forward instance here only *orders* those facts along CFG
// paths; it never invents values the solution lacks, so a client that warns
// when a property holds on the over-approximated fact set inherits the
// solution's soundness argument (see DESIGN.md, "Flow-sensitive layer").
package dataflow

import (
	"gator/internal/cfg"
	"gator/internal/ir"
)

// Analysis defines one forward dataflow problem over fact type F.
//
// The solver treats Bottom as the identity of Join and the fact of
// unreachable code. Facts are updated in place: the solver copies a
// block's entry fact once, with Copy, and threads that copy through the
// block's statements, so Transfer may update its input and return it.
// Join and Branch must stay pure — they read the stored block-boundary
// facts (Result.In and Out), which nothing may mutate — but may return one
// of their inputs unchanged. Branch refines a block-exit fact along one
// conditional edge; an instance with no branch sensitivity returns out
// unchanged.
type Analysis[F any] interface {
	// Bottom is the identity fact: joined with anything it disappears, and
	// unreachable blocks keep it.
	Bottom() F
	// Entry is the fact holding at method entry.
	Entry(g *cfg.Graph) F
	// Join combines facts at control-flow merges.
	Join(a, b F) F
	// Equal decides fixpoint convergence.
	Equal(a, b F) bool
	// Copy returns a fact equal to f that Transfer may update without
	// changing f.
	Copy(f F) F
	// Transfer computes the fact after one atomic statement. It may update
	// in and return it.
	Transfer(s ir.Stmt, in F) F
	// Branch refines out along a conditional edge: taken is true for the
	// condition-true successor.
	Branch(c ir.Cond, taken bool, out F) F
}

// Result holds the solved block-boundary facts of one forward analysis.
type Result[F any] struct {
	Graph *cfg.Graph
	An    Analysis[F]
	// In and Out are the block-entry and block-exit facts, indexed by
	// Block.Index.
	In  []F
	Out []F
	// Visits counts block visits until fixpoint — the solver's convergence
	// cost, reported through the trace layer as a dataflow event.
	Visits int
}

// Forward solves a forward dataflow problem to fixpoint with a worklist,
// visiting blocks in index order (approximately reverse postorder for the
// structured CFGs package cfg builds), which keeps iteration counts low and
// results deterministic.
func Forward[F any](g *cfg.Graph, an Analysis[F]) *Result[F] {
	n := len(g.Blocks)
	res := &Result[F]{Graph: g, An: an, In: make([]F, n), Out: make([]F, n)}
	for i := 0; i < n; i++ {
		res.In[i] = an.Bottom()
		res.Out[i] = an.Bottom()
	}

	inWork := make([]bool, n)
	work := make([]int, 0, n)
	for i := 0; i < n; i++ {
		work = append(work, i)
		inWork[i] = true
	}
	for len(work) > 0 {
		// Pop the lowest-index block for deterministic near-RPO order.
		idx := work[0]
		work = work[1:]
		inWork[idx] = false
		blk := g.Blocks[idx]
		res.Visits++

		in := an.Bottom()
		if blk == g.Entry {
			in = an.Join(in, an.Entry(g))
		}
		for _, p := range blk.Preds {
			f := res.Out[p.Index]
			if p.Cond != nil {
				f = an.Branch(*p.Cond, p.Succs[0] == blk, f)
			}
			in = an.Join(in, f)
		}
		res.In[idx] = in

		out := in
		if len(blk.Stmts) > 0 {
			out = an.Copy(in)
			for _, s := range blk.Stmts {
				out = an.Transfer(s, out)
			}
		}
		if an.Equal(out, res.Out[idx]) {
			continue
		}
		res.Out[idx] = out
		for _, s := range blk.Succs {
			if !inWork[s.Index] {
				inWork[s.Index] = true
				work = append(work, s.Index)
			}
		}
	}
	return res
}

// VisitStmts replays the transfer function through every block in index
// order, calling f with the fact holding immediately *before* each
// statement. This is how checkers read per-statement facts without the
// solver having to store them. The fact passed to f is valid only during
// that call: the replay updates it in place for the next statement, so a
// callback that keeps it must Copy it.
func (r *Result[F]) VisitStmts(f func(b *cfg.Block, s ir.Stmt, before F)) {
	for _, b := range r.Graph.Blocks {
		if len(b.Stmts) == 0 {
			continue
		}
		fact := r.An.Copy(r.In[b.Index])
		for _, s := range b.Stmts {
			f(b, s, fact)
			fact = r.An.Transfer(s, fact)
		}
	}
}

// At replays the transfer function through the containing block and returns
// the fact holding immediately *before* one statement — the per-program-point
// reading of a block-boundary solution. The caller owns the returned fact.
// The second result is false when the statement is not part of the solved
// graph. Cost is one scan of the blocks plus one replay of the containing
// block's prefix; clients querying many points of one method should prefer
// VisitStmts.
func (r *Result[F]) At(target ir.Stmt) (F, bool) {
	for _, b := range r.Graph.Blocks {
		for i, s := range b.Stmts {
			if s != target {
				continue
			}
			fact := r.An.Copy(r.In[b.Index])
			for _, p := range b.Stmts[:i] {
				fact = r.An.Transfer(p, fact)
			}
			return fact, true
		}
	}
	var zero F
	return zero, false
}

// DefinedVar returns the variable a statement assigns, or nil: the def in
// "reaching definitions". It is ir.Def under the name dataflow clients use.
func DefinedVar(s ir.Stmt) *ir.Var { return ir.Def(s) }
