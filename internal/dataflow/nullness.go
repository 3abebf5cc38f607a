package dataflow

import (
	"maps"

	"gator/internal/cfg"
	"gator/internal/ir"
)

// NullKind is one point of the per-variable nullness lattice:
//
//	   Unknown (may be either)
//	   /            \
//	Null          NonNull
//	   \            /
//	 (unreachable: no fact)
//
// The full fact is a map from variable to NullKind where a missing entry
// means Unknown and the nil map is the bottom (unreachable) element.
type NullKind uint8

const (
	// NullUnknown is the lattice top: the variable may or may not be null.
	NullUnknown NullKind = iota
	// Null means the variable is definitely null at this point.
	Null
	// NonNull means the variable definitely holds an object.
	NonNull
)

func (k NullKind) String() string {
	switch k {
	case Null:
		return "null"
	case NonNull:
		return "non-null"
	}
	return "unknown"
}

// NullVal is the per-variable fact: the lattice point plus, for Null, a
// human-readable reason used in diagnostics ("findViewById(R.id.x) at ...
// never finds a view").
type NullVal struct {
	K   NullKind
	Why string
}

// NullFact maps variables to their nullness. The nil map is bottom
// (unreachable); a missing key is NullUnknown.
type NullFact map[*ir.Var]NullVal

// Get returns the fact for v (NullUnknown when absent or unreachable).
func (f NullFact) Get(v *ir.Var) NullVal { return f[v] }

// Nullness is the flow-sensitive null-tracking instance. Seed classifies
// call results using the solved reference analysis: a find-view call whose
// static solution is empty is definitely null — this is what turns the
// flow-insensitive "dangling findViewById" call-site guess into precise
// dereference-site diagnostics.
type Nullness struct {
	// Seed returns the nullness of an invoke result, and whether the seed
	// applies. Invokes without a seed produce NullUnknown results.
	Seed func(s *ir.Invoke) (NullVal, bool)
}

// SolveNullness runs the nullness analysis over one CFG.
func SolveNullness(g *cfg.Graph, seed func(s *ir.Invoke) (NullVal, bool)) *Result[NullFact] {
	return Forward[NullFact](g, &Nullness{Seed: seed})
}

func (nl *Nullness) Bottom() NullFact { return nil }

func (nl *Nullness) Entry(g *cfg.Graph) NullFact {
	f := NullFact{}
	if t := g.Method.This; t != nil {
		f[t] = NullVal{K: NonNull}
	}
	return f
}

// Join is the pointwise lattice join; keys agreeing in both maps survive,
// everything else rises to Unknown (dropped). Bottom is the identity.
func (nl *Nullness) Join(a, b NullFact) NullFact {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := NullFact{}
	for v, av := range a {
		bv, ok := b[v]
		if !ok || av.K != bv.K {
			continue
		}
		// Same kind: keep, with the lexicographically smaller reason so
		// joins are order-independent.
		if bv.Why < av.Why {
			av.Why = bv.Why
		}
		out[v] = av
	}
	return out
}

// Copy clones f; bottom (nil) stays nil.
func (nl *Nullness) Copy(f NullFact) NullFact { return maps.Clone(f) }

func (nl *Nullness) Equal(a, b NullFact) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for v, av := range a {
		if bv, ok := b[v]; !ok || av != bv {
			return false
		}
	}
	return true
}

// set updates f in place: v takes val, or is cleared for NullUnknown.
func (f NullFact) set(v *ir.Var, val NullVal) {
	if val.K == NullUnknown {
		delete(f, v)
	} else {
		f[v] = val
	}
}

// Transfer updates in in place and returns it.
func (nl *Nullness) Transfer(s ir.Stmt, in NullFact) NullFact {
	if in == nil {
		return nil // unreachable stays unreachable
	}
	switch s := s.(type) {
	case *ir.ConstNull:
		in.set(s.Dst, NullVal{K: Null, Why: "null assigned at " + s.At.String()})
	case *ir.New:
		in.set(s.Dst, NullVal{K: NonNull})
	case *ir.ConstInt:
		in.set(s.Dst, NullVal{K: NonNull})
	case *ir.ConstRes:
		in.set(s.Dst, NullVal{K: NonNull})
	case *ir.ConstClass:
		in.set(s.Dst, NullVal{K: NonNull})
	case *ir.Copy:
		in.set(s.Dst, in.Get(s.Src))
	case *ir.Load:
		// Field contents are unknown; a completed load proves the base
		// was non-null.
		in.set(s.Dst, NullVal{})
		in.set(s.Base, NullVal{K: NonNull})
	case *ir.Store:
		in.set(s.Base, NullVal{K: NonNull})
	case *ir.Invoke:
		// A completed call proves the receiver non-null; the result takes
		// its seed from the reference analysis when one exists.
		in.set(s.Recv, NullVal{K: NonNull})
		if s.Dst != nil {
			val := NullVal{}
			if nl.Seed != nil {
				if sv, ok := nl.Seed(s); ok {
					val = sv
				}
			}
			in.set(s.Dst, val)
		}
	}
	return in
}

// Branch refines the fact along a null-test edge. An edge contradicting a
// definite fact is infeasible and yields bottom, which keeps downstream
// diagnostics quiet on paths that cannot execute. Unlike Transfer, it
// never updates out.
func (nl *Nullness) Branch(c ir.Cond, taken bool, out NullFact) NullFact {
	if out == nil || !nullTest(c) {
		return out
	}
	// "x == null" taken, or "x != null" not taken, means x is null here.
	isNull := taken != c.Negated
	cur := out.Get(c.X)
	if isNull {
		if cur.K == NonNull {
			return nil // infeasible edge
		}
		if cur.K == Null {
			return out
		}
		return out.with(c.X, NullVal{K: Null, Why: "tested == null"})
	}
	if cur.K == Null {
		return nil // infeasible edge
	}
	return out.with(c.X, NullVal{K: NonNull})
}

// nullTest reports whether c is a deterministic null test, the only
// condition Branch refines along.
func nullTest(c ir.Cond) bool { return !c.Nondet && c.X != nil }

// Introduces reports whether statement s, as ir.WalkStmts visits it, is
// one of the three places Null enters a method: Transfer assigns it at a
// ConstNull and at a call whose Seed is Null, and Branch at the edge of a
// deterministic null test where the tested variable is null, which an If
// or While carries. Entry, Join and every other case of Transfer and
// Branch only keep, copy or drop Null facts already present, so a method
// none of whose statements introduces Null holds no Null fact in any
// solved or replayed fact.
func (nl *Nullness) Introduces(s ir.Stmt) bool {
	switch s := s.(type) {
	case *ir.ConstNull:
		return true
	case *ir.If:
		return nullTest(s.Cond)
	case *ir.While:
		return nullTest(s.Cond)
	case *ir.Invoke:
		if s.Dst == nil || nl.Seed == nil {
			return false
		}
		v, ok := nl.Seed(s)
		return ok && v.K == Null
	}
	return false
}

// with returns a copy of f with v set: Branch's pure counterpart of set.
func (f NullFact) with(v *ir.Var, val NullVal) NullFact {
	out := maps.Clone(f)
	out.set(v, val)
	return out
}
