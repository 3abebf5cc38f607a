package dataflow

import (
	"slices"

	"gator/internal/cfg"
	"gator/internal/ir"
)

// ReachingDefs is the classic reaching-definitions instance: at each program
// point, the set of assignments that may be the most recent writer of each
// variable along some path.
type ReachingDefs struct {
	g *cfg.Graph
	// defs indexes every defining statement of the method, in block order.
	defs []ir.Stmt
	// index maps a defining statement back to its bit.
	index map[ir.Stmt]int
	// kills maps each variable to the set of its defining statements.
	kills map[*ir.Var]Bits
	// entryBit assigns each defined variable a synthetic entry-definition
	// bit, numbered after the real definitions: set at method entry and
	// killed by every real definition of the variable. It lets clients
	// see that v may still hold its method-entry value (for parameters
	// and the receiver, the caller-supplied binding) at a point that
	// explicit definitions also reach — a variable redefined on only some
	// paths is not fully described by its defs at the merge.
	entryBit map[*ir.Var]int
	// entryAll is the method-entry fact: every synthetic bit set.
	entryAll Bits

	res *Result[Bits]
}

// NewReachingDefs solves reaching definitions over one CFG.
func NewReachingDefs(g *cfg.Graph) *ReachingDefs {
	rd := &ReachingDefs{
		g:     g,
		index: map[ir.Stmt]int{},
		kills: map[*ir.Var]Bits{},
	}
	for _, b := range g.Blocks {
		for _, s := range b.Stmts {
			if v := DefinedVar(s); v != nil {
				i := len(rd.defs)
				rd.defs = append(rd.defs, s)
				rd.index[s] = i
				rd.kills[v] = rd.kills[v].With(i)
			}
		}
	}
	rd.entryBit = map[*ir.Var]int{}
	for _, s := range rd.defs {
		v := DefinedVar(s)
		if _, ok := rd.entryBit[v]; ok {
			continue
		}
		i := len(rd.defs) + len(rd.entryBit)
		rd.entryBit[v] = i
		rd.kills[v] = rd.kills[v].With(i)
		rd.entryAll = rd.entryAll.With(i)
	}
	rd.res = Forward[Bits](g, rdAnalysis{rd})
	return rd
}

// Result exposes the solved block-boundary facts.
func (rd *ReachingDefs) Result() *Result[Bits] { return rd.res }

// Defs decodes a fact into the statements it contains, restricted to
// definitions of v (pass nil for all variables), in source order.
// Synthetic entry definitions are skipped; see EntryReaches.
func (rd *ReachingDefs) Defs(fact Bits, v *ir.Var) []ir.Stmt {
	var out []ir.Stmt
	for _, i := range fact.Ones() {
		if i >= len(rd.defs) {
			continue // synthetic entry definition
		}
		s := rd.defs[i]
		if v == nil || DefinedVar(s) == v {
			out = append(out, s)
		}
	}
	return out
}

// EntryReaches reports whether v may still hold its method-entry value in
// fact — for parameters and the receiver, the caller-supplied binding. A
// variable with no definition in the method trivially does.
func (rd *ReachingDefs) EntryReaches(fact Bits, v *ir.Var) bool {
	bit, ok := rd.entryBit[v]
	if !ok {
		return true
	}
	return fact.Get(bit)
}

// rdAnalysis adapts ReachingDefs to the framework: a may (union) analysis
// with gen = {s} and kill = all other defs of the same variable.
type rdAnalysis struct{ rd *ReachingDefs }

func (a rdAnalysis) Bottom() Bits                                { return nil }
func (a rdAnalysis) Entry(g *cfg.Graph) Bits                     { return a.rd.entryAll }
func (a rdAnalysis) Join(x, y Bits) Bits                         { return x.Union(y) }
func (a rdAnalysis) Equal(x, y Bits) bool                        { return x.Equal(y) }
func (a rdAnalysis) Copy(x Bits) Bits                            { return slices.Clone(x) }
func (a rdAnalysis) Branch(c ir.Cond, taken bool, out Bits) Bits { return out }

func (a rdAnalysis) Transfer(s ir.Stmt, in Bits) Bits {
	v := DefinedVar(s)
	if v == nil {
		return in
	}
	in.Remove(a.rd.kills[v])
	in.Add(a.rd.index[s])
	return in
}
