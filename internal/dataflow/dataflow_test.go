package dataflow

import (
	"slices"
	"testing"

	"gator/internal/alite"
	"gator/internal/cfg"
	"gator/internal/ir"
	"gator/internal/layout"
)

func buildCFG(t *testing.T, src, class, name string) *cfg.Graph {
	t.Helper()
	f, err := alite.Parse("test.alite", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Build([]*alite.File{f}, map[string]*layout.Layout{})
	if err != nil {
		t.Fatal(err)
	}
	c := p.Class(class)
	if c == nil {
		t.Fatalf("no class %s", class)
	}
	for _, m := range c.MethodsSorted() {
		if m.Name == name && m.Body != nil {
			return cfg.Build(m)
		}
	}
	t.Fatalf("no method %s.%s", class, name)
	return nil
}

func localVar(g *cfg.Graph, name string) *ir.Var {
	for _, v := range g.Method.Locals {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// factAt returns the fact immediately before the first statement matching
// pred, replayed through the solved result. It copies the fact: the replay
// updates the one it passes in place once the callback returns.
func factAt[F any](res *Result[F], pred func(ir.Stmt) bool) (F, bool) {
	var out F
	found := false
	res.VisitStmts(func(b *cfg.Block, s ir.Stmt, before F) {
		if !found && pred(s) {
			out = res.An.Copy(before)
			found = true
		}
	})
	return out, found
}

func TestBits(t *testing.T) {
	var b Bits
	if b.Get(3) {
		t.Error("empty set has members")
	}
	b = b.With(3).With(70)
	if !b.Get(3) || !b.Get(70) || b.Get(4) {
		t.Errorf("membership wrong: %v", b.Ones())
	}
	c := slices.Clone(b)
	c.Remove(Bits{}.With(3))
	if c.Get(3) || !c.Get(70) {
		t.Errorf("remove wrong: %v", c.Ones())
	}
	if !b.Get(3) {
		t.Error("remove changed the set it was copied from")
	}
	var d Bits
	d.Add(130)
	d.Add(2)
	if got := d.Ones(); len(got) != 2 || got[0] != 2 || got[1] != 130 {
		t.Errorf("add wrong: %v", got)
	}
	u := c.Union(Bits{}.With(1))
	if got := u.Ones(); len(got) != 2 || got[0] != 1 || got[1] != 70 {
		t.Errorf("union wrong: %v", got)
	}
	if !b.Equal(Bits{}.With(70).With(3)) {
		t.Error("equal wrong")
	}
	// Trailing zero words are insignificant.
	if !(Bits{1, 0, 0}).Equal(Bits{1}) {
		t.Error("trailing zeros significant")
	}
}

func TestReachingDefsBranch(t *testing.T) {
	g := buildCFG(t, `
class A extends Activity {
	void onCreate() {
		Button b = new Button();
		if (*) {
			b = new Button();
		}
		Button c = b;
	}
}`, "A", "onCreate")
	rd := NewReachingDefs(g)
	b := localVar(g, "b")

	// At the final copy, both defs of b (initial + branch) may reach.
	fact, ok := factAt(rd.Result(), func(s ir.Stmt) bool {
		cp, isCopy := s.(*ir.Copy)
		return isCopy && cp.Src == b
	})
	if !ok {
		t.Fatal("no copy of b found")
	}
	defs := rd.Defs(fact, b)
	if len(defs) != 2 {
		t.Fatalf("reaching defs of b = %d, want 2\n%s", len(defs), g.Dump())
	}
}

func TestReachingDefsKill(t *testing.T) {
	g := buildCFG(t, `
class A extends Activity {
	void onCreate() {
		Button b = new Button();
		b = new Button();
		Button c = b;
	}
}`, "A", "onCreate")
	rd := NewReachingDefs(g)
	b := localVar(g, "b")
	fact, ok := factAt(rd.Result(), func(s ir.Stmt) bool {
		cp, isCopy := s.(*ir.Copy)
		return isCopy && cp.Src == b
	})
	if !ok {
		t.Fatal("no copy of b found")
	}
	// The second assignment kills the first.
	if defs := rd.Defs(fact, b); len(defs) != 1 {
		t.Fatalf("reaching defs of b = %d, want 1", len(defs))
	}
}

func TestReachingDefsLoop(t *testing.T) {
	g := buildCFG(t, `
class A extends Activity {
	void onCreate() {
		Button b = new Button();
		while (*) {
			b = new Button();
		}
		Button c = b;
	}
}`, "A", "onCreate")
	rd := NewReachingDefs(g)
	b := localVar(g, "b")
	fact, ok := factAt(rd.Result(), func(s ir.Stmt) bool {
		cp, isCopy := s.(*ir.Copy)
		return isCopy && cp.Src == b
	})
	if !ok {
		t.Fatal("no copy of b found")
	}
	// Zero or more iterations: both defs reach the loop exit.
	if defs := rd.Defs(fact, b); len(defs) != 2 {
		t.Fatalf("reaching defs of b = %d, want 2", len(defs))
	}
}

func TestReachingDefsEntryValue(t *testing.T) {
	g := buildCFG(t, `
class A extends Activity {
	void reg(Button p) {
		if (*) {
			p = new Button();
		}
		Button c = p;
	}
}`, "A", "reg")
	rd := NewReachingDefs(g)
	p := localVar(g, "p")
	fact, ok := factAt(rd.Result(), func(s ir.Stmt) bool {
		cp, isCopy := s.(*ir.Copy)
		return isCopy && cp.Src == p
	})
	if !ok {
		t.Fatal("no copy of p found")
	}
	// One explicit def reaches the merge, and the parameter may still hold
	// its caller-supplied entry value along the untaken branch.
	if defs := rd.Defs(fact, p); len(defs) != 1 {
		t.Fatalf("reaching defs of p = %d, want 1", len(defs))
	}
	if !rd.EntryReaches(fact, p) {
		t.Error("entry value does not reach the merge")
	}
}

func TestReachingDefsEntryValueKilled(t *testing.T) {
	g := buildCFG(t, `
class A extends Activity {
	void reg(Button p) {
		p = new Button();
		Button c = p;
	}
}`, "A", "reg")
	rd := NewReachingDefs(g)
	p := localVar(g, "p")
	fact, ok := factAt(rd.Result(), func(s ir.Stmt) bool {
		cp, isCopy := s.(*ir.Copy)
		return isCopy && cp.Src == p
	})
	if !ok {
		t.Fatal("no copy of p found")
	}
	if rd.EntryReaches(fact, p) {
		t.Error("entry value survives an unconditional redefinition")
	}
}

func TestNullnessStraightLine(t *testing.T) {
	g := buildCFG(t, `
class A extends Activity {
	void onCreate() {
		Button b = null;
		Button c = new Button();
		Button d = b;
	}
}`, "A", "onCreate")
	res := SolveNullness(g, nil)
	out := res.Out[g.Exit.Index]
	if got := out.Get(localVar(g, "b")); got.K != Null {
		t.Errorf("b = %v, want null", got)
	}
	if got := out.Get(localVar(g, "c")); got.K != NonNull {
		t.Errorf("c = %v, want non-null", got)
	}
	if got := out.Get(localVar(g, "d")); got.K != Null {
		t.Errorf("d (copy of null) = %v, want null", got)
	}
	if got := out.Get(g.Method.This); got.K != NonNull {
		t.Errorf("this = %v, want non-null", got)
	}
}

func TestNullnessJoin(t *testing.T) {
	g := buildCFG(t, `
class A extends Activity {
	void onCreate() {
		Button b = null;
		if (*) {
			b = new Button();
		}
		Button c = b;
	}
}`, "A", "onCreate")
	res := SolveNullness(g, nil)
	// After the join b may be either: unknown.
	if got := res.Out[g.Exit.Index].Get(localVar(g, "b")); got.K != NullUnknown {
		t.Errorf("b after join = %v, want unknown", got)
	}
}

func TestNullnessBranchRefinement(t *testing.T) {
	g := buildCFG(t, `
class A extends Activity {
	void onCreate() {
		Button b = new Button();
		View c = b.findViewById(R.id.x);
		if (c == null) {
			View d = c;
		} else {
			View e = c;
		}
	}
}`, "A", "onCreate")
	res := SolveNullness(g, nil)
	c := localVar(g, "c")
	thenFact, ok := factAt(res, func(s ir.Stmt) bool {
		cp, isCopy := s.(*ir.Copy)
		return isCopy && cp.Dst == localVar(g, "d")
	})
	if !ok {
		t.Fatal("then-branch copy not found")
	}
	if got := thenFact.Get(c); got.K != Null {
		t.Errorf("c in then branch = %v, want null", got)
	}
	elseFact, _ := factAt(res, func(s ir.Stmt) bool {
		cp, isCopy := s.(*ir.Copy)
		return isCopy && cp.Dst == localVar(g, "e")
	})
	if got := elseFact.Get(c); got.K != NonNull {
		t.Errorf("c in else branch = %v, want non-null", got)
	}
}

func TestNullnessInfeasibleEdge(t *testing.T) {
	g := buildCFG(t, `
class A extends Activity {
	void onCreate() {
		Button b = new Button();
		if (b == null) {
			Button d = b;
		}
	}
}`, "A", "onCreate")
	res := SolveNullness(g, nil)
	// b is definitely non-null, so the then branch is infeasible: its
	// entry fact must be bottom (nil).
	thenBlk := g.Entry.Succs[0]
	if res.In[thenBlk.Index] != nil {
		t.Errorf("infeasible branch has fact %v", res.In[thenBlk.Index])
	}
}

func TestNullnessSeededInvoke(t *testing.T) {
	g := buildCFG(t, `
class A extends Activity {
	void onCreate() {
		View v = this.findViewById(R.id.gone);
		View w = v;
	}
}`, "A", "onCreate")
	seed := func(s *ir.Invoke) (NullVal, bool) {
		if s.Dst != nil && s.Dst.Name == "v" {
			return NullVal{K: Null, Why: "findViewById(R.id.gone) never finds a view"}, true
		}
		return NullVal{}, false
	}
	res := SolveNullness(g, seed)
	out := res.Out[g.Exit.Index]
	if got := out.Get(localVar(g, "v")); got.K != Null {
		t.Errorf("seeded v = %v, want null", got)
	}
	if got := out.Get(localVar(g, "w")); got.K != Null || got.Why == "" {
		t.Errorf("copy w = %v, want null with reason", got)
	}
}

func TestNullnessDerefProvesNonNull(t *testing.T) {
	g := buildCFG(t, `
class A extends Activity {
	void onCreate() {
		View v = this.findViewById(R.id.x);
		v.setId(R.id.y);
		View w = v;
	}
}`, "A", "onCreate")
	res := SolveNullness(g, nil)
	// After the call through v, v is proven non-null.
	if got := res.Out[g.Exit.Index].Get(localVar(g, "v")); got.K != NonNull {
		t.Errorf("v after deref = %v, want non-null", got)
	}
}

func TestNullnessLoopFixpoint(t *testing.T) {
	g := buildCFG(t, `
class A extends Activity {
	void onCreate() {
		Button b = new Button();
		while (*) {
			b = null;
		}
		Button c = b;
	}
}`, "A", "onCreate")
	res := SolveNullness(g, nil)
	// Around the loop b can be either: unknown at exit.
	if got := res.Out[g.Exit.Index].Get(localVar(g, "b")); got.K != NullUnknown {
		t.Errorf("b after loop = %v, want unknown", got)
	}
}
