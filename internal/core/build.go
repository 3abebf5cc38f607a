package core

import (
	"gator/internal/alite"
	"gator/internal/graph"
	"gator/internal/ir"
	"gator/internal/platform"
	"gator/internal/trace"
)

// analysis carries the mutable state shared by graph construction and the
// fixpoint solver.
type analysis struct {
	prog *ir.Program
	opts Options
	g    *graph.Graph

	// pts holds the per-node points-to sets, indexed densely by node id.
	pts *ptsTable

	// worklist holds (node, value) propagation frontier entries.
	worklist []propItem

	// edges labels the flow edges that carry more than their endpoints,
	// keyed by edgeKey(src, dst): a dispatch guard, a cast filter, or the
	// rule-site units the edge depends on (see edgeLabel). Propagation reads
	// it once per edge visit; an unlabeled edge has no entry.
	edges map[uint64]edgeLabel

	// returnVars caches the reference-typed return variables per method.
	returnVars map[*ir.Method][]*ir.Var

	// chaCache memoizes CHA target sets per (declared class, key).
	chaCache map[chaKey][]*ir.Method

	// inflations records materialized layout instantiations, keyed by
	// (op id, layout name) — or just layout name under SharedInflation.
	inflations map[inflationKey]*inflation

	// rootInflation locates the materialization a root InflNode came from,
	// for declarative onClick binding when the root gets an owner.
	rootInflation map[*graph.InflNode]*inflation

	// boundOnClick tracks already-bound (owner, inflation) pairs.
	boundOnClick map[onClickKey]bool

	// walk enumerates the view hierarchies the FindView rules search; its
	// buffer and marks are reused across every walk of the solve.
	walk graph.Walker

	// curSub, when non-nil, redirects variable-node lookups for the method
	// currently being cloned (ContextSensitivity). Context ids are
	// interned by the graph (InternContext) from their labels.
	curSub *cloneSub
	// cloneableCache memoizes the cloneability decision.
	cloneableCache map[*ir.Method]bool
	// builtClones marks (callee, ctx) bodies already materialized, so an
	// interned context walks each body exactly once.
	builtClones map[cloneKey]bool

	// rec, when non-nil, accumulates the derivation DAG (Options.Provenance).
	rec *recorder
	// tr is the trace scope for solver events; nil-safe (Options.Trace).
	tr *trace.Scope

	// units assigns each source file and layout a bit; dep tracks per-fact
	// unit-dependency masks (Options.Incremental; see deps.go). tracking is
	// true when either the dep tracker or the provenance recorder is live.
	units    *unitTable
	dep      *depTracker
	tracking bool

	// methodUnits/classUnits record, per method body and per class's seed
	// pass, the units of every foreign method the construction read (callee
	// return variables, constructor bodies, inherited lifecycle callbacks) in
	// addition to its own unit. Incremental rebuild re-runs buildMethod /
	// buildClassSeeds exactly when this mask intersects the dirty set.
	// curUnits, while a build pass runs, points at the accumulator mention()
	// feeds.
	methodUnits map[*ir.Method]unitBits
	classUnits  map[*ir.Class]unitBits
	curUnits    *unitBits

	// Per-solve delta worklist state (see delta.go): the watcher index
	// (watchStart, watchOps), opDirty, opAlways and opLastGen decide which
	// operations a round re-applies. All nil under Options.ReferenceSolver,
	// which applies every operation every round.
	watchStart []int32
	watchOps   []int32
	opDirty    []bool
	opAlways   []bool
	opLastGen  []int

	iterations int
}

type cloneSub struct {
	method *ir.Method
	ctx    int
}

type cloneKey struct {
	method *ir.Method
	ctx    int
}

// varNode resolves a variable to its graph node, honoring the active
// cloning substitution.
func (a *analysis) varNode(v *ir.Var) *graph.VarNode {
	if a.curSub != nil && v.Method == a.curSub.method {
		return a.g.VarNodeCtx(v, a.curSub.ctx)
	}
	return a.g.VarNode(v)
}

type propItem struct {
	node graph.Node
	val  graph.Value
}

type chaKey struct {
	class *ir.Class
	key   string
}

// edgeLabel is what propagation knows about one flow edge beyond its
// endpoints. callee guards a receiver-to-this edge: only values whose
// dynamic class dispatches callee.Key to callee pass. cast is a cast edge's
// target class, recorded only under Options.FilterCasts. units are the
// rule-site compilation units the edge depends on, recorded only under
// Options.Incremental; facts propagated across the edge inherit them.
type edgeLabel struct {
	callee *ir.Method
	cast   *ir.Class
	units  unitBits
}

// isZero reports a label that carries nothing, which needs no entry.
func (l edgeLabel) isZero() bool { return l.callee == nil && l.cast == nil && l.units.isZero() }

// merge folds o into l field by field: a guard already set stays, and the
// units are ORed, so re-adding an edge never loses what it carried.
func (l edgeLabel) merge(o edgeLabel) edgeLabel {
	if l.callee == nil {
		l.callee = o.callee
	}
	if l.cast == nil {
		l.cast = o.cast
	}
	l.units = l.units.or(o.units)
	return l
}

// inflationKey identifies one materialized layout instantiation: the
// inflating operation's id and the layout name. op stays 0 under
// SharedInflation, where one instantiation serves every site.
type inflationKey struct {
	op     int
	layout string
}

type inflation struct {
	root *graph.InflNode
	all  []*graph.InflNode
}

type onClickKey struct {
	owner graph.Value
	infl  *inflation
}

func newAnalysis(p *ir.Program, opts Options) *analysis {
	a := &analysis{
		prog:           p,
		opts:           opts,
		g:              graph.New(),
		pts:            &ptsTable{},
		edges:          map[uint64]edgeLabel{},
		returnVars:     map[*ir.Method][]*ir.Var{},
		chaCache:       map[chaKey][]*ir.Method{},
		inflations:     map[inflationKey]*inflation{},
		rootInflation:  map[*graph.InflNode]*inflation{},
		boundOnClick:   map[onClickKey]bool{},
		cloneableCache: map[*ir.Method]bool{},
		builtClones:    map[cloneKey]bool{},
		tr:             opts.Trace,
	}
	if opts.Provenance {
		a.rec = newRecorder()
	}
	if opts.Incremental {
		a.units = newUnitTable(p)
		a.dep = newDepTracker()
		a.methodUnits = map[*ir.Method]unitBits{}
		a.classUnits = map[*ir.Class]unitBits{}
	}
	a.tracking = a.rec != nil || a.dep != nil
	return a
}

// mention returns the unit mask of m like unitOf and, when a build pass is
// accumulating its read set, folds it into the pass's mask. Every place graph
// construction reads a method other than the one being built must resolve its
// unit through mention, so incremental rebuild knows to re-run the pass when
// that method's file changes.
func (a *analysis) mention(m *ir.Method) unitBits {
	u := a.unitOf(m)
	if a.curUnits != nil {
		*a.curUnits = a.curUnits.or(u)
	}
	return u
}

// seed adds a value to a node's points-to set and schedules propagation.
// units are the compilation units the seed's existence depends on.
func (a *analysis) seed(n graph.Node, v graph.Value, units unitBits) {
	if a.seedChecked(n, v) && a.tracking {
		// A direct seed outside any rule application: an initial fact.
		a.record(flowFact(n, v), "Seed", units)
	}
}

// addFlow records a value-flow edge. units are the compilation units the
// edge's existence depends on; facts propagated across it inherit them.
func (a *analysis) addFlow(src, dst graph.Node, units unitBits) {
	a.addEdge(src, dst, edgeLabel{units: units})
}

// addDispatchFlow records a receiver-to-this edge guarded by dynamic
// dispatch: only values whose class resolves callee.Key to callee pass
// through.
func (a *analysis) addDispatchFlow(recv *graph.VarNode, callee *ir.Method, units unitBits) {
	a.addEdge(recv, a.varNode(callee.This), edgeLabel{callee: callee, units: units})
}

// addCastFlow records a value-flow edge through a cast.
func (a *analysis) addCastFlow(src, dst graph.Node, to *ir.Class, units unitBits) {
	a.addEdge(src, dst, edgeLabel{cast: to, units: units})
}

// edgeKey packs a flow edge's node ids into one edges key. A uint64 key
// takes the map's fast 64-bit path where a [2]int takes the generic hash;
// node ids stay below 2^32.
func edgeKey(src, dst int) uint64 { return uint64(uint32(src))<<32 | uint64(uint32(dst)) }

// addEdge records a flow edge and merges l into its label. A cast target
// is kept only under FilterCasts, the one option that reads it; units are
// zero unless Options.Incremental assigned units.
func (a *analysis) addEdge(src, dst graph.Node, l edgeLabel) {
	if !a.opts.FilterCasts {
		l.cast = nil
	}
	if !l.isZero() {
		k := edgeKey(src.ID(), dst.ID())
		a.edges[k] = a.edges[k].merge(l)
	}
	if a.g.AddFlow(src, dst) {
		// Replay already-known values across the new edge.
		if s := a.pts.of(src); s != nil {
			for _, v := range s.Values() {
				a.worklist = append(a.worklist, propItem{src, v})
			}
		}
	}
}

// buildGraph creates the statement-derived part of the constraint graph:
// everything in Figure 3 of the paper, plus call, callback, and listener
// edges.
func (a *analysis) buildGraph() {
	p := a.prog

	// Implicitly created activity instances and their lifecycle callbacks.
	for _, c := range p.AppClasses() {
		a.buildClassSeeds(c)
	}

	// Statement-derived nodes and edges.
	for _, c := range p.AppClasses() {
		for _, m := range c.MethodsSorted() {
			a.buildMethod(m)
		}
	}
}

// buildClassSeeds seeds the platform-created facts of one class: the
// implicit activity instance flowing into its lifecycle and options-menu
// callbacks. Idempotent — incremental rebuild re-runs it against the
// retained graph, where seed and node creation deduplicate.
func (a *analysis) buildClassSeeds(c *ir.Class) {
	p := a.prog
	if c.IsInterface || !p.IsActivityClass(c) {
		return
	}
	// Lifecycle seeds depend on the activity's declaring file (the class
	// exists and dispatches there) and on the callback's declaring file
	// (the body may be inherited from another file).
	cu := unitBits{}
	if a.units != nil {
		cu = a.units.bit(c.Pos.File)
	}
	if a.dep != nil {
		acc := cu
		a.curUnits = &acc
		defer func() {
			a.curUnits = nil
			a.classUnits[c] = acc
		}()
	}
	act := a.g.ActivityNode(c)
	act.IsListener = p.IsListenerClass(c)
	for _, name := range platform.Lifecycle {
		m := c.Dispatch(ir.MethodKey(name, nil))
		if m != nil && m.Body != nil {
			a.seed(a.varNode(m.This), act, cu.or(a.mention(m)))
		}
	}
	// Options-menu callbacks: the platform passes the activity's menu
	// to onCreateOptionsMenu; items reach onOptionsItemSelected when
	// MenuAdd operations are processed.
	if m := c.Dispatch(platform.MenuCreateCallback + "(R)"); m != nil && m.Body != nil && len(m.Params) == 1 {
		mu := cu.or(a.mention(m))
		a.seed(a.varNode(m.This), act, mu)
		a.seed(a.varNode(m.Params[0]), a.g.MenuNode(c), mu)
	}
	if m := c.Dispatch(platform.MenuSelectCallback + "(R)"); m != nil && m.Body != nil && len(m.Params) == 1 {
		a.seed(a.varNode(m.This), act, cu.or(a.mention(m)))
	}
	// Managed-dialog callback: the platform invokes onCreateDialog(int) on
	// the activity; the dialogs it allocates get their own lifecycle seeds
	// at the allocation sites (see buildStmt).
	if m := c.Dispatch(platform.DialogCreateCallback + "(I)"); m != nil && m.Body != nil {
		a.seed(a.varNode(m.This), act, cu.or(a.mention(m)))
	}
}

// buildMethod lowers one method body into graph nodes, edges, and seeds.
// Idempotent against a retained graph, like buildClassSeeds.
func (a *analysis) buildMethod(m *ir.Method) {
	if m.Body == nil {
		return
	}
	if a.dep != nil {
		acc := a.unitOf(m)
		a.curUnits = &acc
		defer func() {
			a.curUnits = nil
			a.methodUnits[m] = acc
		}()
	}
	ir.WalkStmts(m.Body, func(s ir.Stmt) { a.buildStmt(m, s) })
}

func (a *analysis) buildStmt(m *ir.Method, s ir.Stmt) {
	p := a.prog
	// Statement-derived facts and edges depend on the file declaring the
	// enclosing method's body.
	mu := a.unitOf(m)
	switch s := s.(type) {
	case *ir.New:
		alloc := a.g.NewAllocNode(s, m,
			p.IsViewClass(s.Class),
			p.IsListenerClass(s.Class),
			p.IsDialogClass(s.Class))
		a.seed(a.varNode(s.Dst), alloc, mu)
		// Constructor call: arguments and receiver flow into the ctor.
		if s.Ctor != nil && s.Ctor.Body != nil {
			a.seed(a.varNode(s.Ctor.This), alloc, mu.or(a.mention(s.Ctor)))
			for i, arg := range s.Args {
				if i < len(s.Ctor.Params) {
					a.addFlow(a.varNode(arg), a.varNode(s.Ctor.Params[i]), mu)
				}
			}
		}
		// Modeled platform constructors with operation semantics
		// (e.g. new Intent(C.class) is a set-intent-target on the fresh
		// allocation).
		if s.Ctor != nil && s.Ctor.API != nil && s.Ctor.API.Kind == platform.OpSetIntentTarget && len(s.Args) > 0 {
			op := a.g.NewOpNode(platform.OpSetIntentTarget, nil, m)
			op.Recv = a.varNode(s.Dst)
			op.Args = []*graph.VarNode{a.varNode(s.Args[0])}
		}
		// Explicitly created dialogs receive lifecycle callbacks like
		// activities do.
		if alloc.IsDialog {
			for _, name := range platform.DialogLifecycle {
				lm := s.Class.Dispatch(ir.MethodKey(name, nil))
				if lm != nil && lm.Body != nil {
					a.seed(a.varNode(lm.This), alloc, mu.or(a.mention(lm)))
				}
			}
		}

	case *ir.Copy:
		a.addCastFlow(a.varNode(s.Src), a.varNode(s.Dst), s.CastTo, mu)

	case *ir.Load:
		a.addFlow(a.g.FieldNode(s.Field), a.varNode(s.Dst), mu)

	case *ir.Store:
		a.addFlow(a.varNode(s.Src), a.g.FieldNode(s.Field), mu)

	case *ir.ConstRes:
		switch {
		case s.Layout:
			a.seed(a.varNode(s.Dst), a.g.LayoutIDNode(s.ID, s.Name), mu)
		case s.Str:
			a.seed(a.varNode(s.Dst), a.g.StringIDNode(s.ID, s.Name), mu)
		default:
			a.seed(a.varNode(s.Dst), a.g.ViewIDNode(s.ID, s.Name), mu)
		}

	case *ir.ConstClass:
		a.seed(a.varNode(s.Dst), a.g.ClassNode(s.Class), mu)

	case *ir.Invoke:
		a.buildInvoke(m, s)

	case *ir.Return:
		// Handled via returnVars when call edges are added.
	}
}

func (a *analysis) buildInvoke(m *ir.Method, s *ir.Invoke) {
	if s.Target == nil {
		return // opaque platform call
	}
	if api := s.Target.API; api != nil {
		a.buildOp(m, s, api)
		return
	}
	// Ordinary call: edges to every possible callee. Dispatch and argument
	// edges depend only on the caller's file (callee signatures are shape);
	// return edges also depend on the callee's file — methodReturnVars reads
	// its body.
	mu := a.unitOf(m)
	cloning := a.opts.ContextSensitivity != CtxOff
	for _, callee := range a.callTargets(s.Recv.TypeClass, s.Key, s.Target) {
		cu := a.mention(callee)
		if cloning && a.curSub == nil && a.cloneable(callee) && s.Pos().IsValid() {
			// 1-CFA: one context per call-site position, interned so the
			// label renders in derivation trees. Multiple CHA callees at one
			// site share the context id; their variable nodes stay distinct.
			a.buildClonedCall(s, callee, mu.or(cu), a.g.InternContext("cs:"+s.Pos().String()))
			continue
		}
		a.addDispatchFlow(a.varNode(s.Recv), callee, mu)
		for i, arg := range s.Args {
			if i < len(callee.Params) {
				a.addFlow(a.varNode(arg), a.varNode(callee.Params[i]), mu)
			}
		}
		if s.Dst != nil {
			for _, rv := range a.methodReturnVars(callee) {
				a.addFlow(a.varNode(rv), a.varNode(s.Dst), mu.or(cu))
			}
		}
	}
}

// cloneable reports whether the active cloning mode clones the callee: a
// small, non-self-recursive application method. Larger or recursive callees
// keep the shared (context-insensitive) treatment.
func (a *analysis) cloneable(callee *ir.Method) bool {
	if ok, hit := a.cloneableCache[callee]; hit {
		return ok
	}
	const maxStmts = 40
	count, selfCall := 0, false
	ir.WalkStmts(callee.Body, func(s ir.Stmt) {
		count++
		if inv, ok := s.(*ir.Invoke); ok && inv.Target == callee {
			selfCall = true
		}
	})
	ok := count <= maxStmts && !selfCall && callee.This != nil
	a.cloneableCache[callee] = ok
	return ok
}

// buildClonedCall gives the callee a fresh set of variable, operation, and
// allocation nodes under the given cloning context — bounded (depth-1)
// context sensitivity. This is the refinement the paper's case study points
// to for the XBMC outlier ("applying existing techniques for context
// sensitivity would lead to an even more precise solution"). The callee
// body is materialized once per (callee, context).
func (a *analysis) buildClonedCall(s *ir.Invoke, callee *ir.Method, units unitBits, ctx int) {
	// Caller-side nodes resolve under the caller's (nil) substitution.
	recv := a.varNode(s.Recv)
	args := make([]*graph.VarNode, len(s.Args))
	for i, arg := range s.Args {
		args[i] = a.varNode(arg)
	}
	var dst *graph.VarNode
	if s.Dst != nil {
		dst = a.varNode(s.Dst)
	}

	sub := &cloneSub{method: callee, ctx: ctx}
	prev := a.curSub
	a.curSub = sub
	defer func() { a.curSub = prev }()

	// Materialize the callee body under the substitution: nested calls
	// inside the clone take the shared path (depth 1). Allocation and
	// operation nodes are not interned, so a body must never be walked
	// twice under one context.
	if ck := (cloneKey{callee, ctx}); !a.builtClones[ck] {
		a.builtClones[ck] = true
		ir.WalkStmts(callee.Body, func(st ir.Stmt) { a.buildStmt(callee, st) })
	}

	// Parameter, receiver, and return plumbing into the cloned nodes.
	a.addDispatchFlow(recv, callee, units)
	for i := range args {
		if i < len(callee.Params) {
			a.addFlow(args[i], a.varNode(callee.Params[i]), units)
		}
	}
	if dst != nil {
		for _, rv := range a.methodReturnVars(callee) {
			a.addFlow(a.varNode(rv), dst, units)
		}
	}
}

// buildOp creates the operation node for a recognized Android API call and,
// for set-listener operations, the implicit callback edges of Section 3
// ("the callback to the handler can be modeled as y.n(x)").
func (a *analysis) buildOp(m *ir.Method, s *ir.Invoke, api *platform.ApiSpec) {
	op := a.g.NewOpNode(api.Kind, s, m)
	op.Scope = api.Scope
	op.Event = api.Event
	op.AttachParent = api.AttachParent
	op.ParentArg = api.ParentArg
	op.Recv = a.varNode(s.Recv)
	for _, arg := range s.Args {
		op.Args = append(op.Args, a.varNode(arg))
	}
	if s.Dst != nil {
		op.Out = a.varNode(s.Dst)
	}

	mu := a.unitOf(m)

	// Adapter callback: the adapter argument flows to getView's receiver;
	// the solver later attaches getView's results to the AdapterView.
	if api.Kind == platform.OpSetAdapter && len(s.Args) > 0 && s.Args[0].TypeClass != nil {
		key := ir.MethodKey("getView", []alite.Type{{Prim: alite.TypeInt}})
		static := s.Args[0].TypeClass.LookupMethod(key)
		for _, target := range a.callTargets(s.Args[0].TypeClass, key, static) {
			a.addDispatchFlow(a.varNode(s.Args[0]), target, mu)
		}
		return
	}

	if api.Kind != platform.OpSetListener || len(s.Args) == 0 {
		return
	}
	// Callback modeling for y.n(x): the listener argument flows to the
	// handlers' receivers; the view receiver flows to the handlers' view
	// parameters. Dispatch is CHA over the declared type of the listener
	// argument.
	spec, ok := platform.ListenerByEvent(api.Event)
	if !ok {
		return
	}
	lstArg := s.Args[0]
	if lstArg.TypeClass == nil {
		return
	}
	for _, h := range spec.Handlers {
		types := make([]alite.Type, len(h.Params))
		for i, pn := range h.Params {
			if pn == "int" {
				types[i] = alite.Type{Prim: alite.TypeInt}
			} else {
				types[i] = alite.Type{Name: pn}
			}
		}
		key := ir.MethodKey(h.Name, types)
		static := lstArg.TypeClass.LookupMethod(key)
		for _, handler := range a.callTargets(lstArg.TypeClass, key, static) {
			a.addDispatchFlow(a.varNode(lstArg), handler, mu)
			for _, vi := range h.ViewParams {
				if vi < len(handler.Params) {
					a.addFlow(a.varNode(s.Recv), a.varNode(handler.Params[vi]), mu)
				}
			}
		}
	}
}

// callTargets resolves the possible callees of a virtual call with the given
// declared receiver class and signature key, using class-hierarchy analysis
// (or the static target only, under the DeclaredDispatchOnly ablation).
func (a *analysis) callTargets(decl *ir.Class, key string, static *ir.Method) []*ir.Method {
	if decl == nil {
		return nil
	}
	if a.opts.DeclaredDispatchOnly {
		if static != nil && static.Body != nil {
			return []*ir.Method{static}
		}
		return nil
	}
	ck := chaKey{decl, key}
	if ts, ok := a.chaCache[ck]; ok {
		return ts
	}
	var out []*ir.Method
	seen := map[*ir.Method]bool{}
	for _, c := range a.prog.AppClasses() {
		if c.IsInterface || !c.SubtypeOf(decl) {
			continue
		}
		m := c.Dispatch(key)
		if m != nil && m.Body != nil && !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	a.chaCache[ck] = out
	return out
}

// methodReturnVars collects the reference- or int-typed variables returned
// by m (ids are ints and must propagate through returns too).
func (a *analysis) methodReturnVars(m *ir.Method) []*ir.Var {
	if vs, ok := a.returnVars[m]; ok {
		return vs
	}
	var out []*ir.Var
	ir.WalkStmts(m.Body, func(s ir.Stmt) {
		if r, ok := s.(*ir.Return); ok && r.Src != nil {
			out = append(out, r.Src)
		}
	})
	a.returnVars[m] = out
	return out
}
