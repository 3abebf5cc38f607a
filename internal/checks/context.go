package checks

import (
	"fmt"
	"sort"

	"gator/internal/cfg"
	"gator/internal/core"
	"gator/internal/dataflow"
	"gator/internal/graph"
	"gator/internal/ir"
	"gator/internal/lifecycle"
	"gator/internal/platform"
	"gator/internal/trace"
)

// Context carries the solved reference analysis plus lazily built
// flow-sensitive artifacts shared across passes: per-method CFGs, nullness
// solutions, and the site → operation index. One Context serves one app;
// passes must not mutate it beyond the memoization the accessors perform.
type Context struct {
	Res *core.Result

	// Trace, when non-nil, receives one dataflow event per dataflow solve
	// (see traceSolve) with the method name and its block-visit count.
	Trace *trace.Scope

	appMethods []*ir.Method
	cfgs       map[*ir.Method]*cfg.Graph
	nullRes    map[*ir.Method]*dataflow.Result[dataflow.NullFact]
	siteOps    map[*ir.Invoke][]*graph.OpNode
	methOps    map[*ir.Method][]*graph.OpNode
	nullSeed   map[*ir.Invoke]dataflow.NullVal
	// nullable holds the application methods where Null can enter, per
	// dataflow.Nullness.Introduces.
	nullable map[*ir.Method]bool
	indexed  bool

	// Memos of viewHelperCall and returnsModeled, which the seeding in
	// buildIndexes asks once per call site: within one Context the first
	// is a pure function of (declared receiver class, method key), the
	// second of the callee. defs indexes a method's definitions by
	// variable for varModeled.
	helperCalls map[helperKey]bool
	modeledRets map[*ir.Method]bool
	defs        map[*ir.Method]map[*ir.Var][]ir.Stmt

	// Program-point flowsTo machinery (flowsto.go).
	reach         map[*ir.Method]*dataflow.ReachingDefs
	allocsAt      map[*ir.New][]int32
	fieldNodes    map[*ir.Field]*graph.FieldNode
	viewIDByRes   map[int]graph.Value
	layoutIDByRes map[int]graph.Value
	classNodes    map[*ir.Class]graph.Value
	valIndexed    bool
	// walk enumerates the view hierarchies opProduces searches.
	walk graph.Walker

	// Lifecycle schedule (lifecycle.go), built on first ordering query.
	sched *lifecycle.Schedule
}

// NewContext prepares a pass context over one solved analysis.
func NewContext(res *core.Result) *Context {
	return &Context{
		Res:         res,
		cfgs:        map[*ir.Method]*cfg.Graph{},
		nullRes:     map[*ir.Method]*dataflow.Result[dataflow.NullFact]{},
		helperCalls: map[helperKey]bool{},
		modeledRets: map[*ir.Method]bool{},
		defs:        map[*ir.Method]map[*ir.Var][]ir.Stmt{},
	}
}

// helperKey identifies a call's dispatch targets: its declared receiver
// class and method key.
type helperKey struct {
	decl *ir.Class
	key  string
}

// AppMethods returns every application method with a body, in deterministic
// (class, signature) order. The slice is memoized: callers must not modify
// it.
func (c *Context) AppMethods() []*ir.Method {
	if c.appMethods == nil {
		for _, cl := range c.Res.Prog.AppClasses() {
			for _, m := range cl.MethodsSorted() {
				if m.Body != nil {
					c.appMethods = append(c.appMethods, m)
				}
			}
		}
	}
	return c.appMethods
}

// CFG returns the memoized control-flow graph of a method.
func (c *Context) CFG(m *ir.Method) *cfg.Graph {
	if g, ok := c.cfgs[m]; ok {
		return g
	}
	g := cfg.Build(m)
	c.cfgs[m] = g
	return g
}

// buildIndexes populates the site → operations and method → operations maps
// and the nullness seeds, once.
func (c *Context) buildIndexes() {
	if c.indexed {
		return
	}
	c.indexed = true
	c.siteOps = map[*ir.Invoke][]*graph.OpNode{}
	c.methOps = map[*ir.Method][]*graph.OpNode{}
	for _, op := range c.Res.Graph.Ops() {
		if op.Site != nil {
			c.siteOps[op.Site] = append(c.siteOps[op.Site], op)
		}
		if op.Method != nil {
			c.methOps[op.Method] = append(c.methOps[op.Method], op)
		}
	}

	// Nullness seeds: a find-view site is definitely null when every
	// operation node materialized for it is live (receiver and id reached)
	// yet produces no view in the solution. This is the reference-analysis
	// seeding of the nullness lattice: it turns the flow-insensitive
	// "dangling findViewById" call-site fact into per-dereference facts.
	c.nullSeed = map[*ir.Invoke]dataflow.NullVal{}
	for site, ops := range c.siteOps {
		val, ok := c.seedForSite(site, ops)
		if ok {
			c.nullSeed[site] = val
		}
	}

	// Empty-helper-call seeds: a call to an application helper whose solved
	// result is empty, while the callee demonstrably produces views (it
	// contains find-view operations), returns null at this site. The merged
	// insensitive solution rarely proves such a result empty — some other
	// caller usually keeps it alive; under Options.ContextSensitivity the
	// per-caller clone split can empty exactly one caller's result, and
	// these seeds are where that sharper precision frontier reaches the
	// nullness checker.
	//
	// The same walk marks the methods where Null can enter. It asks
	// Introduces about a call only after deciding the call's seed.
	nl := dataflow.Nullness{Seed: c.seed}
	c.nullable = map[*ir.Method]bool{}
	for _, m := range c.AppMethods() {
		ir.WalkStmts(m.Body, func(s ir.Stmt) {
			if inv, ok := s.(*ir.Invoke); ok && c.emptyHelperCall(inv) {
				c.nullSeed[inv] = dataflow.NullVal{
					K:   dataflow.Null,
					Why: fmt.Sprintf("%s at %s can never return a view", callName(inv), inv.At),
				}
			}
			if nl.Introduces(s) {
				c.nullable[m] = true
			}
		})
	}
}

// emptyHelperCall reports whether a call that no operation node models
// returns a helper's empty result: a live receiver, an empty solved
// destination, and a view-helper callee (see viewHelperCall).
func (c *Context) emptyHelperCall(inv *ir.Invoke) bool {
	if inv.Dst == nil || inv.Recv == nil || len(c.siteOps[inv]) > 0 {
		return false
	}
	if c.Res.VarPointsTo(inv.Dst).Len() != 0 || c.Res.VarPointsTo(inv.Recv).Len() == 0 {
		return false
	}
	return c.viewHelperCall(inv)
}

// viewHelperCall reports whether every dispatch target of a call is a
// modeled application method whose returned values are all modeled
// one-to-one by the constraint graph, and at least one target performs
// find-view operations — the shape of a "find and return a view" helper.
// Only such calls are safe to seed null on an empty result: there an
// empty solution genuinely proves the helper returns nothing, whereas a
// return fed through an unmodeled construct (an opaque platform call, an
// untracked field) leaves the solution empty while the runtime value is
// real.
func (c *Context) viewHelperCall(s *ir.Invoke) bool {
	decl := s.Recv.TypeClass
	if decl == nil {
		return false
	}
	k := helperKey{decl, s.Key}
	is, ok := c.helperCalls[k]
	if !ok {
		is = c.dispatchesToViewHelper(decl, s.Key)
		c.helperCalls[k] = is
	}
	return is
}

// dispatchesToViewHelper is viewHelperCall's answer for a call of key on a
// receiver declared as decl.
func (c *Context) dispatchesToViewHelper(decl *ir.Class, key string) bool {
	anyCallee, anyFind := false, false
	for _, cls := range c.Res.Prog.AppClasses() {
		if cls.IsInterface || !cls.SubtypeOf(decl) {
			continue
		}
		callee := cls.Dispatch(key)
		if callee == nil {
			continue
		}
		if callee.Body == nil {
			return false // dispatches into unmodeled code
		}
		if !c.returnsModeled(callee) {
			return false // result flows through an unmodeled construct
		}
		anyCallee = true
		for _, op := range c.methOps[callee] {
			switch op.Kind {
			case platform.OpFindView1, platform.OpFindView2, platform.OpFindView3:
				anyFind = true
			}
		}
	}
	return anyCallee && anyFind
}

// returnsModeled reports whether every value a method can return is modeled
// one-to-one by the constraint graph, following copy chains back through
// the body (see varModeled). Emptiness of the method's solved result is
// provable only then.
func (c *Context) returnsModeled(m *ir.Method) bool {
	if ok, seen := c.modeledRets[m]; seen {
		return ok
	}
	ok := true
	visited := map[*ir.Var]bool{}
	ir.WalkStmts(m.Body, func(s ir.Stmt) {
		ret, isRet := s.(*ir.Return)
		if !isRet || ret.Src == nil {
			return
		}
		if !c.varModeled(m, ret.Src, visited) {
			ok = false
		}
	})
	c.modeledRets[m] = ok
	return ok
}

// varModeled reports whether every definition of v inside m is one the
// graph models one-to-one (per defModeled). Copies recurse into their
// source: defModeled answers true for a copy regardless of how the source
// was produced, which is sound for FlowsToAt's shrink-only use but not
// for proving emptiness. A variable with no definitions holds its entry
// value — a parameter or receiver binding, which call edges model.
func (c *Context) varModeled(m *ir.Method, v *ir.Var, visited map[*ir.Var]bool) bool {
	if visited[v] {
		return true
	}
	visited[v] = true
	for _, s := range c.defsOf(m)[v] {
		if cp, isCopy := s.(*ir.Copy); isCopy {
			if !c.varModeled(m, cp.Src, visited) {
				return false
			}
			continue
		}
		if !c.defModeled(s) {
			return false
		}
	}
	return true
}

// defsOf returns m's definitions indexed by the variable they define, each
// list in body order, from one walk of the body per method.
func (c *Context) defsOf(m *ir.Method) map[*ir.Var][]ir.Stmt {
	if d, ok := c.defs[m]; ok {
		return d
	}
	d := map[*ir.Var][]ir.Stmt{}
	ir.WalkStmts(m.Body, func(s ir.Stmt) {
		if v := ir.Def(s); v != nil {
			d[v] = append(d[v], s)
		}
	})
	c.defs[m] = d
	return d
}

func (c *Context) seedForSite(site *ir.Invoke, ops []*graph.OpNode) (dataflow.NullVal, bool) {
	if site.Dst == nil {
		return dataflow.NullVal{}, false
	}
	var last *graph.OpNode
	var ids []string
	for _, op := range ops {
		switch op.Kind {
		case platform.OpFindView1, platform.OpFindView2, platform.OpFindView3:
		default:
			return dataflow.NullVal{}, false
		}
		if op.Out == nil || c.Res.OpReceivers(op).Len() == 0 {
			// Dead op (receiver never materializes): no conclusion.
			return dataflow.NullVal{}, false
		}
		if op.Kind != platform.OpFindView3 {
			if ids = idNames(c.Res.OpArg(op, 0)); len(ids) == 0 {
				return dataflow.NullVal{}, false
			}
		}
		if c.Res.OpResults(op).Len() != 0 {
			return dataflow.NullVal{}, false
		}
		last = op
	}
	if last == nil {
		return dataflow.NullVal{}, false
	}
	// The reason names the last operation. It is formatted only for a
	// seeded site: most find-view sites find a view.
	var why string
	if last.Kind != platform.OpFindView3 {
		why = fmt.Sprintf("findViewById(%s) at %s can never find a view", joinNames(ids), opPos(last))
	} else {
		why = fmt.Sprintf("%s at %s can never retrieve a view", callName(site), opPos(last))
	}
	return dataflow.NullVal{K: dataflow.Null, Why: why}, true
}

// Nullness returns the memoized nullness solution of a method, seeded by
// the reference analysis.
func (c *Context) Nullness(m *ir.Method) *dataflow.Result[dataflow.NullFact] {
	if r, ok := c.nullRes[m]; ok {
		return r
	}
	c.buildIndexes()
	r := traceSolve(c, m, dataflow.SolveNullness(c.CFG(m), c.seed))
	c.nullRes[m] = r
	return r
}

// seed is the nullness Seed: the Null that buildIndexes derived from the
// reference analysis for a call result, if any.
func (c *Context) seed(s *ir.Invoke) (dataflow.NullVal, bool) {
	v, ok := c.nullSeed[s]
	return v, ok
}

// mayHoldNull reports whether Null can enter application method m (see
// dataflow.Nullness.Introduces). Only then can its nullness solution hold
// a Null fact, so only then can null-view-deref report in m.
func (c *Context) mayHoldNull(m *ir.Method) bool {
	c.buildIndexes()
	return c.nullable[m]
}

// traceSolve reports one dataflow solve over m to the trace, with its
// block visits to fixpoint, and returns res. Every solve of the checks
// layer goes through it: nullness, reaching definitions, and the content
// and listener analyses of the CFG passes.
func traceSolve[F any](c *Context, m *ir.Method, res *dataflow.Result[F]) *dataflow.Result[F] {
	if c.Trace.Enabled() {
		c.Trace.Dataflow(m.String(), int64(res.Visits))
	}
	return res
}

// OpsAt returns the operation nodes materialized for one call site.
func (c *Context) OpsAt(site *ir.Invoke) []*graph.OpNode {
	c.buildIndexes()
	return c.siteOps[site]
}

// OpsIn returns the operation nodes whose containing method is m.
func (c *Context) OpsIn(m *ir.Method) []*graph.OpNode {
	c.buildIndexes()
	return c.methOps[m]
}

// receiverIDs returns the sorted value IDs of an operation's receiver
// solution.
func (c *Context) receiverIDs(op *graph.OpNode) []int {
	vals := c.Res.OpReceivers(op)
	out := make([]int, vals.Len())
	for i := range out {
		out[i] = vals.ID(i)
	}
	sort.Ints(out)
	return out
}

// intersects reports whether two sorted int slices share an element.
func intersects(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}
