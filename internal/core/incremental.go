package core

import (
	"fmt"
	"sort"

	"gator/internal/graph"
	"gator/internal/ir"
	"gator/internal/trace"
)

// IncrementalStats describes how an AnalyzeIncremental run was computed.
// The JSON tags are gatord's wire names (a session response's
// "incremental" object).
type IncrementalStats struct {
	// Mode is "warm" when the previous solution was delta-resolved,
	// "scratch" when the analysis fell back to a full solve, or (set by the
	// root package) "unchanged" when the inputs were byte-identical to the
	// previous run.
	Mode string `json:"mode"`
	// Reason explains a scratch fallback; empty otherwise.
	Reason string `json:"reason,omitempty"`
	// Retained and Retracted count previous-solution facts that survived
	// the edit and facts whose derivations reached a dirty unit.
	Retained  int `json:"retained,omitempty"`
	Retracted int `json:"retracted,omitempty"`
	// Compacted reports that the warm re-solve renumbered the graph's
	// nodes and the program's variables densely, because retraction left
	// at least as many retired ids as live ones (see AnalyzeIncremental).
	Compacted bool `json:"compacted,omitempty"`
	// DirtyUnits are the unit names the edit touched, sorted.
	DirtyUnits []string `json:"dirtyUnits,omitempty"`
}

// warmState is the part of the solver's working state a Result carries so the
// next AnalyzeIncremental call can resume in place instead of rebuilding and
// re-deriving everything: the flow-edge label table, the inflation memos,
// call-resolution caches, the per-method/per-class build read sets, and the
// delta worklist's arrays for the next solve to refill. nil when dependency
// tracking was off.
type warmState struct {
	labels        labelTable
	delta         deltaArrays
	returnVars    map[*ir.Method][]*ir.Var
	chaCache      map[chaKey][]*ir.Method
	inflations    map[inflationKey]*inflation
	rootInflation map[*graph.InflNode]*inflation
	methodUnits   map[*ir.Method]unitBits
	classUnits    map[*ir.Class]unitBits
}

// warmState packages the solver state for reuse by a later incremental run.
func (a *analysis) warmState() *warmState {
	if a.dep == nil {
		return nil
	}
	return &warmState{
		labels:        a.labels,
		delta:         a.deltaArrays,
		returnVars:    a.returnVars,
		chaCache:      a.chaCache,
		inflations:    a.inflations,
		rootInflation: a.rootInflation,
		methodUnits:   a.methodUnits,
		classUnits:    a.classUnits,
	}
}

// AnalyzeIncremental re-analyzes prog after an edit confined to the named
// compilation units (source file names, or "layout:<name>" for layouts),
// reusing the unit-dependency masks recorded by a previous Incremental run.
//
// The caller must pass a prog that already reflects the edit (typically via
// ir.PatchFile) and a prev computed with Options.Incremental from the
// pre-edit program sharing all clean pointers with prog. The warm path works
// in place on prev's constraint graph and fact base — prev is consumed:
//
//  1. retract: facts whose recorded unit mask intersects the dirty set, or
//     that mention a node owned by a re-lowered method body, are deleted from
//     the points-to sets and relations; flow edges built from dirty units are
//     dropped. When the retired node slots, or the program's retired
//     variable ids, then number at least the live ones, both id spaces are
//     renumbered densely in their current order (compact), so a long
//     session's ids stay under twice the live count.
//  2. rebuild: the build passes whose recorded read sets intersect the dirty
//     units re-run against the retained graph (they are idempotent), creating
//     fresh nodes for the edited bodies.
//  3. repair + solve: nodes that lost a fact get their predecessors' values
//     re-propagated, and the Section 4.2 rules run to a new fixed point.
//
// The result is the same least model a from-scratch Analyze of the edited
// program computes — only internal node numbering may differ, which is why
// every query that crosses runs reports in content order.
//
// When reuse is not possible — no previous tracking state, provenance or
// context sensitivity requested, shared inflation (one
// view tree serves many sites, defeating per-site retraction), options
// changed, or the unit set changed — the analysis runs from scratch (with
// tracking on, so the next edit can be incremental) and Result.Incr.Reason
// says why. There is no limit on the number of compilation units: unit
// masks page past 64 bits (see deps.go).
func AnalyzeIncremental(prog *ir.Program, opts Options, prev *Result, dirty []string) *Result {
	opts.Incremental = true
	if reason := warmBlocker(opts, prev); reason != "" {
		return analyzeScratch(prog, opts, dirty, reason)
	}
	// The unit table itself carries over; an edit that keeps the unit set
	// needs only its names compared.
	units := prev.units
	if !units.assigns(unitNames(prog)) {
		return analyzeScratch(prog, opts, dirty, "compilation unit set changed")
	}
	var dirtyBits unitBits
	for _, name := range dirty {
		b := units.bit(name)
		if b.isZero() {
			return analyzeScratch(prog, opts, dirty,
				fmt.Sprintf("edited unit %q not tracked", name))
		}
		dirtyBits = dirtyBits.or(b)
	}

	a := adoptAnalysis(prog, opts, prev)
	stages := make(trace.Log, 0, 3)

	var retained, retracted int
	var damaged map[int]bool
	compacted := false
	a.tr.Stage(&stages, trace.StageRetract, func() {
		retained, retracted, damaged = a.retract(dirtyBits)
		if a.sparse() {
			damaged = a.compact(damaged)
			compacted = true
		}
	})
	a.tr.Count("incremental/retained", int64(retained))
	a.tr.Count("incremental/retracted", int64(retracted))
	if compacted {
		a.tr.Count("incremental/compacted", 1)
	}

	a.tr.Stage(&stages, trace.StageRebuild, func() {
		a.rebuild(dirtyBits)
		a.repair(damaged)
	})
	a.tr.Stage(&stages, trace.StageSolve, a.solve)

	return &Result{
		Prog:       prog,
		Graph:      a.g,
		Opts:       opts,
		pts:        a.pts,
		dep:        a.dep,
		units:      a.units,
		warm:       a.warmState(),
		Iterations: a.iterations,
		Stages:     stages,
		Incr: IncrementalStats{
			Mode:       "warm",
			Retained:   retained,
			Retracted:  retracted,
			Compacted:  compacted,
			DirtyUnits: sortedCopy(dirty),
		},
	}
}

// warmBlocker returns the reason warm re-solving is unavailable, or "".
func warmBlocker(opts Options, prev *Result) string {
	switch {
	case opts.ContextSensitivity != CtxOff || (prev != nil && prev.Opts.ContextSensitivity != CtxOff):
		// Cloned subgraphs share interned contexts across call sites, so a
		// unit edit cannot be retracted clone-locally; fall back to scratch
		// rather than ever serving stale merged facts. Checked first so the
		// reason is deterministic whatever tracking state prev carries.
		return "context-sensitive"
	case prev == nil:
		return "no previous result"
	case prev.dep == nil || prev.units == nil:
		return "previous result has no dependency tracking"
	case prev.warm == nil:
		return "previous result lacks reusable solver state"
	case opts.Provenance:
		return "provenance recording requires the full derivation schedule"
	case opts.SharedInflation:
		return "shared inflation ties one view tree to many sites"
	case opts.FilterCasts != prev.Opts.FilterCasts,
		opts.SharedInflation != prev.Opts.SharedInflation,
		opts.NoFindView3Refinement != prev.Opts.NoFindView3Refinement,
		opts.DeclaredDispatchOnly != prev.Opts.DeclaredDispatchOnly:
		return "analysis options changed"
	}
	return ""
}

// analyzeScratch is the fallback: a full solve with tracking enabled so the
// next edit can go warm.
func analyzeScratch(prog *ir.Program, opts Options, dirty []string, reason string) *Result {
	r := Analyze(prog, opts)
	r.Incr = IncrementalStats{Mode: "scratch", Reason: reason, DirtyUnits: sortedCopy(dirty)}
	return r
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// adoptAnalysis resumes prev's solver state in place: the constraint graph,
// points-to sets, dependency tracker, edge labels, and build caches all
// carry over. Memos whose validity an edit can silently break —
// declarative-onClick binding, return-variable caches of re-lowered
// methods — are reset instead.
func adoptAnalysis(p *ir.Program, opts Options, prev *Result) *analysis {
	w := prev.warm
	a := &analysis{
		prog:           p,
		opts:           opts,
		g:              prev.Graph,
		pts:            prev.pts,
		labels:         w.labels,
		returnVars:     w.returnVars,
		chaCache:       w.chaCache,
		inflations:     w.inflations,
		rootInflation:  w.rootInflation,
		boundOnClick:   map[onClickKey]bool{},
		cloneableCache: map[*ir.Method]bool{},
		tr:             opts.Trace,
		units:          prev.units,
		dep:            prev.dep,
		methodUnits:    w.methodUnits,
		classUnits:     w.classUnits,
		tracking:       true,
	}
	if !opts.ReferenceSolver {
		// The delta worklist's arrays, for initDelta to refill; they must
		// stay nil under the apply-every-operation schedule.
		a.deltaArrays = w.delta
	}
	return a
}

// relowered reports whether m's body was re-lowered by the edit: its
// declaring file is dirty, so its local and temporary variables are fresh ir
// objects and the previous run's nodes for them are stale. The receiver and
// parameters are reused by ir.PatchFile and stay live.
func (a *analysis) relowered(m *ir.Method, dirty unitBits) bool {
	return m != nil && a.unitOf(m).intersects(dirty)
}

// rebuilds reports whether m's build pass must re-run: its own file is dirty,
// or the pass read another method declared in a dirty file (recorded in
// methodUnits via mention). A rebuilt body re-creates its allocation,
// operation, and inflation nodes, so those nodes are stale even when the
// body's own file is clean.
func (a *analysis) rebuilds(m *ir.Method, dirty unitBits) bool {
	return a.methodUnits[m].intersects(dirty) || a.unitOf(m).intersects(dirty)
}

// retract deletes from the adopted solution every fact an edit to the dirty
// units can have invalidated, plus every fact mentioning a node that the
// rebuild will re-create. It returns the surviving and retracted fact counts
// and the set of nodes that lost a flow fact both of whose endpoints remain
// live — the nodes repair must re-propagate into, because an alternative
// clean derivation may still support the retracted value.
func (a *analysis) retract(dirty unitBits) (retained, retracted int, damaged map[int]bool) {
	g := a.g
	nodes := g.Nodes()

	// Per-method edit classification, computed once so the node and fact
	// scans below avoid re-hashing file names: relow marks methods whose
	// bodies were re-lowered, rebuild marks methods whose build pass re-runs.
	relow := map[*ir.Method]bool{}
	rebuild := map[*ir.Method]bool{}
	for _, c := range a.prog.AppClasses() {
		for _, m := range c.MethodsSorted() {
			if a.relowered(m, dirty) {
				relow[m] = true
			}
			if a.rebuilds(m, dirty) {
				rebuild[m] = true
			}
		}
	}

	// Stale-node classification, over the graph's live indices only — the
	// node array also holds the slots retired since the last compaction, up
	// to as many as there are live nodes. Variable nodes die with re-lowered
	// bodies (except receivers and parameters, which PatchFile reuses);
	// allocation and operation nodes die whenever their method's build pass
	// re-runs, because the pass would otherwise duplicate them; inflation
	// views and menu items follow their operation.
	stale := make([]bool, len(nodes))
	var staleNodes []graph.Node
	mark := func(n graph.Node) {
		if !stale[n.ID()] {
			stale[n.ID()] = true
			staleNodes = append(staleNodes, n)
		}
	}
	for m := range relow {
		for _, n := range g.MethodVarNodes(m) {
			if n.Var == m.This {
				continue
			}
			isParam := false
			for _, p := range m.Params {
				if n.Var == p {
					isParam = true
					break
				}
			}
			if !isParam {
				mark(n)
			}
		}
		g.DropMethodVarNodes(m)
	}
	for _, n := range g.Allocs() {
		if rebuild[n.Method] {
			mark(n)
		}
	}
	for _, op := range g.Ops() {
		if rebuild[op.Method] {
			mark(op)
		}
	}
	for _, n := range g.Infls() {
		if stale[n.Op.ID()] {
			mark(n)
		}
	}
	g.VisitMenuItemNodes(func(op *graph.OpNode, item *graph.MenuItemNode) {
		if stale[op.ID()] {
			mark(item)
		}
	})

	// Stale nodes lose their entire points-to sets up front, so the fact scan
	// below does not pay a per-fact ordered removal for them.
	for _, n := range staleNodes {
		a.pts.drop(n.ID())
	}

	// Fact scan, in derivation order: a fact survives when its recorded unit
	// mask avoids every dirty unit and both operands stay live. Everything
	// else is undone in the graph. Over-retraction is safe — the rules
	// re-derive any fact that still holds — so a clean-mask fact on a stale
	// node is simply dropped and re-derived against the node's replacement.
	damaged = map[int]bool{}
	order := a.dep.order
	masks := a.dep.masks
	kept := order[:0]
	keptMasks := masks[:0]
	for fi, f := range order {
		if !masks[fi].intersects(dirty) && !stale[f.A] && !stale[f.B] {
			kept = append(kept, f)
			keptMasks = append(keptMasks, masks[fi])
			continue
		}
		retracted++
		a.dep.forget(f)
		na, nb := nodes[f.A], nodes[f.B]
		switch f.Kind {
		case FactFlow:
			if s := a.pts.of(f.A); s != nil {
				s.Remove(int32(f.B))
			}
			if !stale[f.A] && !stale[f.B] {
				damaged[f.A] = true
			}
		case FactChild:
			g.RemoveChild(na.(graph.Value), nb.(graph.Value))
		case FactViewID:
			g.RemoveViewID(na.(graph.Value), nb.(graph.Value))
		case FactListener:
			g.RemoveListener(na.(graph.Value), nb.(graph.Value))
		case FactRoot:
			g.RemoveRoot(na.(graph.Value), nb.(graph.Value))
		case FactIntent:
			g.RemoveIntentTarget(na.(graph.Value), nb.(graph.Value))
		case FactMenuItem:
			g.RemoveMenuItem(na.(graph.Value), nb.(graph.Value))
		}
	}
	clear(order[len(kept):])
	clear(masks[len(keptMasks):])
	a.dep.order = kept
	a.dep.masks = keptMasks
	retained = len(kept)

	// Flow edges built from dirty units — and any edge touching a stale
	// node — disappear along with their labels. Note a single flow edge is
	// only ever added by rule sites within one method (edge endpoints
	// include a method-local variable), so a dirty mask bit means every site
	// that contributed the edge re-runs during rebuild.
	g.FilterFlow(func(src graph.Node, e graph.FlowEdge) bool {
		if a.labels.slots[e.Label].units.intersects(dirty) || stale[src.ID()] || stale[e.Dst] {
			a.labels.release(e.Label)
			return false
		}
		return true
	})

	// Inflation memo kill: a materialized view tree survives only when its
	// structural facts did — the operation is live, neither the inflating
	// method's file nor the layout is dirty, and the layout id still reaches
	// the operation's argument (the facts' premise). A killed tree's facts
	// are already retracted above: every fact mentioning its nodes chains
	// back to the structural facts and therefore shares their dirty mask.
	// Re-derivation materializes a fresh tree; outputs are content-ordered,
	// so the new node identities are invisible.
	for key, inf := range a.inflations {
		op := inf.root.Op
		kill := stale[op.ID()]
		if !kill {
			ul := a.unitOf(op.Method).or(a.layoutUnit(inf.root.LayoutName))
			if ul.intersects(dirty) {
				kill = true
			} else {
				kill = true
				if len(op.Args) > 0 {
					if s := a.pts.of(op.Args[0].ID()); s != nil {
						if resID, found := a.prog.R.LayoutID(inf.root.LayoutName); found {
							if s.Contains(int32(a.g.LayoutIDNode(resID, inf.root.LayoutName).ID())) {
								kill = false
							}
						}
					}
				}
			}
		}
		if !kill {
			continue
		}
		delete(a.inflations, key)
		delete(a.rootInflation, inf.root)
		for _, n := range inf.all {
			stale[n.ID()] = true
		}
	}

	// Return-variable caches of re-lowered methods read replaced bodies.
	for m := range a.returnVars {
		if a.relowered(m, dirty) {
			delete(a.returnVars, m)
		}
	}

	g.Retire(func(n graph.Node) bool { return stale[n.ID()] })
	return retained, retracted, damaged
}

// sparse reports whether retraction left at least as many retired node
// slots as live nodes, or as many retired variable ids as live variables:
// the point at which compact pays for itself. Retired ids accrue by the
// nodes and variables of each re-lowered body, so checking once per edit
// and compacting at half occupancy costs amortized O(1) per retired id.
func (a *analysis) sparse() bool {
	retired, vars := a.g.NumRetired(), a.prog.NumRetiredVars()
	return retired >= len(a.g.Nodes())-retired || vars >= a.prog.NumVars()-vars
}

// compact renumbers the program's variables (ir.Program.CompactVars) and
// then the graph's nodes (graph.Compact) densely, each in its current
// relative order, and rewrites the solver state keyed by node id to
// follow: the points-to sets and their contents, the fact records, the
// inflation memos and retract's damaged set, which it returns re-keyed.
// The flow-edge labels need nothing: each sits beside its edge in the
// graph, which moves it. The dead nodes, and the replaced bodies' IR they
// pin, become garbage.
//
// Order is what makes this invisible. Every id-ordered walk (VisitFlow in
// repair, the points-to table, the fact scan) visits the live nodes in the
// order it did before, and nodes the rebuild creates still come last, so
// the warm solve derives the same facts in the same order and records the
// same unit masks as it would have without compacting.
func (a *analysis) compact(damaged map[int]bool) map[int]bool {
	a.prog.CompactVars()
	remap := a.g.Compact()
	a.pts.renumber(remap, len(a.g.Nodes()))
	a.dep.renumber(remap)
	inflations := make(map[inflationKey]*inflation, len(a.inflations))
	for k, inf := range a.inflations {
		if !a.opts.SharedInflation {
			if remap[k.op] < 0 {
				continue
			}
			k.op = int(remap[k.op])
		}
		inflations[k] = inf
	}
	a.inflations = inflations
	moved := make(map[int]bool, len(damaged))
	for id := range damaged {
		if remap[id] >= 0 {
			moved[int(remap[id])] = true
		}
	}
	return moved
}

// rebuild re-runs exactly the build passes whose recorded read sets intersect
// the dirty units: per-class platform seeds and per-method body lowering.
// The passes are idempotent against the retained graph — existing nodes,
// edges, seeds, and fact records all deduplicate — so re-running one re-adds
// only what retraction removed, with fresh nodes for re-lowered bodies.
func (a *analysis) rebuild(dirty unitBits) {
	for _, c := range a.prog.AppClasses() {
		cu := a.units.bit(c.Pos.File)
		if a.classUnits[c].intersects(dirty) || cu.intersects(dirty) {
			a.buildClassSeeds(c)
		}
	}
	for _, c := range a.prog.AppClasses() {
		for _, m := range c.MethodsSorted() {
			if a.rebuilds(m, dirty) {
				a.buildMethod(m)
			}
		}
	}
}

// repair re-primes the worklist for the retraction's collateral damage: when
// a flow fact between two live nodes is retracted, a derivation through
// clean edges may still support it, but the previous fixpoint already
// propagated those edges and the solver would never revisit them. Every live
// predecessor of a damaged node re-pushes its values; propagation and the
// rule rescan then restore exactly the still-derivable facts. VisitFlow
// visits sources in id order, so the re-pushes are deterministic.
func (a *analysis) repair(damaged map[int]bool) {
	if len(damaged) == 0 {
		return
	}
	var srcs []int
	a.g.VisitFlow(func(src graph.Node, succs []graph.FlowEdge) {
		for _, e := range succs {
			if damaged[int(e.Dst)] {
				srcs = append(srcs, src.ID())
				return
			}
		}
	})
	for _, id := range srcs {
		a.push(id)
	}
}
