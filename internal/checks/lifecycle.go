package checks

// Ordering-aware checkers backed by the lifecycle automaton (package
// lifecycle). Where the other solution passes ask *which* views flow where,
// these ask *when*: each finding combines a reference-analysis fact (a GUI
// operation materialized in some method) with a callback-ordering fact from
// the lifestate transition table (nothing follows onDestroy; onPause can
// follow onResume; show() during teardown targets a dying window). The
// ordering side of every finding is queryable through
// `gator -explain order:Class.cb1.cb2`, which renders the transition-rule
// derivation behind the CanFollow/AliveAt fact a checker relied on.

import (
	"fmt"
	"sort"

	"gator/internal/graph"
	"gator/internal/ir"
	"gator/internal/lifecycle"
	"gator/internal/platform"
)

// Schedule returns the memoized lifecycle schedule of the analyzed program.
func (c *Context) Schedule() *lifecycle.Schedule {
	if c.sched == nil {
		c.sched = lifecycle.Order(c.Res.Prog)
	}
	return c.sched
}

// reachableFrom returns every application method with a body reachable from
// root through invokes, root included, in deterministic BFS order. Calls
// without a static target fan out over every application subtype's dispatch
// — the same over-approximation the solver's call edges use, which is what
// lets the ordering checkers see through helper chains.
func (c *Context) reachableFrom(root *ir.Method) []*ir.Method {
	if root == nil || root.Body == nil {
		return nil
	}
	seen := map[*ir.Method]bool{}
	queue := []*ir.Method{root}
	var out []*ir.Method
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		if m == nil || m.Body == nil || seen[m] {
			continue
		}
		seen[m] = true
		out = append(out, m)
		ir.WalkStmts(m.Body, func(s ir.Stmt) {
			inv, ok := s.(*ir.Invoke)
			if !ok {
				return
			}
			if inv.Target != nil {
				queue = append(queue, inv.Target)
				return
			}
			if inv.Recv == nil || inv.Recv.TypeClass == nil {
				return
			}
			for _, cls := range c.Res.Prog.AppClasses() {
				if cls.IsInterface || !cls.SubtypeOf(inv.Recv.TypeClass) {
					continue
				}
				if callee := cls.Dispatch(inv.Key); callee != nil && callee.Body != nil {
					queue = append(queue, callee)
				}
			}
		})
	}
	return out
}

// callbackBody returns the overridden body of a parameterless lifecycle
// callback on a component class, or nil.
func (c *Context) callbackBody(class, cb string) *ir.Method {
	cl := c.Res.Prog.Class(class)
	if cl == nil {
		return nil
	}
	m := cl.Dispatch(ir.MethodKey(cb, nil))
	if m == nil || m.Body == nil {
		return nil
	}
	return m
}

// guiConstruction reports whether an operation kind builds up GUI state —
// the work that is dead (and leak-prone) once no callback can follow.
func guiConstruction(k platform.OpKind) bool {
	switch k {
	case platform.OpInflate1, platform.OpInflate2, platform.OpAddView1,
		platform.OpAddView2, platform.OpSetListener, platform.OpMenuAdd,
		platform.OpShowDialog:
		return true
	}
	return false
}

// describeOp names an operation kind the way the findings talk about it.
func describeOp(k platform.OpKind) string {
	switch k {
	case platform.OpInflate1:
		return "layout inflation"
	case platform.OpInflate2, platform.OpAddView1:
		return "setContentView"
	case platform.OpAddView2:
		return "addView"
	case platform.OpSetListener:
		return "listener registration"
	case platform.OpMenuAdd:
		return "menu population"
	case platform.OpShowDialog:
		return "Dialog.show()"
	}
	return k.String()
}

// inWords describes where an operation's method sits relative to the
// lifecycle callback the finding is about.
func inWords(m, root *ir.Method, class, cb string) string {
	if m == root {
		return fmt.Sprintf("in %s.%s", class, cb)
	}
	return fmt.Sprintf("in %s, reachable from %s.%s", m.QualifiedName(), class, cb)
}

// checkUseAfterDestroy flags GUI-construction operations that run during a
// callback after which the component can never receive another callback.
// For activities that is onDestroy: the automaton's Destroyed state is
// absorbing, so views inflated, listeners registered, or dialogs shown
// there can never serve an event — the work is dead and pins the destroyed
// activity in memory.
func checkUseAfterDestroy(ctx *Context) []Finding {
	var out []Finding
	for _, comp := range ctx.Schedule().Components() {
		for _, cb := range comp.Callbacks {
			if comp.AliveAt(cb) {
				continue
			}
			root := ctx.callbackBody(comp.Class, cb)
			for _, m := range ctx.reachableFrom(root) {
				for _, op := range ctx.OpsIn(m) {
					if !guiConstruction(op.Kind) {
						continue
					}
					out = append(out, Finding{
						Check:    "lifecycle-use-after-destroy",
						Severity: Warning,
						Pos:      opPos(op),
						Msg: fmt.Sprintf("%s %s: no callback can follow %s (%s is absorbing), so this GUI work is dead and leaks the destroyed %s",
							describeOp(op.Kind), inWords(m, root, comp.Class, cb), cb,
							lifecycle.Destroyed, comp.Kind),
						SuggestedFix: fmt.Sprintf("move the %s to a callback the component is still alive at, or delete it", describeOp(op.Kind)),
					})
				}
			}
		}
	}
	return dedup(out)
}

// checkListenerLeakOnPause flags listener registrations performed on every
// pass through onResume with no matching clear (setListener(null) on an
// overlapping view and the same event) reachable from onPause or onStop.
// The automaton says onPause can follow onResume and onResume can follow
// onPause, so the pair cycles: an uncleared registration stays live while
// the activity is paused and is stacked again on every resume.
func checkListenerLeakOnPause(ctx *Context) []Finding {
	var out []Finding
	for _, comp := range ctx.Schedule().Components() {
		if comp.Kind != lifecycle.KindActivity || !comp.CanFollow("onResume", "onPause") {
			continue
		}
		resume := ctx.callbackBody(comp.Class, "onResume")
		if resume == nil {
			continue
		}
		// A clearing registration: the listener argument's solution is
		// empty, i.e. only null reaches it.
		type clearing struct {
			event string
			recv  []int
		}
		var clears []clearing
		for _, cb := range []string{"onPause", "onStop"} {
			for _, m := range ctx.reachableFrom(ctx.callbackBody(comp.Class, cb)) {
				for _, op := range ctx.OpsIn(m) {
					if op.Kind == platform.OpSetListener && len(op.Args) > 0 &&
						ctx.Res.OpArg(op, 0).Len() == 0 {
						clears = append(clears, clearing{op.Event, ctx.receiverIDs(op)})
					}
				}
			}
		}
		for _, m := range ctx.reachableFrom(resume) {
			for _, op := range ctx.OpsIn(m) {
				if op.Kind != platform.OpSetListener || len(op.Args) == 0 {
					continue
				}
				if ctx.Res.OpArg(op, 0).Len() == 0 {
					continue // itself a clear
				}
				recv := ctx.receiverIDs(op)
				cleared := false
				for _, c := range clears {
					if c.event == op.Event && intersects(c.recv, recv) {
						cleared = true
						break
					}
				}
				if cleared {
					continue
				}
				out = append(out, Finding{
					Check:    "lifecycle-listener-leak-on-pause",
					Severity: Warning,
					Pos:      opPos(op),
					Msg: fmt.Sprintf("%s listener registered %s is never cleared on pause: onPause can follow onResume, so the handler stays registered while %s is paused and is registered again on every resume",
						op.Event, inWords(m, resume, comp.Class, "onResume"), comp.Class),
					SuggestedFix: fmt.Sprintf("clear the %s listener (setListener(null)) in %s.onPause or %s.onStop",
						op.Event, comp.Class, comp.Class),
				})
			}
		}
	}
	return dedup(out)
}

// checkDialogMisuse flags Dialog.show() calls reachable from an activity's
// teardown callbacks. Once onPause has run, the automaton permits onStop
// and onDestroy to follow without any user-visible phase in between: a
// dialog shown there appears over a window that is leaving the screen and
// leaks when the activity dies with the dialog still attached.
func checkDialogMisuse(ctx *Context) []Finding {
	var out []Finding
	for _, comp := range ctx.Schedule().Components() {
		if comp.Kind != lifecycle.KindActivity {
			continue
		}
		for _, cb := range []string{"onPause", "onStop", "onDestroy"} {
			root := ctx.callbackBody(comp.Class, cb)
			for _, m := range ctx.reachableFrom(root) {
				for _, op := range ctx.OpsIn(m) {
					if op.Kind != platform.OpShowDialog {
						continue
					}
					dialogs := "a dialog"
					if names := dialogClassNames(ctx, op); names != "" {
						dialogs = names
					}
					out = append(out, Finding{
						Check:    "lifecycle-dialog-misuse",
						Severity: Warning,
						Pos:      opPos(op),
						Msg: fmt.Sprintf("%s shown %s: the activity is leaving the foreground (onDestroy can follow %s with no user-visible phase), so the dialog opens over a dying window and leaks",
							dialogs, inWords(m, root, comp.Class, cb), cb),
						SuggestedFix: "dismiss or never show dialogs during teardown callbacks",
					})
				}
			}
		}
	}
	return dedup(out)
}

// dialogClassNames renders the receiver dialog classes of a show()
// operation, when the solution knows them.
func dialogClassNames(ctx *Context, op *graph.OpNode) string {
	names := map[string]bool{}
	vs := ctx.Res.OpReceivers(op)
	for k := range vs.Len() {
		v := vs.At(k)
		if a, ok := v.(*graph.AllocNode); ok {
			names[a.Class.Name] = true
		}
	}
	var sorted []string
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	if len(sorted) == 0 {
		return ""
	}
	joined := ""
	for i, n := range sorted {
		if i > 0 {
			joined += ", "
		}
		joined += n
	}
	return "dialog " + joined
}
