// Package graph defines the constraint graph of the analysis (Section 4.1 of
// the paper): nodes for variables, fields, allocation sites, implicitly
// created activities, layout/view ids, inflated views, and Android operation
// sites; value-flow edges between them; and the relationship edges
// (parent-child, view-id, listener, content-root) that the solver grows to a
// fixed point.
package graph

import (
	"fmt"

	"gator/internal/ir"
	"gator/internal/platform"
)

// Node is any constraint graph node.
type Node interface {
	ID() int
	String() string
}

// Value is a node that represents an abstract run-time value and can appear
// in points-to sets: allocation sites, inflated views, activities, and
// resource ids.
type Value interface {
	Node
	valueMarker()
}

type base struct{ id int }

func (b base) ID() int { return b.id }

// VarNode represents one local variable, parameter, or receiver. Under
// context-sensitive cloning (core.Options.ContextSensitivity), one variable
// may have several nodes distinguished by Ctx; the context-insensitive node
// has Ctx 0. CtxLabel is the interned label of the context (call-site
// position for 1-CFA, receiver class for 1-object).
type VarNode struct {
	base
	Var      *ir.Var
	Ctx      int
	CtxLabel string
}

func (n *VarNode) String() string {
	if n.CtxLabel != "" {
		return fmt.Sprintf("Var[%s @ %s]", n.Var, n.CtxLabel)
	}
	return "Var[" + n.Var.String() + "]"
}

// FieldNode represents one field, field-based (one node per field signature).
type FieldNode struct {
	base
	Field *ir.Field
}

func (n *FieldNode) String() string { return "Field[" + n.Field.Sig() + "]" }

// AllocNode represents the objects created by one new-expression.
type AllocNode struct {
	base
	Site   *ir.New
	Method *ir.Method // containing method
	Class  *ir.Class
	// IsView and IsListener classify the allocated class.
	IsView     bool
	IsListener bool
	// IsDialog marks application dialog classes (content-view owners).
	IsDialog bool
	// Ordinal numbers allocation sites within the program, for stable names.
	Ordinal int
}

func (n *AllocNode) valueMarker() {}
func (n *AllocNode) String() string {
	return fmt.Sprintf("Alloc[new %s #%d]", n.Class.Name, n.Ordinal)
}

// ActivityNode represents the platform-created instances of one application
// activity class.
type ActivityNode struct {
	base
	Class *ir.Class
	// IsListener is set when the activity class itself implements a
	// listener interface (the paper's "any object could be a listener").
	IsListener bool
}

func (n *ActivityNode) valueMarker()   {}
func (n *ActivityNode) String() string { return "Activity[" + n.Class.Name + "]" }

// LayoutIDNode represents one R.layout constant.
type LayoutIDNode struct {
	base
	ResID int
	Name  string
}

func (n *LayoutIDNode) valueMarker()   {}
func (n *LayoutIDNode) String() string { return "LayoutId[" + n.Name + "]" }

// MenuNode represents the options menu the platform supplies to one
// activity class's onCreateOptionsMenu callback (menu-model extension).
type MenuNode struct {
	base
	Activity *ir.Class
}

func (n *MenuNode) valueMarker()   {}
func (n *MenuNode) String() string { return "Menu[" + n.Activity.Name + "]" }

// MenuItemNode represents the menu items created by one Menu.add operation
// site.
type MenuItemNode struct {
	base
	Op *OpNode
}

func (n *MenuItemNode) valueMarker() {}
func (n *MenuItemNode) String() string {
	return fmt.Sprintf("MenuItem[#op%d]", n.Op.ID())
}

// ClassNode represents one class-literal constant (C.class), used to target
// intents in the inter-component extension.
type ClassNode struct {
	base
	Class *ir.Class
}

func (n *ClassNode) valueMarker()   {}
func (n *ClassNode) String() string { return "Class[" + n.Class.Name + "]" }

// StringIDNode represents one R.string constant. String resources carry no
// GUI objects, but menu items and dialog titles reference them, so the
// analysis tracks the constants as first-class values the same way it
// tracks view ids.
type StringIDNode struct {
	base
	ResID int
	Name  string
}

func (n *StringIDNode) valueMarker()   {}
func (n *StringIDNode) String() string { return "StringId[" + n.Name + "]" }

// ViewIDNode represents one R.id constant.
type ViewIDNode struct {
	base
	ResID int
	Name  string
}

func (n *ViewIDNode) valueMarker()   {}
func (n *ViewIDNode) String() string { return "ViewId[" + n.Name + "]" }

// InflNode represents the view created for one layout-definition node at one
// inflation site ("a fresh set of graph nodes is introduced at each
// inflation site").
type InflNode struct {
	base
	// Op is the inflation operation that created this view.
	Op *OpNode
	// LayoutName is the inflated layout; Path identifies the node within the
	// layout tree (preorder index).
	LayoutName string
	Path       int
	Class      *ir.Class
	// IDName is the view id name from the layout, or "".
	IDName string
	// OnClick is the declarative android:onClick handler name, or "".
	OnClick string
}

func (n *InflNode) valueMarker() {}
func (n *InflNode) String() string {
	if n.IDName != "" {
		return fmt.Sprintf("Infl[%s@%s:%d id=%s #op%d]", n.Class.Name, n.LayoutName, n.Path, n.IDName, n.Op.ID())
	}
	return fmt.Sprintf("Infl[%s@%s:%d #op%d]", n.Class.Name, n.LayoutName, n.Path, n.Op.ID())
}

// OpNode represents one Android operation site.
type OpNode struct {
	base
	Kind  platform.OpKind
	Scope platform.Scope
	// Event is the GUI event for SetListener ops.
	Event string
	// AttachParent/ParentArg describe inflate-into-parent variants.
	AttachParent bool
	ParentArg    int
	// Site is the originating call; nil for synthesized operations.
	Site *ir.Invoke
	// Method is the containing method.
	Method *ir.Method
	// Recv, Args, Out connect the operation to variable nodes; Out is nil
	// for void operations.
	Recv *VarNode
	Args []*VarNode
	Out  *VarNode
}

func (n *OpNode) String() string {
	where := ""
	if n.Site != nil && n.Site.Pos().IsValid() {
		where = "@" + n.Site.Pos().String()
	} else if n.Method != nil {
		where = "@" + n.Method.QualifiedName()
	}
	return fmt.Sprintf("%s%s", n.Kind, where)
}

// Graph is the constraint graph.
type Graph struct {
	nodes []Node

	vars       map[varKey]*VarNode
	methodVars map[*ir.Method][]*VarNode
	fields     map[*ir.Field]*FieldNode
	activities map[*ir.Class]*ActivityNode
	layoutIDs  map[int]*LayoutIDNode
	viewIDs    map[int]*ViewIDNode
	stringIDs  map[int]*StringIDNode
	classes    map[*ir.Class]*ClassNode
	menus      map[*ir.Class]*MenuNode
	menuItems  map[*OpNode]*MenuItemNode

	allocs []*AllocNode
	infls  []*InflNode
	ops    []*OpNode

	// Cloning contexts: ctxSeq numbers them densely (0 = insensitive),
	// ctxLabels/ctxIDs intern their human-readable labels, and
	// ctxVars indexes each variable's non-zero-context clones so queries
	// can project contexts away without scanning every node.
	ctxSeq    int
	ctxLabels map[int]string
	ctxIDs    map[string]int
	ctxVars   map[*ir.Var][]*VarNode

	// allocSeq numbers allocation nodes ever created; unlike len(allocs) it
	// never shrinks, so ordinals stay unique after Retire.
	allocSeq int

	// flow edges: ordered successor lists with a set for dedup.
	flowSucc map[Node][]Node
	flowSet  map[edgeKey]bool
	numFlow  int

	// Relationship edges, grown during solving.
	children  *relation // view ⇒ child view
	parents   *relation // child view ⇒ parent view (inverse index)
	viewIDRel *relation // view ⇒ ViewIDNode
	listeners *relation // view ⇒ listener value
	roots     *relation // activity/dialog value ⇒ root view
	layoutOf  *relation // inflated root ⇒ LayoutIDNode
	targets   *relation // intent allocation ⇒ ClassNode
	menuRel   *relation // menu ⇒ menu item

	// gen increments whenever a relationship edge is added; used to
	// invalidate reachability memos.
	gen int
}

type edgeKey struct{ src, dst int }

type varKey struct {
	v   *ir.Var
	ctx int
}

// New creates an empty constraint graph.
func New() *Graph {
	return &Graph{
		vars:       map[varKey]*VarNode{},
		methodVars: map[*ir.Method][]*VarNode{},
		fields:     map[*ir.Field]*FieldNode{},
		activities: map[*ir.Class]*ActivityNode{},
		layoutIDs:  map[int]*LayoutIDNode{},
		viewIDs:    map[int]*ViewIDNode{},
		stringIDs:  map[int]*StringIDNode{},
		classes:    map[*ir.Class]*ClassNode{},
		menus:      map[*ir.Class]*MenuNode{},
		menuItems:  map[*OpNode]*MenuItemNode{},
		ctxLabels:  map[int]string{},
		ctxIDs:     map[string]int{},
		ctxVars:    map[*ir.Var][]*VarNode{},
		flowSucc:   map[Node][]Node{},
		flowSet:    map[edgeKey]bool{},
		children:   newRelation(),
		parents:    newRelation(),
		viewIDRel:  newRelation(),
		listeners:  newRelation(),
		roots:      newRelation(),
		layoutOf:   newRelation(),
		targets:    newRelation(),
		menuRel:    newRelation(),
	}
}

func (g *Graph) register(n Node) {
	g.nodes = append(g.nodes, n)
}

func (g *Graph) nextID() base { return base{id: len(g.nodes)} }

// Nodes returns all nodes in creation order.
func (g *Graph) Nodes() []Node { return g.nodes }

// VarNode returns (creating on demand) the context-insensitive node for v.
func (g *Graph) VarNode(v *ir.Var) *VarNode { return g.VarNodeCtx(v, 0) }

// VarNodeCtx returns (creating on demand) the node for v under a cloning
// context (0 = context-insensitive).
func (g *Graph) VarNodeCtx(v *ir.Var, ctx int) *VarNode {
	k := varKey{v, ctx}
	if n, ok := g.vars[k]; ok {
		return n
	}
	n := &VarNode{base: g.nextID(), Var: v, Ctx: ctx, CtxLabel: g.ctxLabels[ctx]}
	g.vars[k] = n
	if v.Method != nil {
		g.methodVars[v.Method] = append(g.methodVars[v.Method], n)
	}
	if ctx != 0 {
		g.ctxVars[v] = append(g.ctxVars[v], n)
	}
	g.register(n)
	return n
}

// InternContext returns the cloning context id for a label, allocating one
// on first use. The same label always maps to the same id, so cloning keyed
// by label (per receiver class, say) reuses one context across call sites,
// and VarNodeCtx nodes under the context render the label.
func (g *Graph) InternContext(label string) int {
	if id, ok := g.ctxIDs[label]; ok {
		return id
	}
	g.ctxSeq++
	g.ctxLabels[g.ctxSeq] = label
	g.ctxIDs[label] = g.ctxSeq
	return g.ctxSeq
}

// VarContextClones returns v's non-zero-context clone nodes, nil when v was
// never cloned (always, under context-insensitive solving). Unlike
// ContextVarNodes it allocates nothing and creates no node on demand.
func (g *Graph) VarContextClones(v *ir.Var) []*VarNode { return g.ctxVars[v] }

// ContextVarNodes returns every node of v across cloning contexts: the
// context-insensitive node (created on demand, first) followed by any
// per-context clones in creation order. Renderers use it to project
// contexts away from the solution.
func (g *Graph) ContextVarNodes(v *ir.Var) []*VarNode {
	base := g.VarNodeCtx(v, 0)
	clones := g.ctxVars[v]
	out := make([]*VarNode, 0, 1+len(clones))
	out = append(out, base)
	return append(out, clones...)
}

// MethodVarNodes returns the variable nodes created for m's variables since
// the index was last dropped. Incremental retraction uses it to find the
// nodes a re-lowered body orphans without scanning every node ever created.
func (g *Graph) MethodVarNodes(m *ir.Method) []*VarNode { return g.methodVars[m] }

// DropMethodVarNodes resets m's variable-node index. The still-live receiver
// and parameter nodes simply leave the index — they are only ever looked up
// through VarNode, never through it.
func (g *Graph) DropMethodVarNodes(m *ir.Method) { delete(g.methodVars, m) }

// VisitMenuItemNodes calls visit for every live menu-item node with its
// creating operation, in unspecified order.
func (g *Graph) VisitMenuItemNodes(visit func(op *OpNode, item *MenuItemNode)) {
	for op, item := range g.menuItems {
		visit(op, item)
	}
}

// FieldNode returns (creating on demand) the node for f.
func (g *Graph) FieldNode(f *ir.Field) *FieldNode {
	if n, ok := g.fields[f]; ok {
		return n
	}
	n := &FieldNode{base: g.nextID(), Field: f}
	g.fields[f] = n
	g.register(n)
	return n
}

// ActivityNode returns (creating on demand) the node for activity class c.
func (g *Graph) ActivityNode(c *ir.Class) *ActivityNode {
	if n, ok := g.activities[c]; ok {
		return n
	}
	n := &ActivityNode{base: g.nextID(), Class: c}
	g.activities[c] = n
	g.register(n)
	return n
}

// LayoutIDNode returns (creating on demand) the node for a layout constant.
func (g *Graph) LayoutIDNode(resID int, name string) *LayoutIDNode {
	if n, ok := g.layoutIDs[resID]; ok {
		return n
	}
	n := &LayoutIDNode{base: g.nextID(), ResID: resID, Name: name}
	g.layoutIDs[resID] = n
	g.register(n)
	return n
}

// ViewIDNode returns (creating on demand) the node for a view id constant.
func (g *Graph) ViewIDNode(resID int, name string) *ViewIDNode {
	if n, ok := g.viewIDs[resID]; ok {
		return n
	}
	n := &ViewIDNode{base: g.nextID(), ResID: resID, Name: name}
	g.viewIDs[resID] = n
	g.register(n)
	return n
}

// StringIDNode returns (creating on demand) the node for a string resource
// constant.
func (g *Graph) StringIDNode(resID int, name string) *StringIDNode {
	if n, ok := g.stringIDs[resID]; ok {
		return n
	}
	n := &StringIDNode{base: g.nextID(), ResID: resID, Name: name}
	g.stringIDs[resID] = n
	g.register(n)
	return n
}

// MenuNode returns (creating on demand) the options-menu node for an
// activity class.
func (g *Graph) MenuNode(c *ir.Class) *MenuNode {
	if n, ok := g.menus[c]; ok {
		return n
	}
	n := &MenuNode{base: g.nextID(), Activity: c}
	g.menus[c] = n
	g.register(n)
	return n
}

// MenuItemNode returns (creating on demand) the node for the items created
// at one Menu.add operation.
func (g *Graph) MenuItemNode(op *OpNode) *MenuItemNode {
	if n, ok := g.menuItems[op]; ok {
		return n
	}
	n := &MenuItemNode{base: g.nextID(), Op: op}
	g.menuItems[op] = n
	g.register(n)
	return n
}

// ClassNode returns (creating on demand) the node for a class literal.
func (g *Graph) ClassNode(c *ir.Class) *ClassNode {
	if n, ok := g.classes[c]; ok {
		return n
	}
	n := &ClassNode{base: g.nextID(), Class: c}
	g.classes[c] = n
	g.register(n)
	return n
}

// NewAllocNode creates the node for one allocation site.
func (g *Graph) NewAllocNode(site *ir.New, m *ir.Method, isView, isListener, isDialog bool) *AllocNode {
	n := &AllocNode{
		base:       g.nextID(),
		Site:       site,
		Method:     m,
		Class:      site.Class,
		IsView:     isView,
		IsListener: isListener,
		IsDialog:   isDialog,
		Ordinal:    g.allocSeq,
	}
	g.allocSeq++
	g.allocs = append(g.allocs, n)
	g.register(n)
	return n
}

// NewInflNode creates the node for one inflated layout-definition node.
func (g *Graph) NewInflNode(op *OpNode, layoutName string, path int, class *ir.Class, idName, onClick string) *InflNode {
	n := &InflNode{
		base:       g.nextID(),
		Op:         op,
		LayoutName: layoutName,
		Path:       path,
		Class:      class,
		IDName:     idName,
		OnClick:    onClick,
	}
	g.infls = append(g.infls, n)
	g.register(n)
	return n
}

// NewOpNode creates an operation node.
func (g *Graph) NewOpNode(kind platform.OpKind, site *ir.Invoke, m *ir.Method) *OpNode {
	n := &OpNode{base: g.nextID(), Kind: kind, Site: site, Method: m}
	g.ops = append(g.ops, n)
	g.register(n)
	return n
}

// Allocs returns all allocation nodes in creation order.
func (g *Graph) Allocs() []*AllocNode { return g.allocs }

// Infls returns all inflation-created view nodes in creation order.
func (g *Graph) Infls() []*InflNode { return g.infls }

// Ops returns all operation nodes in creation order.
func (g *Graph) Ops() []*OpNode { return g.ops }

// Activities returns all activity nodes in creation order.
func (g *Graph) Activities() []*ActivityNode {
	var out []*ActivityNode
	for _, n := range g.nodes {
		if a, ok := n.(*ActivityNode); ok {
			out = append(out, a)
		}
	}
	return out
}

// LayoutIDs returns all layout id nodes in creation order.
func (g *Graph) LayoutIDs() []*LayoutIDNode {
	var out []*LayoutIDNode
	for _, n := range g.nodes {
		if l, ok := n.(*LayoutIDNode); ok {
			out = append(out, l)
		}
	}
	return out
}

// ViewIDs returns all view id nodes in creation order.
func (g *Graph) ViewIDs() []*ViewIDNode {
	var out []*ViewIDNode
	for _, n := range g.nodes {
		if v, ok := n.(*ViewIDNode); ok {
			out = append(out, v)
		}
	}
	return out
}

// AddFlow adds a value-flow edge; reports whether it is new.
func (g *Graph) AddFlow(src, dst Node) bool {
	k := edgeKey{src.ID(), dst.ID()}
	if g.flowSet[k] {
		return false
	}
	g.flowSet[k] = true
	g.flowSucc[src] = append(g.flowSucc[src], dst)
	g.numFlow++
	return true
}

// FlowSucc returns the flow successors of n in insertion order.
func (g *Graph) FlowSucc(n Node) []Node { return g.flowSucc[n] }

// VisitFlow calls visit once per flow source with its successor list, in
// unspecified order. The slice is the graph's backing store; callers must
// not modify it or the flow edges during the visit.
func (g *Graph) VisitFlow(visit func(src Node, dsts []Node)) {
	for src, dsts := range g.flowSucc {
		visit(src, dsts)
	}
}

// FilterFlow removes every value-flow edge for which keep reports false,
// preserving the insertion order of the surviving successors. It returns the
// number of edges removed. Used by incremental retraction to drop edges
// whose construction read an edited compilation unit.
func (g *Graph) FilterFlow(keep func(src, dst Node) bool) int {
	removed := 0
	for src, succs := range g.flowSucc {
		kept := succs[:0]
		for _, dst := range succs {
			if keep(src, dst) {
				kept = append(kept, dst)
			} else {
				delete(g.flowSet, edgeKey{src.ID(), dst.ID()})
				removed++
			}
		}
		if len(kept) == 0 {
			delete(g.flowSucc, src)
			continue
		}
		for i := len(kept); i < len(succs); i++ {
			succs[i] = nil
		}
		g.flowSucc[src] = kept
	}
	g.numFlow -= removed
	return removed
}

// NumFlowEdges returns the number of value-flow edges.
func (g *Graph) NumFlowEdges() int { return g.numFlow }

// Gen returns the relationship-edge generation counter; it changes whenever
// a relationship edge is added, invalidating reachability memos.
func (g *Graph) Gen() int { return g.gen }

// AddChild records a parent-child edge between views.
func (g *Graph) AddChild(parent, child Value) bool {
	if g.children.add(parent, child) {
		g.parents.add(child, parent)
		g.gen++
		return true
	}
	return false
}

// RemoveChild deletes a parent-child edge (both directions of the index);
// reports whether it existed.
func (g *Graph) RemoveChild(parent, child Value) bool {
	if g.children.remove(parent, child) {
		g.parents.remove(child, parent)
		g.gen++
		return true
	}
	return false
}

// RemoveViewID deletes a view ⇒ view-id association.
func (g *Graph) RemoveViewID(view, id Value) bool {
	if g.viewIDRel.remove(view, id) {
		g.gen++
		return true
	}
	return false
}

// RemoveListener deletes a view ⇒ listener association.
func (g *Graph) RemoveListener(view, lst Value) bool {
	if g.listeners.remove(view, lst) {
		g.gen++
		return true
	}
	return false
}

// RemoveRoot deletes an activity/dialog ⇒ content-root association.
func (g *Graph) RemoveRoot(owner, view Value) bool {
	if g.roots.remove(owner, view) {
		g.gen++
		return true
	}
	return false
}

// RemoveIntentTarget deletes an intent ⇒ target-class association.
func (g *Graph) RemoveIntentTarget(intent, target Value) bool {
	if g.targets.remove(intent, target) {
		g.gen++
		return true
	}
	return false
}

// RemoveMenuItem deletes a menu ⇒ item association.
func (g *Graph) RemoveMenuItem(menu, item Value) bool {
	if g.menuRel.remove(menu, item) {
		g.gen++
		return true
	}
	return false
}

// Retire removes dead nodes from the allocation, inflation, operation, and
// menu-item indices and drops layout-provenance entries rooted at them. Node
// ids stay allocated — facts recorded against retained nodes keep their ids —
// but retired nodes no longer appear in any query iteration. Used by
// incremental retraction for the nodes owned by re-lowered method bodies.
func (g *Graph) Retire(dead func(Node) bool) {
	keptAllocs := g.allocs[:0]
	for _, n := range g.allocs {
		if !dead(n) {
			keptAllocs = append(keptAllocs, n)
		}
	}
	for i := len(keptAllocs); i < len(g.allocs); i++ {
		g.allocs[i] = nil
	}
	g.allocs = keptAllocs

	keptInfls := g.infls[:0]
	for _, n := range g.infls {
		if !dead(n) {
			keptInfls = append(keptInfls, n)
		}
	}
	for i := len(keptInfls); i < len(g.infls); i++ {
		g.infls[i] = nil
	}
	g.infls = keptInfls

	keptOps := g.ops[:0]
	for _, n := range g.ops {
		if !dead(n) {
			keptOps = append(keptOps, n)
		}
	}
	for i := len(keptOps); i < len(g.ops); i++ {
		g.ops[i] = nil
	}
	g.ops = keptOps

	for op, item := range g.menuItems {
		if dead(op) || dead(item) {
			delete(g.menuItems, op)
		}
	}
	for k, n := range g.vars {
		if dead(n) {
			delete(g.vars, k)
		}
	}
	g.layoutOf.dropSrcIf(func(v Value) bool { return dead(v) })
	g.gen++
}

// Parents returns the recorded parent views of child.
func (g *Graph) Parents(child Value) []Value { return g.parents.get(child) }

// Children returns the recorded child views of parent.
func (g *Graph) Children(parent Value) []Value { return g.children.get(parent) }

// AddViewID records a view ⇒ view-id association.
func (g *Graph) AddViewID(view Value, id *ViewIDNode) bool {
	if g.viewIDRel.add(view, id) {
		g.gen++
		return true
	}
	return false
}

// ViewIDsOf returns the id nodes associated with view.
func (g *Graph) ViewIDsOf(view Value) []*ViewIDNode {
	vals := g.viewIDRel.get(view)
	out := make([]*ViewIDNode, len(vals))
	for i, v := range vals {
		out[i] = v.(*ViewIDNode)
	}
	return out
}

// AddListener records a view ⇒ listener association.
func (g *Graph) AddListener(view, lst Value) bool {
	if g.listeners.add(view, lst) {
		g.gen++
		return true
	}
	return false
}

// Listeners returns the listener values associated with view.
func (g *Graph) Listeners(view Value) []Value { return g.listeners.get(view) }

// ListenerPairs visits every (view, listener) association.
func (g *Graph) ListenerPairs(visit func(view, lst Value)) {
	g.listeners.visit(visit)
}

// ChildPairs visits every (parent, child) association.
func (g *Graph) ChildPairs(visit func(parent, child Value)) {
	g.children.visit(visit)
}

// AddRoot records an activity/dialog ⇒ content-root association.
func (g *Graph) AddRoot(owner, view Value) bool {
	if g.roots.add(owner, view) {
		g.gen++
		return true
	}
	return false
}

// Roots returns the content roots of an activity or dialog value.
func (g *Graph) Roots(owner Value) []Value { return g.roots.get(owner) }

// RootPairs visits every (owner, root) association.
func (g *Graph) RootPairs(visit func(owner, root Value)) { g.roots.visit(visit) }

// AddIntentTarget records an intent ⇒ target-class association.
func (g *Graph) AddIntentTarget(intent Value, target *ClassNode) bool {
	if g.targets.add(intent, target) {
		g.gen++
		return true
	}
	return false
}

// IntentTargets returns the target classes associated with an intent value.
func (g *Graph) IntentTargets(intent Value) []*ClassNode {
	vals := g.targets.get(intent)
	out := make([]*ClassNode, len(vals))
	for i, v := range vals {
		out[i] = v.(*ClassNode)
	}
	return out
}

// AddMenuItem records a menu ⇒ item association.
func (g *Graph) AddMenuItem(menu *MenuNode, item *MenuItemNode) bool {
	if g.menuRel.add(menu, item) {
		g.gen++
		return true
	}
	return false
}

// MenuItems returns the items recorded for a menu.
func (g *Graph) MenuItems(menu *MenuNode) []Value { return g.menuRel.get(menu) }

// MenuPairs visits every (menu, item) association.
func (g *Graph) MenuPairs(visit func(menu, item Value)) { g.menuRel.visit(visit) }

// Menus returns all menu nodes in creation order.
func (g *Graph) Menus() []*MenuNode {
	var out []*MenuNode
	for _, n := range g.nodes {
		if m, ok := n.(*MenuNode); ok {
			out = append(out, m)
		}
	}
	return out
}

// AddLayoutOf records inflated-root ⇒ layout-id provenance.
func (g *Graph) AddLayoutOf(root Value, id *LayoutIDNode) bool {
	if g.layoutOf.add(root, id) {
		g.gen++
		return true
	}
	return false
}

// LayoutOf returns the layout ids a root was inflated from.
func (g *Graph) LayoutOf(root Value) []Value { return g.layoutOf.get(root) }

// relation is an ordered, deduplicated binary relation over values.
type relation struct {
	succ map[Value][]Value
	set  map[edgeKey]bool
	srcs []Value
}

func newRelation() *relation {
	return &relation{succ: map[Value][]Value{}, set: map[edgeKey]bool{}}
}

func (r *relation) add(src, dst Value) bool {
	k := edgeKey{src.ID(), dst.ID()}
	if r.set[k] {
		return false
	}
	r.set[k] = true
	if _, ok := r.succ[src]; !ok {
		r.srcs = append(r.srcs, src)
	}
	r.succ[src] = append(r.succ[src], dst)
	return true
}

func (r *relation) remove(src, dst Value) bool {
	k := edgeKey{src.ID(), dst.ID()}
	if !r.set[k] {
		return false
	}
	delete(r.set, k)
	succs := r.succ[src]
	for i, d := range succs {
		if d.ID() == dst.ID() {
			copy(succs[i:], succs[i+1:])
			succs[len(succs)-1] = nil
			r.succ[src] = succs[:len(succs)-1]
			break
		}
	}
	// The (now possibly empty) succ entry and srcs slot stay: add() treats a
	// present succ key as "already listed in srcs", so deleting it here would
	// duplicate src in the visit order on a later re-add.
	return true
}

// dropSrcIf removes every pair whose source satisfies dead, including the
// source's slot in the visit order (safe: a dead source can never be re-added).
func (r *relation) dropSrcIf(dead func(Value) bool) {
	kept := r.srcs[:0]
	for _, s := range r.srcs {
		if dead(s) {
			for _, d := range r.succ[s] {
				delete(r.set, edgeKey{s.ID(), d.ID()})
			}
			delete(r.succ, s)
			continue
		}
		kept = append(kept, s)
	}
	for i := len(kept); i < len(r.srcs); i++ {
		r.srcs[i] = nil
	}
	r.srcs = kept
}

func (r *relation) get(src Value) []Value { return r.succ[src] }

func (r *relation) visit(f func(src, dst Value)) {
	for _, s := range r.srcs {
		for _, d := range r.succ[s] {
			f(s, d)
		}
	}
}

// IsViewValue reports whether v abstracts view objects.
func IsViewValue(v Value) bool {
	switch v := v.(type) {
	case *InflNode:
		return true
	case *AllocNode:
		return v.IsView
	}
	return false
}

// ViewClass returns the view class of a view value, or nil.
func ViewClass(v Value) *ir.Class {
	switch v := v.(type) {
	case *InflNode:
		return v.Class
	case *AllocNode:
		if v.IsView {
			return v.Class
		}
	}
	return nil
}

// IsListenerValue reports whether v may act as an event listener. Activities
// and views can be listeners too (the paper's general case); allocation
// nodes are listeners when their class implements a listener interface.
func IsListenerValue(v Value) bool {
	switch v := v.(type) {
	case *AllocNode:
		return v.IsListener
	case *ActivityNode:
		return v.IsListener
	}
	return false
}
