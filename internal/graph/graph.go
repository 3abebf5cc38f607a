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

// setID renumbers a node; only Compact calls it.
func (b *base) setID(id int) { b.id = id }

// VarNode represents one local variable, parameter, or receiver. Under
// context-sensitive cloning (core.Options.ContextSensitivity), one variable
// may have several nodes distinguished by Ctx; the context-insensitive node
// has Ctx 0. CtxLabel is the interned label of the context (the call-site
// position under 1-CFA).
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

	// varNodes holds each variable's context-insensitive node, indexed by
	// ir.Var.ID (nil until created); ctxNodes holds the cloned-context
	// nodes. A graph holds the variables of one ir.Program.
	varNodes   []*VarNode
	ctxNodes   map[varKey]*VarNode
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

	// retired counts the node slots Retire has emptied since the graph was
	// built or last compacted: nodes no index holds any more.
	retired int

	// Flow edges. flow holds each source's successors in insertion order,
	// indexed by source node id. A list deduplicates by scanning while it
	// holds at most relScan successors; flowLong holds the edges of every
	// longer list, and only those, as relation's long does.
	flow     [][]Node
	flowLong map[edgeKey]struct{}
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

	// gen increments whenever a relationship edge is added or removed. The
	// solver's delta worklist (core's opLastGen) is its only reader: an
	// operation whose stamp differs is re-applied.
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
		ctxNodes:   map[varKey]*VarNode{},
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
		flowLong:   map[edgeKey]struct{}{},
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
	if ctx == 0 {
		if v.ID < len(g.varNodes) && g.varNodes[v.ID] != nil {
			return g.varNodes[v.ID]
		}
	} else if n, ok := g.ctxNodes[varKey{v, ctx}]; ok {
		return n
	}
	n := &VarNode{base: g.nextID(), Var: v, Ctx: ctx}
	if ctx == 0 {
		if v.ID >= len(g.varNodes) {
			g.varNodes = append(g.varNodes, make([]*VarNode, v.ID+1-len(g.varNodes))...)
		}
		g.varNodes[v.ID] = n
	} else {
		n.CtxLabel = g.ctxLabels[ctx]
		g.ctxNodes[varKey{v, ctx}] = n
		g.ctxVars[v] = append(g.ctxVars[v], n)
	}
	if v.Method != nil {
		g.methodVars[v.Method] = append(g.methodVars[v.Method], n)
	}
	g.register(n)
	return n
}

// InternContext returns the cloning context id for a label, allocating one
// on first use. The same label always maps to the same id, so every CHA
// callee cloned at one call site shares its context, and VarNodeCtx nodes
// under the context render the label.
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
	sid := src.ID()
	if sid >= len(g.flow) {
		g.flow = append(g.flow, make([][]Node, sid+1-len(g.flow))...)
	}
	succs := g.flow[sid]
	if hasSucc(g.flowLong, sid, succs, dst) {
		return false
	}
	g.flow[sid] = appendSucc(g.flowLong, sid, succs, dst)
	g.numFlow++
	return true
}

// FlowSucc returns the flow successors of n in insertion order.
func (g *Graph) FlowSucc(n Node) []Node {
	if id := n.ID(); id < len(g.flow) {
		return g.flow[id]
	}
	return nil
}

// VisitFlow calls visit once per flow source with its successor list, in
// source id order. The slice is the graph's backing store; callers must
// not modify it or the flow edges during the visit.
func (g *Graph) VisitFlow(visit func(src Node, dsts []Node)) {
	for id, dsts := range g.flow {
		if len(dsts) > 0 {
			visit(g.nodes[id], dsts)
		}
	}
}

// FilterFlow removes every value-flow edge for which keep reports false,
// preserving the insertion order of the surviving successors. It returns the
// number of edges removed. Used by incremental retraction to drop edges
// whose construction read an edited compilation unit.
func (g *Graph) FilterFlow(keep func(src, dst Node) bool) int {
	removed := 0
	for sid, succs := range g.flow {
		if len(succs) == 0 {
			continue
		}
		src := g.nodes[sid]
		wasLong := len(succs) > relScan
		kept := succs[:0]
		for _, dst := range succs {
			if keep(src, dst) {
				kept = append(kept, dst)
				continue
			}
			if wasLong {
				delete(g.flowLong, edgeKey{sid, dst.ID()})
			}
			removed++
		}
		if wasLong && len(kept) <= relScan {
			for _, d := range kept {
				delete(g.flowLong, edgeKey{sid, d.ID()})
			}
		}
		clear(succs[len(kept):])
		if len(kept) == 0 {
			kept = nil
		}
		g.flow[sid] = kept
	}
	g.numFlow -= removed
	return removed
}

// NumFlowEdges returns the number of value-flow edges.
func (g *Graph) NumFlowEdges() int { return g.numFlow }

// Gen returns the relationship-edge generation counter; it changes whenever
// a relationship edge is added or removed. The solver's delta worklist reads
// it to re-apply operations after any relationship changed; nothing memoizes
// reachability against it.
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

// Retire removes dead nodes from the allocation, inflation, operation,
// menu-item and variable indices and drops layout-provenance entries rooted
// at them. Retired nodes no longer appear in any query iteration, but their
// slots stay in Nodes, and every node keeps its id, until Compact
// renumbers the live nodes: facts recorded against retained nodes keep
// their ids in between. NumRetired counts the emptied slots. Used by
// incremental retraction for the nodes owned by re-lowered method bodies.
func (g *Graph) Retire(dead func(Node) bool) {
	g.allocs = retireFrom(g, g.allocs, dead)
	g.infls = retireFrom(g, g.infls, dead)
	g.ops = retireFrom(g, g.ops, dead)
	for op, item := range g.menuItems {
		if dead(op) || dead(item) {
			delete(g.menuItems, op)
			g.retired++
		}
	}
	for id, n := range g.varNodes {
		if n != nil && dead(n) {
			g.varNodes[id] = nil
			g.retired++
		}
	}
	for k, n := range g.ctxNodes {
		if dead(n) {
			delete(g.ctxNodes, k)
			g.retired++
		}
	}
	g.layoutOf.dropSrcIf(func(v Value) bool { return dead(v) })
	g.gen++
}

// retireFrom removes the dead nodes of one creation-ordered index in place
// and counts them as retired.
func retireFrom[N Node](g *Graph, index []N, dead func(Node) bool) []N {
	kept := index[:0]
	for _, n := range index {
		if !dead(n) {
			kept = append(kept, n)
		}
	}
	clear(index[len(kept):])
	g.retired += len(index) - len(kept)
	return kept
}

// NumRetired returns the number of node slots Retire has emptied since the
// graph was built or last compacted; len(Nodes()) minus it is the number of
// live nodes.
func (g *Graph) NumRetired() int { return g.retired }

// Compact renumbers the live nodes 0..n-1 in their current relative order
// and drops the retired ones, so Nodes holds exactly the live nodes. Every
// table the graph keys or indexes by node id follows: the flow successor
// lists and their edge map, the relations (a retired source leaves its
// visit order too), and the variable-node index, rebuilt from each
// variable's current ir.Var.ID, so a caller that renumbers the program's
// variables (ir.Program.CompactVars) must do so first. Keeping the relative
// order keeps every id-ordered walk (VisitFlow, the solver's fact and set
// scans) in the order it had, with nodes created afterwards last.
//
// Compact returns the old-to-new id map, -1 for a retired node, for the
// owners of id-keyed state outside the graph. Retired nodes keep their old
// ids and must not be looked up again. A Walker needs no reset: its marks
// hold per-walk epochs, which no later walk reads as its own.
func (g *Graph) Compact() []int32 {
	remap := make([]int32, len(g.nodes))
	for i := range remap {
		remap[i] = -1
	}
	g.visitLive(func(n Node) { remap[n.ID()] = 0 })
	nodes := make([]Node, 0, len(g.nodes)-g.retired)
	for old, n := range g.nodes {
		if remap[old] >= 0 {
			remap[old] = int32(len(nodes))
			nodes = append(nodes, n)
		}
	}

	flow := make([][]Node, len(nodes))
	clear(g.flowLong)
	g.numFlow = 0
	for sid, succs := range g.flow {
		if len(succs) == 0 || remap[sid] < 0 {
			continue
		}
		nsid := int(remap[sid])
		flow[nsid] = renumberSuccs(g.flowLong, nsid, succs, remap)
		g.numFlow += len(flow[nsid])
	}
	g.flow = flow
	for _, r := range g.relations() {
		r.renumber(remap)
	}

	var varNodes []*VarNode
	for _, n := range g.varNodes {
		if n == nil {
			continue
		}
		id := n.Var.ID
		if id >= len(varNodes) {
			varNodes = append(varNodes, make([]*VarNode, id+1-len(varNodes))...)
		}
		if varNodes[id] != nil {
			panic("graph: Compact: two variable nodes share ir.Var.ID " + fmt.Sprint(id))
		}
		varNodes[id] = n
	}
	g.varNodes = varNodes

	for id, n := range nodes {
		n.(interface{ setID(int) }).setID(id)
	}
	g.nodes = nodes
	g.retired = 0
	return remap
}

// visitLive calls f for every node some index holds: the live nodes. Every
// node is created into exactly one index, and Retire removes it from that
// index, so the nodes it does not visit are exactly the retired ones.
func (g *Graph) visitLive(f func(Node)) {
	for _, n := range g.varNodes {
		if n != nil {
			f(n)
		}
	}
	for _, n := range g.ctxNodes {
		f(n)
	}
	for _, n := range g.fields {
		f(n)
	}
	for _, n := range g.activities {
		f(n)
	}
	for _, n := range g.layoutIDs {
		f(n)
	}
	for _, n := range g.viewIDs {
		f(n)
	}
	for _, n := range g.stringIDs {
		f(n)
	}
	for _, n := range g.classes {
		f(n)
	}
	for _, n := range g.menus {
		f(n)
	}
	for _, n := range g.menuItems {
		f(n)
	}
	for _, n := range g.allocs {
		f(n)
	}
	for _, n := range g.infls {
		f(n)
	}
	for _, n := range g.ops {
		f(n)
	}
}

// renumberSuccs filters succs, the successor list of the source Compact
// numbers sid, in place down to its live nodes, and enters the list's edges
// into long under their new ids when it is longer than relScan. The nodes
// still carry their old ids.
func renumberSuccs[T succNode](long map[edgeKey]struct{}, sid int, succs []T, remap []int32) []T {
	kept := succs[:0]
	for _, d := range succs {
		if remap[d.ID()] >= 0 {
			kept = append(kept, d)
		}
	}
	clear(succs[len(kept):])
	if len(kept) > relScan {
		for _, d := range kept {
			long[edgeKey{sid, int(remap[d.ID()])}] = struct{}{}
		}
	}
	return kept
}

// relations lists the graph's relationship indices.
func (g *Graph) relations() []*relation {
	return []*relation{g.children, g.parents, g.viewIDRel, g.listeners, g.roots, g.layoutOf, g.targets, g.menuRel}
}

// Parents returns the recorded parent views of child.
func (g *Graph) Parents(child Value) []Value { return g.parents.get(child) }

// Children returns the recorded child views of parent.
func (g *Graph) Children(parent Value) []Value { return g.children.get(parent) }

// walkScan is the walk length up to which a Walker deduplicates by scanning
// its buffer. View hierarchies are small (the largest content hierarchy of
// the corpus and chain apps has 40 views), so most walks never touch the
// mark array, and a walker that only ever sees small trees never allocates
// one.
const walkScan = 32

// Walker enumerates view hierarchies: Descendants returns a root and its
// transitive children (the paper's ancestorOf relation read downward,
// reflexively), breadth-first with the root first and each value once.
//
// A Walker reuses one buffer across walks. A walk of up to walkScan values
// deduplicates by scanning that buffer; a longer one marks each node it
// queues with the walk's epoch in a node-indexed array, so a repeat walk
// clears nothing. The array is cleared only when the epoch counter wraps.
// The Walker lives outside the Graph: each reader owns one for the length
// of a loop, so concurrent readers of a solved graph share no state. The
// zero value is ready to use.
type Walker struct {
	buf   []Value
	mark  []uint32 // node id -> epoch of the last marking walk that queued it
	epoch uint32
}

// Descendants walks the hierarchy under root in g. The result is the
// walker's buffer: it stays valid until the walker's next walk, and callers
// must not modify it.
func (w *Walker) Descendants(g *Graph, root Value) []Value {
	w.buf = append(w.buf[:0], root)
	for i := 0; i < len(w.buf); i++ {
		for _, c := range g.children.get(w.buf[i]) {
			if !w.queued(g, c) {
				w.buf = append(w.buf, c)
			}
		}
	}
	return w.buf
}

// queued reports whether the current walk already holds v. A walk scans
// while its buffer holds at most walkScan values; the first new value past
// that switches it to marks, and from then on queued marks each new v,
// which the caller then queues. Marking a node when it is queued yields the
// same order as marking it when it is dequeued: a node enters the buffer
// once, at its first discovery, either way.
func (w *Walker) queued(g *Graph, v Value) bool {
	if len(w.buf) <= walkScan {
		for _, x := range w.buf {
			if x == v {
				return true
			}
		}
		if len(w.buf) < walkScan {
			return false
		}
		w.startMarking(len(g.nodes))
	}
	id := v.ID()
	if id >= len(w.mark) {
		w.growMarks(len(g.nodes))
	}
	if w.mark[id] == w.epoch {
		return true
	}
	w.mark[id] = w.epoch
	return false
}

// startMarking switches the current walk to epoch marks: it takes a fresh
// epoch and marks every value already in the buffer.
func (w *Walker) startMarking(numNodes int) {
	w.epoch++
	if w.epoch == 0 {
		// Wrapped: a mark left from 2^32 walks ago would read as current.
		clear(w.mark)
		w.epoch = 1
	}
	w.growMarks(numNodes)
	for _, v := range w.buf {
		w.mark[v.ID()] = w.epoch
	}
}

// growMarks sizes the mark array for at least numNodes node ids, doubling
// to amortize: the solver materializes nodes between walks. Nodes new to
// the array start unmarked.
func (w *Walker) growMarks(numNodes int) {
	if numNodes <= len(w.mark) {
		return
	}
	if c := 2 * len(w.mark); numNodes < c {
		numNodes = c
	}
	grown := make([]uint32, numNodes)
	copy(grown, w.mark)
	w.mark = grown
}

// AddViewID records a view ⇒ view-id association.
func (g *Graph) AddViewID(view Value, id *ViewIDNode) bool {
	if g.viewIDRel.add(view, id) {
		g.gen++
		return true
	}
	return false
}

// HasViewID reports whether view carries id. Unlike ViewIDsOf it copies
// nothing.
func (g *Graph) HasViewID(view Value, id *ViewIDNode) bool {
	return g.viewIDRel.contains(view, id)
}

// ViewIDValues returns the id nodes associated with view without copying:
// the slice is the graph's backing store, and callers must not modify it.
func (g *Graph) ViewIDValues(view Value) []Value { return g.viewIDRel.get(view) }

// ViewIDsOf returns a copy of the id nodes associated with view.
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

// relScan is the successor-list length up to which a relation, or a node's
// flow successors, deduplicates an edge by scanning the list. Nearly every
// list is that short: 57 of the 6,092 non-empty lists over the 20 corpus
// apps' relations are longer, and 540 of the 35,550 of the 9 chain apps,
// up to 81 listeners on one view; of their flow lists, 32 of 35,836 and 9
// of 13,875. A longer list also keeps its edges in an edge map.
const relScan = 8

// relation is an ordered, deduplicated binary relation over values. Values
// of one graph are equal exactly when their ids are, so a scan compares
// values directly.
type relation struct {
	// succ holds each source's successors in insertion order, keyed by
	// source id.
	succ map[int][]Value
	// long holds the edges of every source with more than relScan
	// successors, and only those.
	long map[edgeKey]struct{}
	// srcs lists each source once, in first-insertion order.
	srcs []Value
}

func newRelation() *relation {
	return &relation{succ: map[int][]Value{}, long: map[edgeKey]struct{}{}}
}

func (r *relation) contains(src, dst Value) bool {
	sid := src.ID()
	return hasSucc(r.long, sid, r.succ[sid], dst)
}

func (r *relation) add(src, dst Value) bool {
	sid := src.ID()
	succs, listed := r.succ[sid]
	if hasSucc(r.long, sid, succs, dst) {
		return false
	}
	if !listed {
		r.srcs = append(r.srcs, src)
	}
	r.succ[sid] = appendSucc(r.long, sid, succs, dst)
	return true
}

// succNode is the element type of a successor list: Node or Value.
type succNode interface {
	comparable
	ID() int
}

// hasSucc reports whether succs, the successor list of source sid, holds
// dst: by scan up to relScan successors, and past that by long, which holds
// the edges of every list longer than relScan and only those. Relations and
// the flow edges share this policy.
func hasSucc[T succNode](long map[edgeKey]struct{}, sid int, succs []T, dst T) bool {
	if len(succs) > relScan {
		_, ok := long[edgeKey{sid, dst.ID()}]
		return ok
	}
	for _, d := range succs {
		if d == dst {
			return true
		}
	}
	return false
}

// appendSucc appends dst, which hasSucc reported absent, to succs, the
// successor list of source sid, and keeps long: the list that grows past
// relScan enters it whole, and a longer list adds its new edge.
func appendSucc[T succNode](long map[edgeKey]struct{}, sid int, succs []T, dst T) []T {
	succs = append(succs, dst)
	switch {
	case len(succs) == relScan+1:
		for _, d := range succs {
			long[edgeKey{sid, d.ID()}] = struct{}{}
		}
	case len(succs) > relScan+1:
		long[edgeKey{sid, dst.ID()}] = struct{}{}
	}
	return succs
}

func (r *relation) remove(src, dst Value) bool {
	sid := src.ID()
	succs := r.succ[sid]
	i := 0
	for i < len(succs) && succs[i] != dst {
		i++
	}
	if i == len(succs) {
		return false
	}
	if len(succs) > relScan {
		delete(r.long, edgeKey{sid, dst.ID()})
	}
	copy(succs[i:], succs[i+1:])
	succs[len(succs)-1] = nil
	succs = succs[:len(succs)-1]
	r.succ[sid] = succs
	if len(succs) == relScan {
		for _, d := range succs {
			delete(r.long, edgeKey{sid, d.ID()})
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
			if succs := r.succ[s.ID()]; len(succs) > relScan {
				for _, d := range succs {
					delete(r.long, edgeKey{s.ID(), d.ID()})
				}
			}
			delete(r.succ, s.ID())
			continue
		}
		kept = append(kept, s)
	}
	for i := len(kept); i < len(r.srcs); i++ {
		r.srcs[i] = nil
	}
	r.srcs = kept
}

// renumber rekeys the relation by the new ids of remap (see
// Graph.Compact) while the values still carry their old ones. Retired
// sources leave the visit order, with the empty lists remove leaves
// behind, and retired successors leave their lists.
func (r *relation) renumber(remap []int32) {
	succ := make(map[int][]Value, len(r.succ))
	clear(r.long)
	kept := r.srcs[:0]
	for _, s := range r.srcs {
		old := s.ID()
		if remap[old] < 0 {
			continue
		}
		kept = append(kept, s)
		sid := int(remap[old])
		succ[sid] = renumberSuccs(r.long, sid, r.succ[old], remap)
	}
	clear(r.srcs[len(kept):])
	r.srcs = kept
	r.succ = succ
}

func (r *relation) get(src Value) []Value { return r.succ[src.ID()] }

func (r *relation) visit(f func(src, dst Value)) {
	for _, s := range r.srcs {
		for _, d := range r.succ[s.ID()] {
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
