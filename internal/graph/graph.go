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
	"gator/internal/slab"
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
	// nodes. A graph holds the variables of one ir.Program. methodVars
	// groups the variable nodes by method; it is nil until MethodVarNodes
	// first asks, since only incremental retraction reads it.
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

	// Flow edges: flowAt holds, per node id, 1 + the position of the
	// node's successor list in flows (0: the node never had a successor),
	// and flows holds the lists in the order their sources gained a first
	// edge (in source id order after a compaction). Most nodes are no flow
	// source, so they pay 4 bytes each, not a list header.
	flowAt  []int32
	flows   []flowList
	numFlow int

	// Relationship edges, grown during solving: one table per Rel, and
	// the source index they share.
	rels   [numRels][]relList
	relIdx relIndex

	// gen increments whenever a relationship edge is added or removed. The
	// solver's delta worklist (core's opLastGen) is its only reader: an
	// operation whose stamp differs is re-applied.
	gen int
}

type varKey struct {
	v   *ir.Var
	ctx int
}

// New creates an empty constraint graph.
func New() *Graph {
	return &Graph{
		ctxNodes:   map[varKey]*VarNode{},
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
	}
}

// register appends n to the node array, doubling its capacity when full.
func (g *Graph) register(n Node) { g.nodes = append(slab.Grow(g.nodes, len(g.nodes)+1, 64), n) }

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
		g.varNodes = slab.GrowTo(g.varNodes, v.ID+1)
		g.varNodes[v.ID] = n
	} else {
		n.CtxLabel = g.ctxLabels[ctx]
		g.ctxNodes[varKey{v, ctx}] = n
		g.ctxVars[v] = append(g.ctxVars[v], n)
	}
	if g.methodVars != nil && v.Method != nil {
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

// MethodVarNodes returns the live variable nodes of m's variables created
// since the index was last dropped, in creation order. Incremental
// retraction uses it to find the nodes a re-lowered body orphans without
// scanning every node on each edit. The index is built from the live
// variable nodes on the first call, which cold solves never make, and kept
// up to date from then on.
func (g *Graph) MethodVarNodes(m *ir.Method) []*VarNode {
	if g.methodVars == nil {
		g.methodVars = map[*ir.Method][]*VarNode{}
		for _, n := range g.nodes {
			if vn, ok := n.(*VarNode); ok && vn.Var.Method != nil && g.liveVarNode(vn) {
				g.methodVars[vn.Var.Method] = append(g.methodVars[vn.Var.Method], vn)
			}
		}
	}
	return g.methodVars[m]
}

// liveVarNode reports whether a variable index still holds n.
func (g *Graph) liveVarNode(n *VarNode) bool {
	if n.Ctx != 0 {
		return g.ctxNodes[varKey{n.Var, n.Ctx}] == n
	}
	return n.Var.ID < len(g.varNodes) && g.varNodes[n.Var.ID] == n
}

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

// flowList is the flow edges out of one node: their destinations in
// insertion order, and in labels[i] the label of the edge to the i-th
// destination, an index into a table the solver keeps (0 for an edge that
// carries nothing beyond its endpoints). labels stays nil until an edge of
// the list gets a label: without Options.Incremental most lists never do.
// The graph stores labels and never reads them.
type flowList struct {
	dsts   IDList
	labels []int32
}

// filter rewrites the list by IDList.filter, each label moving with its
// edge: f gets an edge's destination and label and returns the destination
// to keep, or false to drop the edge.
func (l *flowList) filter(f func(dst, label int32) (int32, bool)) int {
	n := 0
	dropped := l.dsts.filter(func(at int, dst int32) (int32, bool) {
		var label int32
		if l.labels != nil {
			label = l.labels[at]
		}
		to, ok := f(dst, label)
		if ok && l.labels != nil {
			l.labels[n] = label
			n++
		}
		return to, ok
	})
	l.labels = l.labels[:n]
	if n == 0 {
		l.labels = nil
	}
	return dropped
}

// flowOf returns the successor list of the node with id, nil when the node
// never had a successor. The pointer is valid until a node gains its first
// successor.
func (g *Graph) flowOf(id int) *flowList {
	if id < len(g.flowAt) {
		if at := g.flowAt[id]; at != 0 {
			return &g.flows[at-1]
		}
	}
	return nil
}

// AddFlow adds an unlabeled value-flow edge; reports whether it is new.
func (g *Graph) AddFlow(src, dst Node) bool {
	sid := src.ID()
	l := g.flowOf(sid)
	if l == nil {
		g.flowAt = slab.GrowTo(g.flowAt, sid+1)
		g.flows = slab.Push(g.flows, flowList{})
		g.flowAt[sid] = int32(len(g.flows))
		l = &g.flows[len(g.flows)-1]
	}
	if !l.dsts.Add(nodeID(dst)) {
		return false
	}
	if l.labels != nil {
		l.labels = append(l.labels, 0)
	}
	g.numFlow++
	return true
}

// FlowLabel returns the label of the edge src → dst, which must exist, for
// the caller to read or set. The pointer is valid until the next change to
// src's successors. The search runs from the newest edge, so labeling the
// edge AddFlow just added costs no scan.
func (g *Graph) FlowLabel(src, dst Node) *int32 {
	l := g.flowOf(src.ID())
	dsts, did := l.dsts.IDs(), nodeID(dst)
	i := len(dsts) - 1
	for i >= 0 && dsts[i] != did {
		i--
	}
	if i < 0 {
		panic("graph: FlowLabel of a missing edge")
	}
	if l.labels == nil {
		l.labels = make([]int32, len(dsts))
	}
	return &l.labels[i]
}

// FlowSucc returns the flow edges out of n, as FlowSuccID does.
func (g *Graph) FlowSucc(n Node) (dsts, labels []int32) { return g.FlowSuccID(n.ID()) }

// FlowSuccID returns the flow edges out of the node with the given id: the
// destinations' node ids in insertion order and, in labels[i], the label of
// the edge to dsts[i]. labels is nil when no edge of the list has a label.
// The slices are the graph's backing store; callers must not modify them.
func (g *Graph) FlowSuccID(id int) (dsts, labels []int32) {
	if l := g.flowOf(id); l != nil {
		return l.dsts.IDs(), l.labels
	}
	return nil, nil
}

// VisitFlow calls visit once per flow source with its edges, as FlowSuccID
// returns them, in source id order. Callers must not modify the slices or
// the flow edges during the visit.
func (g *Graph) VisitFlow(visit func(src Node, dsts, labels []int32)) {
	for id, at := range g.flowAt {
		if at == 0 {
			continue
		}
		if l := &g.flows[at-1]; l.dsts.Len() > 0 {
			visit(g.nodes[id], l.dsts.IDs(), l.labels)
		}
	}
}

// FilterFlow removes every value-flow edge for which keep reports false,
// preserving the insertion order of the surviving successors. It returns the
// number of edges removed; the labels of removed edges are the caller's to
// release. Used by incremental retraction to drop edges whose construction
// read an edited compilation unit.
func (g *Graph) FilterFlow(keep func(src Node, dst, label int32) bool) int {
	removed := 0
	for sid, at := range g.flowAt {
		if at == 0 {
			continue
		}
		l := &g.flows[at-1]
		if l.dsts.Len() == 0 {
			continue
		}
		src := g.nodes[sid]
		removed += l.filter(func(dst, label int32) (int32, bool) { return dst, keep(src, dst, label) })
	}
	g.numFlow -= removed
	return removed
}

// NumFlowEdges returns the number of value-flow edges.
func (g *Graph) NumFlowEdges() int { return g.numFlow }

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
	g.dropSrcIf(RelLayoutOf, func(id int32) bool { return dead(g.nodes[id]) })
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
// lists (each edge keeps its label), the relations and their shared source
// index (a retired source leaves its visit order too), and the
// variable-node index, rebuilt from each
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

	g.compactFlow(remap, len(nodes))
	g.compactRelations(remap, len(nodes))

	var varNodes []*VarNode
	for _, n := range g.varNodes {
		if n == nil {
			continue
		}
		id := n.Var.ID
		varNodes = slab.GrowTo(varNodes, id+1)
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

// compactFlow moves each live source's successor list to the source's new
// id and renumbers its destinations, dropping edges to retired nodes and
// lists left empty; the labels stay with their edges. The kept lists are
// laid out in source id order, as the points-to table's sets are. remap
// never raises an id, so the slots move down in place.
func (g *Graph) compactFlow(remap []int32, numNodes int) {
	flows := make([]flowList, 0, len(g.flows))
	g.numFlow = 0
	for old, at := range g.flowAt {
		if at == 0 {
			continue
		}
		g.flowAt[old] = 0
		if to := remap[old]; to >= 0 {
			l := g.flows[at-1]
			l.filter(func(dst, _ int32) (int32, bool) { return remap[dst], remap[dst] >= 0 })
			if l.dsts.Len() > 0 {
				flows = append(flows, l)
				g.flowAt[to] = int32(len(flows))
				g.numFlow += l.dsts.Len()
			}
		}
	}
	g.flows = flows
	g.flowAt = g.flowAt[:min(len(g.flowAt), numNodes)]
}

// nodeID returns n's id as the relations and the flow lists store it.
func nodeID(n Node) int32 { return int32(n.ID()) }

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
// A Walker reuses one buffer of node ids across walks. A walk of up to
// walkScan values deduplicates by scanning that buffer; a longer one marks
// each node it queues with the walk's epoch in a node-indexed array, so a
// repeat walk clears nothing. The array is cleared only when the epoch
// counter wraps. The Walker lives outside the Graph: each reader owns one
// for the length of a loop, so concurrent readers of a solved graph share
// no state. The zero value is ready to use.
type Walker struct {
	buf   []int32
	mark  []uint32 // node id -> epoch of the last marking walk that queued it
	epoch uint32
}

// Descendants walks the hierarchy under root in g. The result is a view of
// the walker's buffer: it stays valid until the walker's next walk.
func (w *Walker) Descendants(g *Graph, root Value) Values {
	w.buf = append(w.buf[:0], nodeID(root))
	for i := 0; i < len(w.buf); i++ {
		for _, c := range g.succIDs(RelChild, w.buf[i]) {
			if !w.queued(len(g.nodes), c) {
				w.buf = append(w.buf, c)
			}
		}
	}
	return g.Values(w.buf)
}

// queued reports whether the current walk already holds node id. A walk
// scans while its buffer holds at most walkScan values; the first new value
// past that switches it to marks, and from then on queued marks each new
// id, which the caller then queues. Marking a node when it is queued
// yields the same order as marking it when it is dequeued: a node enters
// the buffer once, at its first discovery, either way.
func (w *Walker) queued(numNodes int, id int32) bool {
	if len(w.buf) <= walkScan {
		for _, x := range w.buf {
			if x == id {
				return true
			}
		}
		if len(w.buf) < walkScan {
			return false
		}
		w.startMarking(numNodes)
	}
	if int(id) >= len(w.mark) {
		w.growMarks(numNodes)
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
	for _, id := range w.buf {
		w.mark[id] = w.epoch
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
