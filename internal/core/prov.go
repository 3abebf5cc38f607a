package core

// Derivation provenance: when Options.Provenance is set, every fact the
// fixpoint solver derives — flowsTo(n, v) facts in points-to sets and the
// relationship facts ancestorOf/hasId/hasListener/rootView/... — records
// the inference rule that produced it (the paper's Section 4.2 rule names:
// Inflate1/2, AddView1/2, SetId, SetListener, FindView1/2/3, plus the
// extension rules) and the premise facts the rule consumed. The records
// form a derivation DAG: every premise of a fact was established strictly
// before the fact itself, so expanding premises always terminates.
//
// Fact identity is the (kind, node id, node id) triple. Graph node ids are
// assigned in construction order, which is deterministic for a given
// (input, options) pair, so fact ids — and therefore rendered derivation
// trees — are stable across runs and across batch parallelism levels. This
// stability is what makes the DAG usable as a substrate for incremental
// solving later: a re-run derives the same facts under the same ids.
//
// Only the first derivation of each fact is kept. First derivations are
// minimal in derivation order: every premise chain bottoms out in Seed
// facts through the shortest rule sequence the solver actually executed.

import (
	"fmt"
	"sort"
	"strings"

	"gator/internal/graph"
)

// FactKind classifies a derived fact: FactFlow, or the graph.Rel of a
// relationship fact, which is never 0.
type FactKind uint8

const (
	// FactFlow is flowsTo(node, value): the value reaches the variable,
	// field, or operation-output node.
	FactFlow FactKind = 0
	// FactChild is one direct parent-child view edge — an instance of the
	// paper's ancestorOf relation.
	FactChild = FactKind(graph.RelChild)
	// FactViewID is hasId(view, id).
	FactViewID = FactKind(graph.RelViewID)
	// FactListener is hasListener(view, listener).
	FactListener = FactKind(graph.RelListener)
	// FactRoot is rootView(owner, view): the view is a content root of the
	// activity or dialog.
	FactRoot = FactKind(graph.RelRoot)
	// FactIntent is intentTarget(intent, class).
	FactIntent = FactKind(graph.RelIntent)
	// FactMenuItem is menuItem(menu, item).
	FactMenuItem = FactKind(graph.RelMenuItem)
)

var factKindNames = [...]string{
	FactFlow:     "flowsTo",
	FactChild:    "ancestorOf",
	FactViewID:   "hasId",
	FactListener: "hasListener",
	FactRoot:     "rootView",
	FactIntent:   "intentTarget",
	FactMenuItem: "menuItem",
}

func (k FactKind) String() string {
	if int(k) < len(factKindNames) {
		return factKindNames[k]
	}
	return "fact?"
}

// Fact identifies one derived fact by kind and the graph-node ids of its
// two operands. For FactFlow, A is the variable/field node and B the value;
// for relationship facts, A and B are the related values.
type Fact struct {
	Kind FactKind
	A, B int
}

// Derivation is one recorded rule application: the rule name and the
// premise facts it consumed, in rule-evaluation order.
type Derivation struct {
	Rule     string
	Premises []Fact
}

// recorder accumulates the derivation DAG during solving.
type recorder struct {
	deriv map[Fact]Derivation
}

func newRecorder() *recorder {
	return &recorder{deriv: map[Fact]Derivation{}}
}

// record keeps the first derivation of f; later re-derivations are ignored
// so the DAG stays well-founded and minimal.
func (rec *recorder) record(f Fact, rule string, premises ...Fact) {
	if _, ok := rec.deriv[f]; ok {
		return
	}
	rec.deriv[f] = Derivation{Rule: rule, Premises: append([]Fact(nil), premises...)}
}

// flowFact returns flowsTo(n, v).
func flowFact(n graph.Node, v graph.Value) Fact { return Fact{FactFlow, n.ID(), v.ID()} }

// relFact returns the fact that rel holds src ⇒ dst.
func relFact(rel graph.Rel, src, dst graph.Value) Fact {
	return Fact{FactKind(rel), src.ID(), dst.ID()}
}

// childPath returns the chain of direct child facts along one recorded path
// from ancestor anc down to descendant desc (nil when anc == desc). The
// path is found by walking desc's recorded parents breadth-first in
// insertion order, so it is deterministic and uses only edges the solver
// actually added. Called only while recording provenance.
func (a *analysis) childPath(anc, desc graph.Value) []Fact {
	if anc.ID() == desc.ID() {
		return nil
	}
	// BFS upward from desc to anc over parent edges; via maps each visited
	// ancestor to the child we climbed up from (toward desc).
	via := map[int]graph.Value{}
	queue := []graph.Value{desc}
	seen := map[int]bool{desc.ID(): true}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v.ID() == anc.ID() {
			// Reconstruct downward: anc -> ... -> desc.
			var out []Fact
			for cur := v; cur.ID() != desc.ID(); {
				child := via[cur.ID()]
				out = append(out, relFact(graph.RelChild, cur, child))
				cur = child
			}
			return out
		}
		parents := a.g.Parents(v)
		for k := range parents.Len() {
			p := parents.At(k)
			if !seen[p.ID()] {
				seen[p.ID()] = true
				via[p.ID()] = v
				queue = append(queue, p)
			}
		}
	}
	return nil
}

// DerivNode is one node of a rendered derivation tree: a fact, the rule
// that derived it, and the derivations of its premises. Facts that were
// already expanded elsewhere in the same tree appear once in full; repeat
// occurrences carry Repeat=true and no premises, keeping the tree minimal.
type DerivNode struct {
	Fact     Fact
	Rule     string
	Premises []*DerivNode
	Repeat   bool
}

// HasProvenance reports whether the run recorded a derivation DAG
// (Options.Provenance).
func (r *Result) HasProvenance() bool { return r.rec != nil }

// Why expands the minimal derivation tree of a fact. It returns nil when
// provenance was not recorded or the fact was never derived.
func (r *Result) Why(f Fact) *DerivNode {
	if r.rec == nil {
		return nil
	}
	if _, ok := r.rec.deriv[f]; !ok {
		return nil
	}
	seen := map[Fact]bool{}
	var expand func(f Fact) *DerivNode
	expand = func(f Fact) *DerivNode {
		d, ok := r.rec.deriv[f]
		if !ok {
			// A premise recorded without its own derivation (should not
			// happen; defensive).
			return &DerivNode{Fact: f, Rule: "?"}
		}
		n := &DerivNode{Fact: f, Rule: d.Rule}
		if seen[f] {
			n.Repeat = true
			return n
		}
		seen[f] = true
		for _, p := range d.Premises {
			n.Premises = append(n.Premises, expand(p))
		}
		return n
	}
	return expand(f)
}

// FactString renders a fact using the graph's node names, e.g.
// "flowsTo(Var[Main.onCreate().btn], Infl[Button@main:2 id=go #op7])".
func (r *Result) FactString(f Fact) string {
	nodes := r.Graph.Nodes()
	name := func(id int) string {
		if id >= 0 && id < len(nodes) {
			return nodes[id].String()
		}
		return fmt.Sprintf("node#%d", id)
	}
	return fmt.Sprintf("%s(%s, %s)", f.Kind, name(f.A), name(f.B))
}

// RenderDerivation renders the minimal derivation tree of a fact as
// indented text, one fact per line with its deriving rule in brackets:
//
//	flowsTo(Var[...], Infl[...])  [FindView2]
//	├─ flowsTo(Var[...this], Activity[Main])  [Seed]
//	└─ rootView(Activity[Main], Infl[...])  [Inflate2]
//
// Returns "" when the fact has no recorded derivation.
func (r *Result) RenderDerivation(f Fact) string {
	root := r.Why(f)
	if root == nil {
		return ""
	}
	var b strings.Builder
	var walk func(n *DerivNode, prefix string, childPrefix string)
	walk = func(n *DerivNode, prefix, childPrefix string) {
		b.WriteString(prefix)
		b.WriteString(r.FactString(n.Fact))
		b.WriteString("  [")
		b.WriteString(n.Rule)
		if n.Repeat {
			b.WriteString(", shown above")
		}
		b.WriteString("]\n")
		for i, p := range n.Premises {
			if i == len(n.Premises)-1 {
				walk(p, childPrefix+"└─ ", childPrefix+"   ")
			} else {
				walk(p, childPrefix+"├─ ", childPrefix+"│  ")
			}
		}
	}
	walk(root, "", "")
	return b.String()
}

// FlowFactOf returns the flowsTo fact for value v at node n, for use with
// Why/RenderDerivation. The boolean reports whether the fact holds in the
// solution.
func (r *Result) FlowFactOf(n graph.Node, v graph.Value) (Fact, bool) {
	s := r.pts.of(n.ID())
	if s == nil || !s.Has(int32(v.ID())) {
		return Fact{}, false
	}
	return flowFact(n, v), true
}

// ViewIDFacts returns, for the view id named name, one hasId fact per view
// carrying that id, in deterministic (view node id) order. Used by the
// "-explain id:<name>" query.
func (r *Result) ViewIDFacts(name string) []Fact {
	var idNode *graph.ViewIDNode
	for _, id := range r.Graph.ViewIDs() {
		if id.Name == name {
			idNode = id
			break
		}
	}
	if idNode == nil {
		return nil
	}
	var out []Fact
	add := func(v graph.Value) {
		if r.Graph.Has(graph.RelViewID, v, idNode) {
			out = append(out, relFact(graph.RelViewID, v, idNode))
		}
	}
	for _, n := range r.Graph.Infls() {
		add(n)
	}
	for _, n := range r.Graph.Allocs() {
		add(n)
	}
	for _, m := range r.Graph.Menus() {
		items := r.Graph.Succ(graph.RelMenuItem, m)
		for k := range items.Len() {
			add(items.At(k))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].A < out[j].A })
	return out
}

// NumDerivations returns the number of facts with recorded derivations
// (0 without provenance).
func (r *Result) NumDerivations() int {
	if r.rec == nil {
		return 0
	}
	return len(r.rec.deriv)
}
