// Package oracle compares a static analysis solution (package core) against
// the concrete observations of the interpreter (package interp). It
// mechanizes the paper's Section 5 case study: soundness means every
// concretely observed receiver/argument/result at every operation site, and
// every observed structural association, is covered by the static solution;
// precision is the ratio of static solution size to observed size.
package oracle

import (
	"fmt"
	"sort"

	"gator/internal/core"
	"gator/internal/graph"
	"gator/internal/interp"
	"gator/internal/ir"
)

// Violation is one soundness failure: something observed at run time that
// the static solution misses.
type Violation struct {
	// Where describes the operation site or relation.
	Where string
	// What describes the missed value or pair.
	What string
}

func (v Violation) String() string { return v.Where + ": missed " + v.What }

// Report is the outcome of a comparison.
type Report struct {
	// Violations lists soundness failures (empty means sound w.r.t. the
	// observed executions).
	Violations []Violation
	// ObservedSites is the number of operation sites that executed.
	ObservedSites int
	// CheckedValues is the number of (site, value) facts checked.
	CheckedValues int
	// PerfectSites counts executed sites whose static solution matches the
	// observation exactly (receivers, args, and results).
	PerfectSites int
	// StaticFacts and ObservedFacts measure precision at the executed
	// operation sites: the static solution's distinct source-identity
	// values (clones of one site collapse to one — see core.CanonValue)
	// versus the distinct in-scope observed values, summed per site over
	// receivers, arguments, and results. Their ratio is the paper-style
	// precision metric BENCH_7.json records.
	StaticFacts   int
	ObservedFacts int
}

// Ratio is the precision ratio: static solution size over observed size at
// the executed sites (1.0 = perfectly tight; 0 when nothing was observed).
func (r *Report) Ratio() float64 {
	if r.ObservedFacts == 0 {
		return 0
	}
	return float64(r.StaticFacts) / float64(r.ObservedFacts)
}

// Sound reports whether no violations were found.
func (r *Report) Sound() bool { return len(r.Violations) == 0 }

// Compare checks res against obs.
func Compare(res *core.Result, obs *interp.Observations) *Report {
	m := newMapper(res)
	rep := &Report{}

	// Per-site checks.
	type siteEntry struct {
		site *ir.Invoke
		so   *interp.SiteObs
	}
	var sites []siteEntry
	for s, so := range obs.Sites {
		sites = append(sites, siteEntry{s, so})
	}
	sort.Slice(sites, func(i, j int) bool {
		return posLess(sites[i].site.Pos().String(), sites[j].site.Pos().String())
	})
	for _, e := range sites {
		// Under context-sensitive cloning one site has several op nodes;
		// the site's static solution is the union over the clones.
		op, ok := m.ops[e.site]
		if !ok {
			rep.Violations = append(rep.Violations, Violation{
				Where: "op@" + e.site.Pos().String(),
				What:  "entire operation (no op node)",
			})
			continue
		}
		rep.ObservedSites++
		rep.StaticFacts += core.CanonCount(op.Receivers, nil) + core.CanonCount(op.Arg0, nil) + core.CanonCount(op.Results, nil)
		rep.ObservedFacts += m.scopedCount(e.so.Receivers) + m.scopedCount(e.so.Args) + m.scopedCount(e.so.Results)
		where := op.Ops[0].String()
		perfect := true
		perfect = m.checkSet(rep, where+" receivers", e.so.Receivers, op.Receivers) && perfect
		perfect = m.checkSet(rep, where+" args", e.so.Args, op.Arg0) && perfect
		perfect = m.checkSet(rep, where+" results", e.so.Results, op.Results) && perfect
		if perfect &&
			exactMatch(e.so.Receivers, m, op.Receivers) &&
			exactMatch(e.so.Results, m, op.Results) {
			rep.PerfectSites++
		}
	}

	// Structural relations.
	m.checkPairs(rep, "listener", obs.ListenerPairs, func(v, l graph.Value) bool {
		return containsValue(res.Graph.Listeners(v), l)
	})
	m.checkPairs(rep, "parent-child", obs.ChildPairs, func(p, c graph.Value) bool {
		return containsValue(res.Graph.Children(p), c)
	})
	m.checkPairs(rep, "content-root", obs.RootPairs, func(o, r graph.Value) bool {
		return containsValue(res.Graph.Roots(o), r)
	})

	// Inter-component transitions.
	static := map[[2]*ir.Class]bool{}
	for _, t := range res.Transitions() {
		static[[2]*ir.Class{t.Source, t.Target}] = true
	}
	m.checkPairs(rep, "transition", obs.TransitionPairs, func(a, b graph.Value) bool {
		sa, ok1 := a.(*graph.ActivityNode)
		sb, ok2 := b.(*graph.ActivityNode)
		if !ok1 || !ok2 {
			return false
		}
		return static[[2]*ir.Class{sa.Class, sb.Class}]
	})
	return rep
}

// mapper resolves interpreter tags to graph values. Under context-sensitive
// cloning (core.Options.ContextSensitivity) one allocation site or
// operation site may have several graph nodes; tags then resolve to
// candidate sets, and coverage means some candidate is in the static
// solution.
type mapper struct {
	res       *core.Result
	allocs    map[*ir.New][]*graph.AllocNode
	infls     map[inflKey][]*graph.InflNode
	acts      map[*ir.Class]*graph.ActivityNode
	ops       map[*ir.Invoke]core.SourceOp
	menus     map[*ir.Class]*graph.MenuNode
	menuItems map[*ir.Invoke][]*graph.MenuItemNode
}

type inflKey struct {
	site   *ir.Invoke
	layout string
	path   int
}

func newMapper(res *core.Result) *mapper {
	m := &mapper{
		res:       res,
		allocs:    map[*ir.New][]*graph.AllocNode{},
		infls:     map[inflKey][]*graph.InflNode{},
		acts:      map[*ir.Class]*graph.ActivityNode{},
		ops:       map[*ir.Invoke]core.SourceOp{},
		menus:     map[*ir.Class]*graph.MenuNode{},
		menuItems: map[*ir.Invoke][]*graph.MenuItemNode{},
	}
	for _, a := range res.Graph.Allocs() {
		m.allocs[a.Site] = append(m.allocs[a.Site], a)
	}
	for _, op := range res.SourceOps() {
		if site := op.Ops[0].Site; site != nil {
			m.ops[site] = op
		}
	}
	for _, n := range res.Graph.Infls() {
		k := inflKey{n.Op.Site, n.LayoutName, n.Path}
		m.infls[k] = append(m.infls[k], n)
	}
	for _, a := range res.Graph.Activities() {
		m.acts[a.Class] = a
	}
	for _, n := range res.Graph.Menus() {
		m.menus[n.Activity] = n
	}
	for _, n := range res.Graph.Nodes() {
		if mi, ok := n.(*graph.MenuItemNode); ok && mi.Op.Site != nil {
			m.menuItems[mi.Op.Site] = append(m.menuItems[mi.Op.Site], mi)
		}
	}
	return m
}

// valuesFor maps a tag to its candidate graph values; empty means the
// analysis has no corresponding abstraction (an automatic violation), and
// (nil, true) means the tag is out of scope (opaque platform objects).
func (m *mapper) valuesFor(t interp.Tag) ([]graph.Value, bool) {
	switch t.Kind {
	case interp.TagAlloc:
		if as, ok := m.allocs[t.Alloc]; ok {
			return allocValues(as), false
		}
	case interp.TagInfl:
		if ns, ok := m.infls[inflKey{t.InflSite, t.Layout, t.Path}]; ok {
			return inflValues(ns), false
		}
		// Under shared inflation, nodes are keyed to the first site; fall
		// back to matching by layout and path only.
		var out []graph.Value
		for k, ns := range m.infls {
			if k.layout == t.Layout && k.path == t.Path {
				out = append(out, inflValues(ns)...)
			}
		}
		return out, false
	case interp.TagActivity:
		if a, ok := m.acts[t.Class]; ok {
			return []graph.Value{a}, false
		}
	case interp.TagMenu:
		if n, ok := m.menus[t.Class]; ok {
			return []graph.Value{n}, false
		}
	case interp.TagMenuItem:
		if ns, ok := m.menuItems[t.InflSite]; ok {
			out := make([]graph.Value, len(ns))
			for i, n := range ns {
				out[i] = n
			}
			return out, false
		}
	case interp.TagOpaque:
		return nil, true
	}
	return nil, false
}

func allocValues(as []*graph.AllocNode) []graph.Value {
	out := make([]graph.Value, len(as))
	for i, a := range as {
		out[i] = a
	}
	return out
}

func inflValues(ns []*graph.InflNode) []graph.Value {
	out := make([]graph.Value, len(ns))
	for i, n := range ns {
		out[i] = n
	}
	return out
}

// checkSet verifies every observed tag is covered by the static set (some
// candidate value is a member); returns false when a violation was recorded.
func (m *mapper) checkSet(rep *Report, where string, observed map[interp.Tag]bool, static graph.Values) bool {
	ok := true
	for _, t := range sortedTags(observed) {
		cands, skip := m.valuesFor(t)
		if skip {
			continue
		}
		rep.CheckedValues++
		covered := false
		for _, v := range cands {
			if containsValue(static, v) {
				covered = true
				break
			}
		}
		if !covered {
			rep.Violations = append(rep.Violations, Violation{Where: where, What: t.String()})
			ok = false
		}
	}
	return ok
}

// scopedCount counts the in-scope observed tags (opaque platform objects
// are outside the analysis's domain and are skipped by checkSet too).
func (m *mapper) scopedCount(observed map[interp.Tag]bool) int {
	n := 0
	for t := range observed {
		if _, skip := m.valuesFor(t); !skip {
			n++
		}
	}
	return n
}

func (m *mapper) checkPairs(rep *Report, what string, pairs map[[2]interp.Tag]bool, has func(a, b graph.Value) bool) {
	var keys [][2]interp.Tag
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0].String()+keys[i][1].String() < keys[j][0].String()+keys[j][1].String()
	})
	for _, k := range keys {
		as, skipA := m.valuesFor(k[0])
		bs, skipB := m.valuesFor(k[1])
		if skipA || skipB {
			continue
		}
		rep.CheckedValues++
		covered := false
		for _, a := range as {
			for _, b := range bs {
				if has(a, b) {
					covered = true
				}
			}
		}
		if !covered {
			rep.Violations = append(rep.Violations, Violation{
				Where: what,
				What:  fmt.Sprintf("(%s, %s)", k[0], k[1]),
			})
		}
	}
}

// exactMatch reports whether every static value is explained by some
// observed tag (i.e. the static solution adds nothing beyond what ran).
func exactMatch(observed map[interp.Tag]bool, m *mapper, static graph.Values) bool {
	want := map[int]bool{}
	for t := range observed {
		cands, skip := m.valuesFor(t)
		if skip {
			continue
		}
		for _, v := range cands {
			want[v.ID()] = true
		}
	}
	for i := range static.Len() {
		if !want[static.ID(i)] {
			return false
		}
	}
	return true
}

// containsValue reports whether a solution set holds v.
func containsValue(vals graph.Values, v graph.Value) bool {
	for i := range vals.Len() {
		if vals.ID(i) == v.ID() {
			return true
		}
	}
	return false
}

func sortedTags(set map[interp.Tag]bool) []interp.Tag {
	out := make([]interp.Tag, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func posLess(a, b string) bool { return a < b }
