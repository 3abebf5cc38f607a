package gator

import (
	"encoding/json"
	"sort"
)

// Model is the full GUI model of an application in a serializable form —
// the "key component to be used by compile-time analysis researchers" the
// paper's abstract promises, consumable by downstream tools (test
// generators, security analyzers, run-time explorers).
type Model struct {
	App        string            `json:"app"`
	Views      []ModelView       `json:"views"`
	Activities []ModelActivity   `json:"activities"`
	Hierarchy  []ModelEdge       `json:"hierarchy"`
	Tuples     []EventTuple      `json:"eventTuples"`
	Menus      []MenuEntry       `json:"menus,omitempty"`
	Transit    []Transition      `json:"transitions,omitempty"`
	Findings   []CheckFinding    `json:"findings,omitempty"`
	Stats      map[string]int    `json:"stats"`
	Options    map[string]bool   `json:"options,omitempty"`
	Variables  map[string]string `json:"-"`
}

// ModelView is one abstract view object.
type ModelView struct {
	Class  string `json:"class"`
	Origin string `json:"origin"`
	ID     string `json:"id,omitempty"`
}

// ModelActivity is one activity with its content roots.
type ModelActivity struct {
	Name  string   `json:"name"`
	Roots []string `json:"roots"`
}

// ModelEdge is one parent-child association, by origin.
type ModelEdge struct {
	Parent string `json:"parent"`
	Child  string `json:"child"`
}

// Model assembles the complete serializable GUI model.
func (r *Result) Model() *Model {
	m := &Model{
		App:     r.app.Name,
		Tuples:  r.EventTuples(),
		Menus:   r.MenuEntries(),
		Transit: r.Transitions(),
		Stats:   map[string]int{},
	}
	for _, v := range r.Views() {
		m.Views = append(m.Views, ModelView{Class: v.Class, Origin: v.Origin, ID: v.ID})
	}
	sort.Slice(m.Views, func(i, j int) bool { return m.Views[i].Origin < m.Views[j].Origin })
	for _, a := range r.Activities() {
		ma := ModelActivity{Name: a.Activity}
		for _, root := range a.Roots {
			ma.Roots = append(ma.Roots, root.Origin)
		}
		sort.Strings(ma.Roots)
		m.Activities = append(m.Activities, ma)
	}
	for _, e := range r.Hierarchy() {
		m.Hierarchy = append(m.Hierarchy, ModelEdge{Parent: e.Parent.Origin, Child: e.Child.Origin})
	}
	sort.Slice(m.Hierarchy, func(i, j int) bool {
		a, b := m.Hierarchy[i], m.Hierarchy[j]
		if a.Parent != b.Parent {
			return a.Parent < b.Parent
		}
		return a.Child < b.Child
	})
	m.Findings = r.Check()

	t1 := r.Table1()
	m.Stats["classes"] = t1.Classes
	m.Stats["methods"] = t1.Methods
	m.Stats["layouts"] = t1.LayoutIDs
	m.Stats["viewIds"] = t1.ViewIDs
	m.Stats["viewsInflated"] = t1.ViewsInflated
	m.Stats["viewsAllocated"] = t1.ViewsAllocated
	m.Stats["listeners"] = t1.Listeners
	m.Stats["inflateOps"] = t1.InflateOps
	m.Stats["findViewOps"] = t1.FindViewOps
	m.Stats["addViewOps"] = t1.AddViewOps
	m.Stats["setListenerOps"] = t1.SetListenerOps
	m.Stats["setIdOps"] = t1.SetIdOps
	return m
}

// JSON serializes the model with stable field ordering.
func (m *Model) JSON() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}
