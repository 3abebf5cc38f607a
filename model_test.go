package gator

import (
	"encoding/json"
	"testing"
)

func TestModelJSONRoundTrip(t *testing.T) {
	app, err := LoadDir("testdata/notepad")
	if err != nil {
		t.Fatal(err)
	}
	res := app.Analyze(Options{})
	m := res.Model()

	if m.App != "notepad" {
		t.Errorf("app = %q", m.App)
	}
	if len(m.Views) != m.Stats["viewsInflated"]+m.Stats["viewsAllocated"] {
		t.Errorf("views = %d, stats say %d+%d", len(m.Views),
			m.Stats["viewsInflated"], m.Stats["viewsAllocated"])
	}
	if len(m.Activities) != 2 || len(m.Transit) == 0 || len(m.Menus) != 2 {
		t.Errorf("model = %d activities, %d transitions, %d menus",
			len(m.Activities), len(m.Transit), len(m.Menus))
	}

	data, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.App != m.App || len(back.Views) != len(m.Views) ||
		len(back.Tuples) != len(m.Tuples) || len(back.Hierarchy) != len(m.Hierarchy) {
		t.Error("round trip lost data")
	}

	// Deterministic serialization.
	data2, err := app.Analyze(Options{}).Model().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("model JSON is not deterministic")
	}
}

func TestModelHierarchyConsistent(t *testing.T) {
	res := figure1App(t).Analyze(Options{})
	m := res.Model()
	origins := map[string]bool{}
	for _, v := range m.Views {
		origins[v.Origin] = true
	}
	for _, e := range m.Hierarchy {
		if !origins[e.Parent] || !origins[e.Child] {
			t.Errorf("hierarchy edge references unknown view: %+v", e)
		}
	}
	for _, a := range m.Activities {
		for _, root := range a.Roots {
			if !origins[root] {
				t.Errorf("activity root %q not among views", root)
			}
		}
	}
}
