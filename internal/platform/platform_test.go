package platform

import "testing"

func TestHierarchyWellFormed(t *testing.T) {
	specs := Hierarchy()
	byName := map[string]ClassSpec{}
	for _, s := range specs {
		if _, dup := byName[s.Name]; dup {
			t.Errorf("duplicate class %s", s.Name)
		}
		byName[s.Name] = s
	}
	if len(byName) < 40 {
		t.Errorf("hierarchy has %d classes, expected a broad model", len(byName))
	}
	for _, s := range specs {
		if s.Name == "Object" {
			if s.Super != "" {
				t.Error("Object has a superclass")
			}
			continue
		}
		if s.IsIface {
			continue
		}
		sup, ok := byName[s.Super]
		if !ok {
			t.Errorf("%s extends unknown %q", s.Name, s.Super)
			continue
		}
		if sup.IsIface {
			t.Errorf("%s extends interface %s", s.Name, s.Super)
		}
	}
	// No cycles: walk every chain to Object.
	for _, s := range specs {
		seen := map[string]bool{}
		for cur := s.Name; cur != ""; cur = byName[cur].Super {
			if seen[cur] {
				t.Fatalf("cycle through %s", cur)
			}
			seen[cur] = true
		}
	}
}

func TestListenersConsistent(t *testing.T) {
	events := map[string]bool{}
	for _, l := range Listeners() {
		if events[l.Event] {
			t.Errorf("duplicate event %q", l.Event)
		}
		events[l.Event] = true
		if len(l.Handlers) == 0 {
			t.Errorf("%s has no handlers", l.Interface)
		}
		for _, h := range l.Handlers {
			if len(h.ViewParams) == 0 {
				t.Errorf("%s.%s has no view parameter", l.Interface, h.Name)
			}
			for _, vi := range h.ViewParams {
				if vi < 0 || vi >= len(h.Params) {
					t.Errorf("%s.%s view param %d out of range", l.Interface, h.Name, vi)
				}
				if h.Params[vi] == "int" {
					t.Errorf("%s.%s view param %d is an int", l.Interface, h.Name, vi)
				}
			}
		}
		spec, ok := ListenerByInterface(l.Interface)
		if !ok || spec.Event != l.Event {
			t.Errorf("ListenerByInterface(%s) = %+v, %v", l.Interface, spec, ok)
		}
		spec, ok = ListenerByEvent(l.Event)
		if !ok || spec.Interface != l.Interface {
			t.Errorf("ListenerByEvent(%s) = %+v, %v", l.Event, spec, ok)
		}
	}
	if _, ok := ListenerByInterface("Nope"); ok {
		t.Error("found nonexistent interface")
	}
	if _, ok := ListenerByEvent("nope"); ok {
		t.Error("found nonexistent event")
	}
}

func TestAPIsConsistent(t *testing.T) {
	classes := map[string]bool{}
	for _, s := range Hierarchy() {
		classes[s.Name] = true
	}
	seen := map[string]bool{}
	setListeners := 0
	for _, api := range APIs() {
		if !classes[api.Class] {
			t.Errorf("API %s.%s on unknown class", api.Class, api.Name)
		}
		key := api.Class + "." + api.Name + "/" + KindsOf(api.Params)
		if seen[key] {
			t.Errorf("duplicate API %s", key)
		}
		seen[key] = true
		if api.Kind == OpNone {
			t.Errorf("API %s has no kind", key)
		}
		if api.Kind == OpSetListener {
			setListeners++
			if _, ok := ListenerByEvent(api.Event); !ok {
				t.Errorf("set-listener API %s has unknown event %q", key, api.Event)
			}
		}
		if api.AttachParent && (api.ParentArg <= 0 || api.ParentArg >= len(api.Params)) {
			t.Errorf("API %s: bad ParentArg", key)
		}
		for _, p := range api.Params {
			if p != "int" && !classes[p] {
				t.Errorf("API %s: unknown param type %q", key, p)
			}
		}
		if api.Return != "" && api.Return != "void" && api.Return != "int" && !classes[api.Return] {
			t.Errorf("API %s: unknown return type %q", key, api.Return)
		}
	}
	if setListeners != len(Listeners()) {
		t.Errorf("set-listener APIs = %d, listeners = %d", setListeners, len(Listeners()))
	}
}

// KindsOf encodes param types for duplicate detection in tests.
func KindsOf(params []string) string {
	out := make([]byte, len(params))
	for i, p := range params {
		if p == "int" {
			out[i] = 'I'
		} else {
			out[i] = 'R'
		}
	}
	return string(out)
}

func TestOpKindStrings(t *testing.T) {
	kinds := []OpKind{OpNone, OpInflate1, OpInflate2, OpAddView1, OpAddView2,
		OpSetId, OpSetListener, OpFindView1, OpFindView2, OpFindView3}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "OpKind?" || seen[s] {
			t.Errorf("bad OpKind string %q", s)
		}
		seen[s] = true
	}
	if OpKind(99).String() != "OpKind?" {
		t.Errorf("out-of-range kind = %q", OpKind(99).String())
	}
}

func TestLifecycleTables(t *testing.T) {
	if len(Lifecycle) != 7 || Lifecycle[0] != "onCreate" {
		t.Errorf("lifecycle = %v", Lifecycle)
	}
	for _, d := range DialogLifecycle {
		found := false
		for _, l := range Lifecycle {
			if l == d {
				found = true
			}
		}
		if !found {
			t.Errorf("dialog lifecycle %s not in activity lifecycle", d)
		}
	}
}

func TestHierarchyIsFresh(t *testing.T) {
	a := Hierarchy()
	a[0].Name = "Mutated"
	b := Hierarchy()
	if b[0].Name == "Mutated" {
		t.Error("Hierarchy returns shared state")
	}
}

// TestListenerLookupsShareOneTable: the lookups search one table built at
// start-up, so they allocate nothing, and Listeners still hands each caller
// a fresh table whose changes no lookup sees.
func TestListenerLookupsShareOneTable(t *testing.T) {
	mine := Listeners()
	mine[0].Event = "changed"
	mine[0].Handlers[0].Name = "changed"
	spec, ok := ListenerByInterface("OnClickListener")
	if !ok || spec.Event != "click" || spec.Handlers[0].Name != "onClick" {
		t.Fatalf("ListenerByInterface after a caller edited its Listeners copy = %+v, %v", spec, ok)
	}
	if again := Listeners(); again[0].Event != "click" || again[0].Handlers[0].Name != "onClick" {
		t.Fatalf("Listeners returned an edited table: %+v", again[0])
	}
	for name, f := range map[string]func(){
		"ListenerByEvent":     func() { ListenerByEvent("itemselected") },
		"ListenerByInterface": func() { ListenerByInterface("OnSeekBarChangeListener") },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %.0f times per call, want 0", name, allocs)
		}
	}
}
