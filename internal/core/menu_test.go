package core

import (
	"testing"

	"gator/internal/graph"
)

const menuApp = `
class A extends Activity {
	void onCreate() {
	}
	void onCreateOptionsMenu(Menu menu) {
		MenuItem save = menu.add(R.id.menu_save);
		MenuItem quit = menu.add(R.id.menu_quit);
	}
	void onOptionsItemSelected(MenuItem item) {
	}
}
class B extends Activity {
	void onCreate() {
	}
	void onCreateOptionsMenu(Menu menu) {
		MenuItem help = menu.add(R.id.menu_help);
	}
	void onOptionsItemSelected(MenuItem item) {
	}
}`

func TestMenuModel(t *testing.T) {
	r := analyzeSrc(t, menuApp, nil, Options{})
	g := r.Graph

	menuA := g.MenuNode(r.Prog.Class("A"))
	menuB := g.MenuNode(r.Prog.Class("B"))

	// The menu parameter receives the activity's menu.
	mVals := r.VarPointsTo(localVar(t, r, "A", "onCreateOptionsMenu(R)", "menu")).Slice()
	if len(mVals) != 1 || mVals[0] != menuA {
		t.Errorf("pts(menu) = %v", valueNames(mVals))
	}

	// Each add site yields one item, associated with its id.
	itemsA := g.MenuItems(menuA).Slice()
	if len(itemsA) != 2 {
		t.Fatalf("items of A = %v", valueNames(itemsA))
	}
	idNames := map[string]bool{}
	for _, it := range itemsA {
		for _, id := range g.ViewIDValues(it).Slice() {
			idNames[id.(*graph.ViewIDNode).Name] = true
		}
	}
	if !idNames["menu_save"] || !idNames["menu_quit"] {
		t.Errorf("item ids = %v", idNames)
	}

	// Items flow to the owning activity's selection callback — and only
	// that activity's.
	selA := r.VarPointsTo(localVar(t, r, "A", "onOptionsItemSelected(R)", "item")).Slice()
	if len(selA) != 2 {
		t.Errorf("pts(A.item) = %v", valueNames(selA))
	}
	selB := r.VarPointsTo(localVar(t, r, "B", "onOptionsItemSelected(R)", "item")).Slice()
	if len(selB) != 1 {
		t.Errorf("pts(B.item) = %v", valueNames(selB))
	}
	if g.MenuItems(menuB).Len() != 1 {
		t.Errorf("items of B = %v", valueNames(g.MenuItems(menuB).Slice()))
	}

	// The add result variable holds the item.
	saveVals := r.VarPointsTo(localVar(t, r, "A", "onCreateOptionsMenu(R)", "save")).Slice()
	if len(saveVals) != 1 {
		t.Fatalf("pts(save) = %v", valueNames(saveVals))
	}
	if _, ok := saveVals[0].(*graph.MenuItemNode); !ok {
		t.Errorf("pts(save) = %v", valueNames(saveVals))
	}
}

func TestMenuSharedHelper(t *testing.T) {
	// A shared helper populating several activities' menus merges, like
	// find-view helpers do (context insensitivity).
	src := `
class MenuHelper {
	void fill(Menu m) {
		MenuItem x = m.add(R.id.common);
	}
}
class A extends Activity {
	void onCreate() { }
	void onCreateOptionsMenu(Menu menu) {
		MenuHelper h = new MenuHelper();
		h.fill(menu);
	}
	void onOptionsItemSelected(MenuItem item) { }
}
class B extends Activity {
	void onCreate() { }
	void onCreateOptionsMenu(Menu menu) {
		MenuHelper h = new MenuHelper();
		h.fill(menu);
	}
	void onOptionsItemSelected(MenuItem item) { }
}`
	r := analyzeSrc(t, src, nil, Options{})
	// One shared add site: both menus get the same item abstraction, and
	// both selection callbacks see it.
	for _, cls := range []string{"A", "B"} {
		sel := r.VarPointsTo(localVar(t, r, cls, "onOptionsItemSelected(R)", "item")).Slice()
		if len(sel) != 1 {
			t.Errorf("pts(%s.item) = %v", cls, valueNames(sel))
		}
	}

	// Under 1-CFA, each activity gets its own cloned add site.
	rc := analyzeSrc(t, src, nil, Options{ContextSensitivity: Ctx1CFA})
	items := 0
	for _, n := range rc.Graph.Nodes() {
		if _, ok := n.(*graph.MenuItemNode); ok {
			items++
		}
	}
	if items < 2 {
		t.Errorf("1-CFA menu items = %d, want >= 2 (per-site clones)", items)
	}
}
