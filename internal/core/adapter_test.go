package core

import (
	"testing"

	"gator/internal/graph"
)

const adapterApp = `
class RowAdapter implements Adapter {
	View getView(int position) {
		LinearLayout row = new LinearLayout();
		Button action = new Button();
		action.setId(R.id.row_action);
		row.addView(action);
		return row;
	}
}
class A extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		ListView list = (ListView) this.findViewById(R.id.list);
		RowAdapter ad = new RowAdapter();
		list.setAdapter(ad);
		View btn = this.findViewById(R.id.row_action);
	}
}`

var adapterLayouts = map[string]string{
	"main": `<LinearLayout><ListView android:id="@+id/list"/></LinearLayout>`,
}

func TestSetAdapterPopulatesList(t *testing.T) {
	r := analyzeSrc(t, adapterApp, adapterLayouts, Options{})
	list := inflByPath(t, r, "main", 1)

	// The adapter's row becomes a child of the ListView.
	kids := r.Graph.Succ(graph.RelChild, list).Slice()
	if len(kids) != 1 {
		t.Fatalf("children(list) = %v", valueNames(kids))
	}

	// getView's receiver got the adapter allocation.
	thisVals := r.VarPointsTo(localVar(t, r, "RowAdapter", "getView(I)", "this")).Slice()
	if len(thisVals) != 1 {
		t.Errorf("pts(getView this) = %v", valueNames(thisVals))
	}

	// The row's button is findable through the activity hierarchy:
	// activity -> root -> list -> row -> button.
	btnVals := r.VarPointsTo(localVar(t, r, "A", "onCreate()", "btn")).Slice()
	if len(btnVals) != 1 {
		t.Fatalf("pts(btn) = %v", valueNames(btnVals))
	}
}

func TestSetAdapterWithoutGetView(t *testing.T) {
	// An adapter argument whose class lacks a concrete getView produces
	// nothing (and does not crash).
	src := `
class A extends Activity {
	Adapter none;
	void onCreate() {
		ListView list = new ListView();
		Adapter ad = this.none;
		list.setAdapter(ad);
	}
}`
	r := analyzeSrc(t, src, nil, Options{})
	for _, op := range r.Graph.Ops() {
		_ = op
	}
	_ = r
}
