package corpus

import (
	"fmt"
	"strings"
)

// ModularChainApp scales the modular shape up for solver benchmarking: the
// same one-unit-per-activity layout as ModularApp, but each activity walks
// its layout tree through a findViewById chain of the given depth, with a
// plain assignment between stages. Each stage's receiver only becomes known
// when the previous stage's result crosses that assignment's flow edge, so
// the outer fixpoint needs roughly one iteration per chain stage — a deep
// derivation chain rather than ModularApp's two-iteration plateau. Every
// activity also parks its button in the shared Repo and attaches a listener
// to the fetched result, so a ~nAct-value set flows back into every unit:
// an engine that re-applies every operation rule each iteration re-scans
// those fat sets depth times, while the delta worklist touches them only
// when they change. The same (nAct, depth) always yields the same bytes.
//
// nAct activities produce 2*nAct+1 compilation units (source + layout per
// activity, plus the shared helpers unit).
func ModularChainApp(nAct, depth int) (sources, layouts map[string]string) {
	if nAct < 1 {
		nAct = 1
	}
	if depth < 1 {
		depth = 1
	}
	sources = map[string]string{}
	layouts = map[string]string{}

	var h strings.Builder
	h.WriteString("class Repo {\n")
	h.WriteString("\tView held;\n")
	h.WriteString("\tvoid keep(View v) {\n\t\tthis.held = v;\n\t}\n")
	h.WriteString("\tView fetch() {\n\t\tView r = this.held;\n\t\treturn r;\n\t}\n")
	h.WriteString("}\n")
	h.WriteString("class SharedClick implements OnClickListener {\n")
	h.WriteString("\tView last;\n")
	h.WriteString("\tvoid onClick(View v) {\n\t\tthis.last = v;\n\t}\n")
	h.WriteString("}\n")
	sources["shared.alite"] = h.String()

	for i := 0; i < nAct; i++ {
		name := fmt.Sprintf("act%d", i)

		// Nested layout: depth levels of containers, each with its own id,
		// so stage k of the chain can look up level k from level k-1.
		var x strings.Builder
		for d := 0; d < depth; d++ {
			fmt.Fprintf(&x, `<LinearLayout android:id="@+id/%s_d%d">`, name, d)
		}
		fmt.Fprintf(&x, `<TextView android:id="@+id/%s_leaf"/>`, name)
		for d := 0; d < depth; d++ {
			x.WriteString(`</LinearLayout>`)
		}
		layouts[name] = fmt.Sprintf(
			`<LinearLayout android:id="@+id/%[1]s_root">`+
				`<Button android:id="@+id/%[1]s_btn"/>`+
				`%[2]s`+
				`</LinearLayout>`, name, x.String())

		var b strings.Builder
		fmt.Fprintf(&b, "class Lst%d implements OnLongClickListener {\n", i)
		b.WriteString("\tView seen;\n")
		b.WriteString("\tvoid onLongClick(View v) {\n\t\tthis.seen = v;\n\t}\n")
		b.WriteString("}\n")
		fmt.Fprintf(&b, "class Act%d extends Activity {\n", i)
		b.WriteString("\tView stash;\n")
		b.WriteString("\tvoid onCreate() {\n")
		fmt.Fprintf(&b, "\t\tthis.setContentView(R.layout.%s);\n", name)
		fmt.Fprintf(&b, "\t\tView btn = this.findViewById(R.id.%s_btn);\n", name)
		b.WriteString("\t\tSharedClick sc = new SharedClick();\n")
		b.WriteString("\t\tbtn.setOnClickListener(sc);\n")
		b.WriteString("\t\tRepo rp = new Repo();\n")
		b.WriteString("\t\trp.keep(btn);\n")
		b.WriteString("\t\tView back = rp.fetch();\n")
		fmt.Fprintf(&b, "\t\tLst%d ll = new Lst%d();\n", i, i)
		b.WriteString("\t\tback.setOnLongClickListener(ll);\n")
		fmt.Fprintf(&b, "\t\tView c0 = this.findViewById(R.id.%s_d0);\n", name)
		for d := 1; d < depth; d++ {
			fmt.Fprintf(&b, "\t\tView h%d = c%d;\n", d-1, d-1)
			fmt.Fprintf(&b, "\t\tView c%d = h%d.findViewById(R.id.%s_d%d);\n", d, d-1, name, d)
		}
		fmt.Fprintf(&b, "\t\tView hl = c%d;\n", depth-1)
		fmt.Fprintf(&b, "\t\tView leaf = hl.findViewById(R.id.%s_leaf);\n", name)
		b.WriteString("\t\tthis.stash = leaf;\n")
		fmt.Fprintf(&b, "\t\tIntent it = new Intent(Act%d.class);\n", (i+1)%nAct)
		b.WriteString("\t\tthis.startActivity(it);\n")
		b.WriteString("\t}\n")
		b.WriteString("}\n")
		sources[name+".alite"] = b.String()
	}
	return sources, layouts
}

// ModularApp generates a deterministic application split into one
// compilation unit per activity plus a shared helpers unit — the multi-file
// shape the incremental re-analysis tests and benchmarks edit one file at a
// time. Cross-unit dataflow is deliberate: every activity parks a view in
// the shared Repo and reads it back, so view objects flow through a field
// written by every unit, and a body edit in one unit retracts facts whose
// derivations reach all the others. The same nAct always yields the same
// bytes.
func ModularApp(nAct int) (sources, layouts map[string]string) {
	if nAct < 1 {
		nAct = 1
	}
	sources = map[string]string{}
	layouts = map[string]string{}

	var h strings.Builder
	h.WriteString("class Repo {\n")
	h.WriteString("\tView held;\n")
	h.WriteString("\tvoid keep(View v) {\n\t\tthis.held = v;\n\t}\n")
	h.WriteString("\tView fetch() {\n\t\tView r = this.held;\n\t\treturn r;\n\t}\n")
	h.WriteString("}\n")
	h.WriteString("class SharedClick implements OnClickListener {\n")
	h.WriteString("\tView last;\n")
	h.WriteString("\tvoid onClick(View v) {\n")
	h.WriteString("\t\tthis.last = v;\n")
	h.WriteString("\t\tView w = v.findViewById(R.id.shared_tag);\n")
	h.WriteString("\t}\n}\n")
	sources["shared.alite"] = h.String()

	layouts["panel"] = `<LinearLayout android:id="@+id/panel_root">` +
		`<TextView android:id="@+id/shared_tag"/>` +
		`<Button android:id="@+id/panel_btn" android:onClick="onPanelClick"/>` +
		`</LinearLayout>`

	for i := 0; i < nAct; i++ {
		name := fmt.Sprintf("act%d", i)
		layouts[name] = fmt.Sprintf(
			`<LinearLayout android:id="@+id/%[1]s_root">`+
				`<Button android:id="@+id/%[1]s_btn"/>`+
				`<LinearLayout>`+
				`<TextView android:id="@+id/%[1]s_txt"/>`+
				`<CheckBox android:id="@+id/shared_tag"/>`+
				`</LinearLayout>`+
				`</LinearLayout>`, name)

		var b strings.Builder
		fmt.Fprintf(&b, "class Lst%d implements OnLongClickListener {\n", i)
		b.WriteString("\tView seen;\n")
		b.WriteString("\tvoid onLongClick(View v) {\n\t\tthis.seen = v;\n\t}\n")
		b.WriteString("}\n")
		fmt.Fprintf(&b, "class Act%d extends Activity {\n", i)
		b.WriteString("\tView stash;\n")
		b.WriteString("\tvoid onCreate() {\n")
		fmt.Fprintf(&b, "\t\tthis.setContentView(R.layout.%s);\n", name)
		fmt.Fprintf(&b, "\t\tView btn = this.findViewById(R.id.%s_btn);\n", name)
		b.WriteString("\t\tSharedClick sc = new SharedClick();\n")
		b.WriteString("\t\tbtn.setOnClickListener(sc);\n")
		fmt.Fprintf(&b, "\t\tLst%d ll = new Lst%d();\n", i, i)
		b.WriteString("\t\tbtn.setOnLongClickListener(ll);\n")
		b.WriteString("\t\tLinearLayout box = new LinearLayout();\n")
		b.WriteString("\t\tView w = new Button();\n")
		fmt.Fprintf(&b, "\t\tw.setId(R.id.%s_txt);\n", name)
		b.WriteString("\t\tbox.addView(w);\n")
		b.WriteString("\t\tLayoutInflater nf = this.getLayoutInflater();\n")
		b.WriteString("\t\tView p = nf.inflate(R.layout.panel);\n")
		b.WriteString("\t\tbox.addView(p);\n")
		b.WriteString("\t\tRepo rp = new Repo();\n")
		b.WriteString("\t\trp.keep(w);\n")
		b.WriteString("\t\tView back = rp.fetch();\n")
		b.WriteString("\t\tthis.stash = back;\n")
		fmt.Fprintf(&b, "\t\tIntent it = new Intent(Act%d.class);\n", (i+1)%nAct)
		b.WriteString("\t\tthis.startActivity(it);\n")
		b.WriteString("\t}\n")
		b.WriteString("\tvoid onPanelClick(View v) {\n\t\tthis.stash = v;\n\t}\n")
		if i%2 == 0 {
			b.WriteString("\tvoid onCreateOptionsMenu(Menu menu) {\n")
			b.WriteString("\t\tMenuItem mi = menu.add(R.id.shared_tag);\n")
			b.WriteString("\t}\n")
			b.WriteString("\tvoid onOptionsItemSelected(MenuItem item) {\n\t}\n")
		}
		b.WriteString("}\n")
		sources[name+".alite"] = b.String()
	}
	return sources, layouts
}

// ModularEdits returns two body-only edits of ModularApp's act1.alite,
// taken from sources: its stash assignment retargeted from back to btn, and
// to p. Alternating them gives every re-analysis a real change (identical
// input would short-circuit as unchanged) that stays on the warm
// incremental path. It panics if sources is not a ModularApp with at least
// two activities.
func ModularEdits(sources map[string]string) [2]string {
	const stash = "\t\tthis.stash = back;\n"
	base := sources["act1.alite"]
	if !strings.Contains(base, stash) {
		panic("corpus: act1.alite is not a ModularApp activity")
	}
	return [2]string{
		strings.Replace(base, stash, "\t\tthis.stash = btn;\n", 1),
		strings.Replace(base, stash, "\t\tthis.stash = p;\n", 1),
	}
}
