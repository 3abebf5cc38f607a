package corpus

import (
	"fmt"
	"strings"
)

// PolymorphicHelperApp generates the canonical context-sensitivity stressor:
// one shared findAndCast-style helper on a base activity class, invoked from
// n activities that each inflate a distinct layout. Context-insensitively,
// the helper's receiver merges every activity and its findViewById result
// merges every activity's button, so each caller sees all n buttons and
// each listener attaches to all n of them — the paper's XBMC-shaped
// receiver imprecision in miniature. Under 1-CFA (one context per call
// site) the helper's operation nodes split per caller and every activity
// gets exactly its own button back. The same n always yields the same bytes.
//
// n activities produce 2*n+1 compilation units (source + layout per
// activity, plus the shared base-class unit).
func PolymorphicHelperApp(n int) (sources, layouts map[string]string) {
	if n < 1 {
		n = 1
	}
	sources = map[string]string{}
	layouts = map[string]string{}

	var h strings.Builder
	h.WriteString("class BaseAct extends Activity {\n")
	h.WriteString("\tView findAndCast(int id) {\n")
	h.WriteString("\t\tView v = this.findViewById(id);\n")
	h.WriteString("\t\treturn v;\n")
	h.WriteString("\t}\n")
	h.WriteString("}\n")
	sources["phbase.alite"] = h.String()

	for i := 0; i < n; i++ {
		name := fmt.Sprintf("ph%d", i)
		layouts[name] = fmt.Sprintf(
			`<LinearLayout android:id="@+id/%[1]s_root">`+
				`<Button android:id="@+id/%[1]s_btn"/>`+
				`<TextView android:id="@+id/%[1]s_txt"/>`+
				`</LinearLayout>`, name)

		var b strings.Builder
		fmt.Fprintf(&b, "class Pl%d implements OnClickListener {\n", i)
		b.WriteString("\tView got;\n")
		b.WriteString("\tvoid onClick(View v) {\n\t\tthis.got = v;\n\t}\n")
		b.WriteString("}\n")
		fmt.Fprintf(&b, "class PhAct%d extends BaseAct {\n", i)
		b.WriteString("\tView keep;\n")
		b.WriteString("\tvoid onCreate() {\n")
		fmt.Fprintf(&b, "\t\tthis.setContentView(R.layout.%s);\n", name)
		fmt.Fprintf(&b, "\t\tView w = this.findAndCast(R.id.%s_btn);\n", name)
		fmt.Fprintf(&b, "\t\tPl%d pl = new Pl%d();\n", i, i)
		b.WriteString("\t\tw.setOnClickListener(pl);\n")
		b.WriteString("\t\tthis.keep = w;\n")
		b.WriteString("\t}\n")
		b.WriteString("}\n")
		sources[name+".alite"] = b.String()
	}
	return sources, layouts
}
