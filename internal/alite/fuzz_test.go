package alite_test

// FuzzParse: the ALite parser must never panic — malformed input yields an
// error, nothing else. Seeded with the real on-disk demo app, the paper's
// Figure 1 fragment (via the generated corpus), grammar corner cases, and
// (checked in under testdata/fuzz/FuzzParse) input nested one level past
// MaxNesting.

import (
	"os"
	"testing"

	"gator/internal/alite"
	"gator/internal/corpus"
)

func FuzzParse(f *testing.F) {
	if data, err := os.ReadFile("../../testdata/notepad/notepad.alite"); err == nil {
		f.Add(string(data))
	}
	// Corpus-generator seeds: a small app and the XBMC-like fanout stressor.
	for _, name := range []string{"APV", "XBMC"} {
		if spec, ok := corpus.SpecByName(name); ok {
			f.Add(corpus.Generate(spec).Source)
		}
	}
	for _, seed := range []string{
		"",
		"class A {\n}\n",
		"class A extends Activity {\n\tvoid onCreate() {\n\t\tthis.setContentView(R.layout.main);\n\t}\n}\n",
		"class A implements OnClickListener {\n\tvoid onClick(View v) {\n\t}\n}\n",
		"class A {\n\tView f(View v, int a) {\n\t\tView r = v.findViewById(a);\n\t\treturn r;\n\t}\n}\n",
		"class", "class A", "class A {", "class A {}", "{}",
		"class A {\n\tint x = ;\n}\n",
		"class A {\n\tvoid f() {\n\t\tif (x) {\n\t}\n}\n",
		"class A {\n\tvoid f() {\n\t\tView v = (ViewGroup;\n\t}\n}\n",
		"class \x00 {\n}\n",
		"// comment only\n",
		"class A {\n\tvoid f() {\n\t\tint x = R.id.;\n\t}\n}\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Any panic fails the fuzzer; an error (or success) is acceptable.
		file, err := alite.Parse("fuzz.alite", src)
		if err == nil && file == nil {
			t.Errorf("Parse returned neither file nor error")
		}
	})
}
