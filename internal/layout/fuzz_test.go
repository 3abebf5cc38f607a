package layout_test

// FuzzLayout: the layout XML parser must never panic — malformed documents
// yield errors — and it must agree with encoding/xml: on every input Parse
// returns the tree or the error text that the encoding/xml path does, so
// the one-pass scanner neither accepts a document encoding/xml rejects nor
// reads one differently. Seeded with the on-disk demo layouts,
// corpus-generated layouts (via Render), XML corner cases, and one input per
// construct the scanner leaves to encoding/xml.

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gator/internal/corpus"
	"gator/internal/layout"
)

func FuzzLayout(f *testing.F) {
	if paths, err := filepath.Glob("../../testdata/notepad/layout/*.xml"); err == nil {
		for _, p := range paths {
			if data, err := os.ReadFile(p); err == nil {
				f.Add(string(data))
			}
		}
	}
	if spec, ok := corpus.SpecByName("NotePad"); ok {
		for _, xml := range corpus.Generate(spec).LayoutXML() {
			f.Add(xml)
		}
	}
	for _, seed := range []string{
		"",
		"<LinearLayout/>",
		`<LinearLayout android:id="@+id/root"><Button android:id="@id/b" android:onClick="go"/></LinearLayout>`,
		`<merge><TextView/></merge>`,
		`<LinearLayout><include layout="@layout/other"/></LinearLayout>`,
		`<include layout="@layout/other"/>`,
		`<LinearLayout><include/></LinearLayout>`,
		`<A><include layout="@layout/"/></A>`,
		`<A><include layout="@layout/x&quot;y"/></A>`,
		`<LinearLayout android:id="bogus"/>`,
		`<LinearLayout android:id="@+id/"/>`,
		"<a><b></a></b>",
		"<a>",
		"</a>",
		"<a/><b/>",
		"<?xml version=\"1.0\"?><LinearLayout/>",
		"<!-- comment --><LinearLayout/>",
		"<a:b:c/>",
		"\x00<a/>",
		// Left to encoding/xml: a declaration, CRLF line ends, comments
		// and single quotes, around attributes Parse ignores.
		"<?xml version=\"1.0\" encoding=\"utf-8\"?>\r\n<!-- top -->\r\n<LinearLayout xmlns:android='http://schemas.android.com/apk/res/android' android:layout_width=\"match_parent\">\r\n\t<Button android:id='@+id/go' android:text=\"Go >\"/>\r\n</LinearLayout>\r\n",
		// A comment ending "--->" is an error in encoding/xml.
		`<a:B><!--00---></a:B>`,
		// Also left to encoding/xml: entity and character references,
		// CDATA, DOCTYPE, other processing instructions, non-ASCII bytes,
		// a carriage return or '<' in a value, text.
		`<A android:onClick="go&amp;"/>`,
		`<A android:onClick="&#103;o"/>`,
		`<A><![CDATA[x]]></A>`,
		`<!DOCTYPE A><A/>`,
		`<?xml-stylesheet href="a"?><A/>`,
		`<?xml version="1.1"?><A/>`,
		`<A android:text="é"/>`,
		"<Ä/>",
		"<A android:onClick=\"go\r\"/>",
		`<A android:text="<"/>`,
		`<A>text</A>`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		l, err := layout.Parse("fuzz", src)
		ref, refErr := layout.ParseXML("fuzz", src)
		if err != nil || refErr != nil {
			if err == nil || refErr == nil || err.Error() != refErr.Error() {
				t.Fatalf("Parse error %v, encoding/xml error %v", err, refErr)
			}
			return
		}
		if !reflect.DeepEqual(l, ref) {
			t.Fatalf("Parse and encoding/xml read different trees:\n%s\n%s", layout.Render(l), layout.Render(ref))
		}
		if l == nil || l.Root == nil {
			t.Fatalf("Parse returned neither layout nor error")
		}
		// A successfully parsed layout must survive its own round trip:
		// Render output re-parses to a tree with the same node count.
		l2, err := layout.Parse("roundtrip", layout.Render(l))
		if err != nil {
			t.Fatalf("Render output does not re-parse: %v", err)
		}
		if l.Root.Count() != l2.Root.Count() {
			t.Fatalf("round trip changed node count: %d -> %d", l.Root.Count(), l2.Root.Count())
		}
	})
}
