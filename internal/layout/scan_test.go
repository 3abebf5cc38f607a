package layout_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gator/internal/corpus"
	"gator/internal/layout"
)

// TestScannerReadsRealLayouts: the layouts this repository analyzes (the
// notepad app's, the examples', Figure 1's, the corpus's and a chain app's)
// go through the one-pass scanner, not the encoding/xml fallback, and read as
// encoding/xml reads them. A change that routes them back to encoding/xml
// fails here rather than only in a benchmark.
func TestScannerReadsRealLayouts(t *testing.T) {
	docs := map[string]string{
		"fig1/act_console":   corpus.Figure1ActConsoleXML,
		"fig1/item_terminal": corpus.Figure1ItemTerminalXML,
		// A hand-written layout: tabs, attributes over several lines, a
		// '>' in a value, and attributes Parse ignores.
		"handwritten": "<LinearLayout xmlns:android=\"http://schemas.android.com/apk/res/android\"\n" +
			"\tandroid:layout_width=\"match_parent\" android:layout_height=\"wrap_content\"\n" +
			"\tandroid:orientation=\"vertical\">\n" +
			"\t<TextView android:id=\"@+id/title\" android:text=\"Notes -> all\"/>\n" +
			"\t<Button android:id=\"@+id/save\" android:onClick=\"save\" />\n" +
			"\t<include layout=\"@layout/footer\" android:id=\"@+id/foot\"/>\n" +
			"</LinearLayout>\n",
	}
	for _, glob := range []string{"../../testdata/notepad/layout/*.xml", "../../examples/*/layout/*.xml"} {
		paths, err := filepath.Glob(glob)
		if err != nil || len(paths) != 3 {
			t.Fatalf("%s: %v, %v", glob, paths, err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			docs[p] = string(data)
		}
	}
	nCorpus := 0
	for _, app := range corpus.GenerateAll() {
		for name, xml := range app.LayoutXML() {
			docs[app.Name+"/"+name] = xml
			nCorpus++
		}
	}
	if nCorpus != 413 {
		t.Errorf("corpus layouts = %d, want 413", nCorpus)
	}
	_, chain := corpus.ModularChainApp(60, 24)
	for name, xml := range chain {
		docs["chain/"+name] = xml
	}
	for name, src := range docs {
		if !layout.Scanned(name, src) {
			t.Errorf("%s: not read by the scanner", name)
			continue
		}
		l, err := layout.Parse(name, src)
		ref, refErr := layout.ParseXML(name, src)
		if err != nil || refErr != nil || !reflect.DeepEqual(l, ref) {
			t.Errorf("%s: scanner and encoding/xml disagree: %v, %v", name, err, refErr)
		}
	}
}

// TestScanDepthBound: the scanner follows elements maxDepth deep, and a
// deeper document parses through encoding/xml to the same tree.
func TestScanDepthBound(t *testing.T) {
	for _, depth := range []int{layout.MaxDepth, layout.MaxDepth + 1} {
		src := strings.Repeat("<A>", depth) + strings.Repeat("</A>", depth)
		if got, want := layout.Scanned("deep", src), depth <= layout.MaxDepth; got != want {
			t.Errorf("depth %d: scanned %v, want %v", depth, got, want)
		}
		l, err := layout.Parse("deep", src)
		ref, refErr := layout.ParseXML("deep", src)
		if err != nil || refErr != nil || !reflect.DeepEqual(l, ref) || l.Root.Count() != depth {
			t.Errorf("depth %d: scanner and encoding/xml disagree: %v, %v", depth, err, refErr)
		}
	}
}
