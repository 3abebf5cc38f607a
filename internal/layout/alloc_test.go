package layout_test

import (
	"runtime"
	"sort"
	"testing"

	"gator/internal/corpus"
	"gator/internal/layout"
)

// TestLayoutParseAllocationPerByte bounds what layout.Parse allocates per
// byte of XML and its allocations per KB, pooled over the 413 layouts of
// the 20 corpus apps and over the 60 layouts of ModularChainApp(60, 24).
// The one-pass scanner takes every name as a substring of the source,
// builds the tree from two slabs and gathers each element's children on
// its own stack: 4.6 B per byte and 17 allocations per KB on the corpus,
// 2.0 B and 2 on the chain app, with or without the race detector. Through
// encoding/xml, which copies every name and attribute and allocates per
// token, the same layouts cost 18.3 B, 426 and 9.4 B, 246. The bounds sit
// between the two.
func TestLayoutParseAllocationPerByte(t *testing.T) {
	var corpusXML []string
	for _, app := range corpus.GenerateAll() {
		corpusXML = append(corpusXML, sortedValues(app.LayoutXML())...)
	}
	_, chain := corpus.ModularChainApp(60, 24)
	// One warm-up parse, so one-time initialization is not billed.
	if _, err := layout.Parse("warm", corpusXML[0]); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name            string
		docs            []string
		maxPerByte      float64
		maxMallocsPerKB float64
	}{
		{"corpus", corpusXML, 6, 30},
		{"chain", sortedValues(chain), 3, 5},
	} {
		var before, after runtime.MemStats
		n := 0
		runtime.ReadMemStats(&before)
		for _, src := range tc.docs {
			if _, err := layout.Parse("alloc", src); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			n += len(src)
		}
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		perKB := float64(after.Mallocs-before.Mallocs) / float64(n) * 1024
		t.Logf("%s: %d layouts, %d bytes: %.1f B per byte, %.0f allocations per KB", tc.name, len(tc.docs), n, perByte, perKB)
		if perByte > tc.maxPerByte {
			t.Errorf("%s: parsing allocated %.1f B per byte, want at most %g", tc.name, perByte, tc.maxPerByte)
		}
		if perKB > tc.maxMallocsPerKB {
			t.Errorf("%s: parsing made %.0f allocations per KB, want at most %g", tc.name, perKB, tc.maxMallocsPerKB)
		}
	}
}

// sortedValues returns m's values in key order.
func sortedValues(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}
