package alite_test

import (
	"runtime"
	"testing"

	"gator/internal/alite"
	"gator/internal/corpus"
)

// TestParseAllocationPerByte bounds what parsing allocates per source byte
// on every corpus app. The parser reads the lexer through a small lookahead
// window, so the AST is all it allocates (about 12 B per source byte); a
// parser that first materializes every token allocates 87–112 B.
func TestParseAllocationPerByte(t *testing.T) {
	const maxPerByte = 24
	for _, app := range corpus.GenerateAll() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := alite.Parse(app.Name+".alite", app.Source)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(app.Source))
		if perByte > maxPerByte {
			t.Errorf("%s: parsing %d bytes allocated %.1f B per byte, want at most %d",
				app.Name, len(app.Source), perByte, maxPerByte)
		}
	}
}
