package alite_test

import (
	"errors"
	"runtime"
	"strings"
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

// TestErrorRunsAllocateBounded: a 16 MiB source (gatord's MaxRequestBytes)
// made of errors costs at most alite.MaxErrors+1 diagnostics and under 1 MB
// of allocation. Each error used to be kept: 3 MiB of '#' made 3,145,728
// of them and allocated 365 MB, and error recovery in a class body built a
// field per two stray ';'.
func TestErrorRunsAllocateBounded(t *testing.T) {
	const size = 16 << 20
	for _, tc := range []struct {
		name, src, first string
	}{
		{"hash", "class A {}\n" + strings.Repeat("#", size), "run.alite:2:1: unexpected character '#'"},
		{"euro", "class A {}\n" + strings.Repeat("€", size/len("€")), "run.alite:2:1: unexpected character '€'"},
		{"semicolons", "class A {\n" + strings.Repeat(";", size) + "}", "run.alite:2:1: expected a type, found ';'"},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := alite.Parse("run.alite", tc.src)
		runtime.ReadMemStats(&after)
		var errs alite.ErrorList
		if !errors.As(err, &errs) || len(errs) == 0 || len(errs) > alite.MaxErrors+1 {
			t.Fatalf("%s: %d errors (%v), want 1 to %d", tc.name, len(errs), err, alite.MaxErrors+1)
		}
		if got := errs[0].Error(); got != tc.first {
			t.Errorf("%s: first error %q, want %q", tc.name, got, tc.first)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: parsing %d MiB allocated %.1f MB, want under 1 MiB", tc.name, size>>20, float64(alloc)/1e6)
		}
	}
}
