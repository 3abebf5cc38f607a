package alite_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"gator/internal/alite"
	"gator/internal/corpus"
)

// TestParseAllocationPerByte bounds what parsing allocates on the corpus
// apps: bytes per source byte on the worst app, and allocations per KB of
// source on the worst app and pooled over all 20. The parser reads the
// lexer through a small lookahead window, so the AST is all it allocates (a
// parser that first materializes every token allocates 87–112 B per
// byte). The AST comes from per-file slabs and its lists are copied out at
// their exact length: 11.0 B per byte and 20 allocations per KB on the
// worst app, 11 per KB pooled, against 12.5 B, 215 and 207 with a node per
// allocation. The bounds sit between the two.
func TestParseAllocationPerByte(t *testing.T) {
	const (
		maxPerByte         = 12
		maxMallocsPerKB    = 30
		maxPooledMallocsKB = 16
	)
	var worst, worstMallocs, pooledMallocs, pooledBytes float64
	for _, app := range corpus.GenerateAll() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := alite.Parse(app.Name+".alite", app.Source)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		n := float64(len(app.Source))
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / n
		mallocs := float64(after.Mallocs - before.Mallocs)
		worst, worstMallocs = max(worst, perByte), max(worstMallocs, mallocs/n*1024)
		pooledMallocs += mallocs
		pooledBytes += n
		if perByte > maxPerByte {
			t.Errorf("%s: parsing %d bytes allocated %.1f B per byte, want at most %d",
				app.Name, len(app.Source), perByte, maxPerByte)
		}
		if perKB := mallocs / n * 1024; perKB > maxMallocsPerKB {
			t.Errorf("%s: parsing %d bytes made %.0f allocations per KB, want at most %d",
				app.Name, len(app.Source), perKB, maxMallocsPerKB)
		}
	}
	pooled := pooledMallocs / pooledBytes * 1024
	t.Logf("worst %.1f B per source byte, %.0f allocations per KB; pooled %.0f per KB", worst, worstMallocs, pooled)
	if pooled > maxPooledMallocsKB {
		t.Errorf("parsing the corpus made %.0f allocations per KB, want at most %d", pooled, maxPooledMallocsKB)
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
