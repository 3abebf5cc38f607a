package gator

import (
	"runtime"
	"testing"

	"gator/internal/corpus"
)

// TestLoadAllocationPerByte bounds what Load (parse, lower, shape
// fingerprints) allocates per ALite source byte on the worst corpus app.
// The lowerer keeps one variable stack instead of a map per block, and
// MethodKey, lowering temporaries and ShapeSignature build their strings
// without fmt: the worst app allocates 41.0 B per source byte (35.7 B
// pooled over the 20 apps), against 48.7 B (44.3 B pooled) with a map per
// block and fmt. The bound sits between the two.
func TestLoadAllocationPerByte(t *testing.T) {
	const maxPerByte = 44
	apps := corpus.GenerateAll()
	// One warm-up load, so one-time package initialization is not billed
	// to the first app.
	if _, err := Load(apps[0].BatchSources(), apps[0].LayoutXML()); err != nil {
		t.Fatal(err)
	}
	var worst, pooledAlloc, pooledBytes float64
	worstApp := ""
	for _, app := range apps {
		sources, layouts := app.BatchSources(), app.LayoutXML()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(sources, layouts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		alloc := float64(after.TotalAlloc - before.TotalAlloc)
		perByte := alloc / float64(len(app.Source))
		pooledAlloc += alloc
		pooledBytes += float64(len(app.Source))
		if perByte > worst {
			worst, worstApp = perByte, app.Name
		}
	}
	t.Logf("worst %s: %.1f B per source byte; pooled %.1f B", worstApp, worst, pooledAlloc/pooledBytes)
	if worst > maxPerByte {
		t.Errorf("%s: Load allocated %.1f B per source byte, want at most %d", worstApp, worst, maxPerByte)
	}
}
