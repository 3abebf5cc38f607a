package gator

import (
	"runtime"
	"testing"

	"gator/internal/corpus"
)

// TestLoadAllocationPerByte bounds what Load (parse, lower, shape
// fingerprints) allocates on the corpus apps: bytes per ALite source byte
// on the worst app, and allocations per KB of source on the worst app and
// pooled over all 20. AST nodes, methods and variables come from slabs and
// one lowerer serves every body: the worst app allocates 37.4 B per source
// byte (37.6 B under the race detector) and makes 292 allocations per KB,
// 173 pooled, against 41.0 B, 652 and 595 with an allocation per node,
// method and variable. The bounds sit between the two.
func TestLoadAllocationPerByte(t *testing.T) {
	const (
		maxPerByte         = 39
		maxMallocsPerKB    = 330
		maxPooledMallocsKB = 200
	)
	apps := corpus.GenerateAll()
	// One warm-up load, so one-time package initialization is not billed
	// to the first app.
	if _, err := Load(apps[0].BatchSources(), apps[0].LayoutXML()); err != nil {
		t.Fatal(err)
	}
	var worst, worstMallocs, pooledAlloc, pooledMallocs, pooledBytes float64
	worstApp, worstMallocsApp := "", ""
	for _, app := range apps {
		sources, layouts := app.BatchSources(), app.LayoutXML()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(sources, layouts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		n := float64(len(app.Source))
		alloc := float64(after.TotalAlloc - before.TotalAlloc)
		mallocs := float64(after.Mallocs - before.Mallocs)
		pooledAlloc += alloc
		pooledMallocs += mallocs
		pooledBytes += n
		if alloc/n > worst {
			worst, worstApp = alloc/n, app.Name
		}
		if mallocs/n*1024 > worstMallocs {
			worstMallocs, worstMallocsApp = mallocs/n*1024, app.Name
		}
	}
	pooled := pooledMallocs / pooledBytes * 1024
	t.Logf("worst %s: %.1f B per source byte (pooled %.1f B); worst %s: %.0f allocations per KB (pooled %.0f)",
		worstApp, worst, pooledAlloc/pooledBytes, worstMallocsApp, worstMallocs, pooled)
	if worst > maxPerByte {
		t.Errorf("%s: Load allocated %.1f B per source byte, want at most %d", worstApp, worst, maxPerByte)
	}
	if worstMallocs > maxMallocsPerKB {
		t.Errorf("%s: Load made %.0f allocations per KB of source, want at most %d", worstMallocsApp, worstMallocs, maxMallocsPerKB)
	}
	if pooled > maxPooledMallocsKB {
		t.Errorf("Load made %.0f allocations per KB of corpus source, want at most %d", pooled, maxPooledMallocsKB)
	}
}
