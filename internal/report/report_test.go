package report

import (
	"testing"

	"gator"
)

// TestCacheKey: everything that changes a rendering changes its key — the
// options, the report kind, the explain target, the seed and the check
// selection — while an omitted seed and seed 1 render alike and share one.
func TestCacheKey(t *testing.T) {
	sources := map[string]string{"a.alite": "class A {}"}
	base := Request{Report: "checks", Checks: []string{"dangling-findview"}}
	key := base.CacheKey("app", gator.Options{}, sources, nil)
	if key == "" {
		t.Fatal("a checks report has no cache key")
	}
	seeded := base
	seeded.Seed = 1
	if seeded.CacheKey("app", gator.Options{}, sources, nil) != key {
		t.Error("seed 1 and an omitted seed have different keys")
	}

	for name, r := range map[string]Request{
		"checks":  {Report: "checks", Checks: []string{"unused-view-id"}},
		"all":     {Report: "checks"},
		"kind":    {Report: "sarif", Checks: base.Checks},
		"seed":    {Report: "checks", Checks: base.Checks, Seed: 2},
		"explain": {Report: "checks", Checks: base.Checks, Explain: "id:go"},
	} {
		if r.CacheKey("app", gator.Options{}, sources, nil) == key {
			t.Errorf("%s: same key as %+v", name, base)
		}
	}
	// The checks report prints the application's name, so it keys too.
	if base.CacheKey("other", gator.Options{}, sources, nil) == key {
		t.Error("name: same key for another application name")
	}
	if base.CacheKey("app", gator.Options{FilterCasts: true}, sources, nil) == key {
		t.Error("options do not change the key")
	}
	if base.CacheKey("app", gator.Options{Provenance: true}, sources, nil) != key {
		t.Error("provenance, which changes no report, changes the key")
	}

	byID := Request{Explain: "id:go"}.CacheKey("app", gator.Options{}, sources, nil)
	if (Request{Explain: "id:stop"}).CacheKey("app", gator.Options{}, sources, nil) == byID {
		t.Error("two explain targets share a key")
	}
}

func TestEntryRoundTrip(t *testing.T) {
	for _, c := range []struct {
		code int
		out  string
	}{{0, "views\n"}, {1, ""}} {
		code, out, ok := DecodeEntry(EncodeEntry(c.code, c.out))
		if !ok || code != c.code || out != c.out {
			t.Errorf("round trip of (%d, %q) = (%d, %q, %v)", c.code, c.out, code, out, ok)
		}
	}
	for _, bad := range [][]byte{nil, {}, []byte("xoutput")} {
		if _, _, ok := DecodeEntry(bad); ok {
			t.Errorf("DecodeEntry(%q) accepted", bad)
		}
	}
}
