package gator

import (
	"fmt"

	"gator/internal/cache"
)

// Cache is shared analysis state that survives across loads and apps: a
// content-addressed parse cache (identical source files parse once, even
// across different applications in a batch). Create one with NewCache and
// pass it to LoadCached, LoadDirCached, AnalyzeIncremental, or
// BatchOptions.Cache. Safe for concurrent use.
type Cache struct {
	parse *cache.ParseCache
}

// NewCache creates an empty cache with the default capacity.
func NewCache() *Cache {
	return &Cache{parse: cache.NewParseCache(0)}
}

// ParseStats returns the cumulative parse-cache hit and miss counts.
func (c *Cache) ParseStats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.parse.Stats()
}

// CacheTag renders the semantically relevant analysis options as a stable
// string, for use as the options component of a cache.AppFingerprint: two
// runs whose tags differ may compute different solutions and must not share
// cached outputs. Provenance and tracing are excluded — they do not change
// the solution.
func (o Options) CacheTag() string {
	return fmt.Sprintf("casts=%t shared=%t nofv3=%t declared=%t ctx=%s",
		o.FilterCasts, o.SharedInflation, o.NoFindView3Refinement,
		o.DeclaredDispatchOnly, o.ContextSensitivity)
}
