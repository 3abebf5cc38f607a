// Package cache provides content-addressed caching for incremental
// re-analysis: stable fingerprints of compilation units (source files,
// layout files) and whole applications, an in-memory LRU parse cache shared
// across batch workers, and gatord's in-memory LRU of rendered analysis
// outputs keyed by application fingerprint (results.go).
//
// Everything is keyed by content hash, never by file path or modification
// time, so a cache entry can never go stale: an edit changes the content,
// the content changes the key, and the old entry simply stops being asked
// for. The LRU bound controls the space cost.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"

	"gator/internal/alite"
)

// Hash returns the hex-encoded sha256 of a compilation unit's content,
// domain-separated by the unit's kind and name so a source file and a
// layout with identical bytes get distinct fingerprints.
func Hash(kind, name, content string) string {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(content))
	return hex.EncodeToString(h.Sum(nil))
}

// AppFingerprint combines the unit hashes of one application plus an
// options tag into one stable key: the units are sorted by name, so map
// iteration order cannot leak in.
func AppFingerprint(optionsTag string, sources, layouts map[string]string) string {
	var lines []string
	for name, src := range sources {
		lines = append(lines, Hash("source", name, src))
	}
	for name, xml := range layouts {
		lines = append(lines, Hash("layout", name, xml))
	}
	sort.Strings(lines)
	h := sha256.New()
	h.Write([]byte(optionsTag))
	h.Write([]byte{0})
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ParseCache is a bounded, content-addressed cache of parsed ALite files.
// It is safe for concurrent use by batch workers; the cached *alite.File
// values are shared, which is sound because ir.Build treats ASTs as
// read-only.
type ParseCache struct {
	lru *lru[*alite.File] // each file costs 1
}

// DefaultParseEntries bounds the parse cache when the caller passes a
// non-positive size. Corpus files dominate batch workloads; a few thousand
// entries cover every app in the evaluation many times over.
const DefaultParseEntries = 4096

// NewParseCache creates a parse cache holding at most max files (<=0 uses
// DefaultParseEntries).
func NewParseCache(max int) *ParseCache {
	if max <= 0 {
		max = DefaultParseEntries
	}
	return &ParseCache{lru: newLRU[*alite.File](int64(max))}
}

// Parse returns the parsed form of one source file, parsing on miss, and
// reports whether the lookup hit. Two files with identical content share
// one AST regardless of app — the name participates in the key (it appears
// in positions), so shared corpus files across apps hit, while the same
// content under a different file name does not.
func (c *ParseCache) Parse(name, src string) (*alite.File, bool, error) {
	key := Hash("source", name, src)
	if f, ok := c.lru.get(key); ok {
		return f, true, nil
	}
	// Parse outside the lock: distinct files parse concurrently. A racing
	// duplicate parse of the same content is wasted work, not an error:
	// the first AST stored is the one both callers get.
	f, err := alite.Parse(name, src)
	if err != nil {
		return nil, false, err
	}
	return c.lru.put(key, f, 1), false, nil
}

// Stats returns the cumulative hit and miss counts.
func (c *ParseCache) Stats() (hits, misses int64) { return c.lru.stats() }

// Len returns the number of cached files.
func (c *ParseCache) Len() int { return c.lru.len() }
