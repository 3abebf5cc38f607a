package cache

// DefaultResultBytes bounds the in-memory result cache when the caller
// passes a non-positive budget: rendered reports are small (a few KB), so
// 64 MiB holds tens of thousands of them.
const DefaultResultBytes = 64 << 20

// ResultCache is a byte-bounded, content-addressed, in-memory LRU of
// rendered analysis outputs. It is gatord's result cache: identical
// submissions replay the stored report without touching the solver, and the
// byte budget — not an entry count — bounds memory, because rendered
// reports vary in size by orders of magnitude (a summary vs. a corpus-wide
// SARIF log). Safe for concurrent use.
type ResultCache struct {
	lru *lru[[]byte] // each entry costs its length
}

// NewResultCache creates a result cache holding at most maxBytes of entry
// data (<= 0 uses DefaultResultBytes).
func NewResultCache(maxBytes int64) *ResultCache {
	if maxBytes <= 0 {
		maxBytes = DefaultResultBytes
	}
	return &ResultCache{lru: newLRU[[]byte](maxBytes)}
}

// Get returns the stored bytes for key, reporting whether an entry exists.
// The returned slice is shared — callers must treat it as read-only.
func (c *ResultCache) Get(key string) ([]byte, bool) { return c.lru.get(key) }

// Put stores a copy of data under key, evicting least-recently-used entries
// to fit the byte budget. An entry larger than the whole budget is not
// stored. Re-putting an existing key refreshes its recency (entries are
// content-addressed, so the bytes cannot differ).
func (c *ResultCache) Put(key string, data []byte) {
	c.lru.put(key, append([]byte(nil), data...), int64(len(data)))
}

// Stats returns the cumulative hit and miss counts.
func (c *ResultCache) Stats() (hits, misses int64) { return c.lru.stats() }

// Len returns the number of cached entries.
func (c *ResultCache) Len() int { return c.lru.len() }

// Size returns the total bytes of cached entry data.
func (c *ResultCache) Size() int64 { return c.lru.cost() }
