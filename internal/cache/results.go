package cache

import (
	"container/list"
	"sync"
)

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
	mu      sync.Mutex
	max     int64
	size    int64
	entries map[string]*list.Element
	lru     *list.List // front = most recent; value = *resultEntry
	hits    int64
	misses  int64
}

type resultEntry struct {
	key  string
	data []byte
}

// NewResultCache creates a result cache holding at most maxBytes of entry
// data (<= 0 uses DefaultResultBytes).
func NewResultCache(maxBytes int64) *ResultCache {
	if maxBytes <= 0 {
		maxBytes = DefaultResultBytes
	}
	return &ResultCache{
		max:     maxBytes,
		entries: map[string]*list.Element{},
		lru:     list.New(),
	}
}

// Get returns the stored bytes for key, reporting whether an entry exists.
// The returned slice is shared — callers must treat it as read-only.
func (c *ResultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*resultEntry).data, true
}

// Put stores a copy of data under key, evicting least-recently-used entries
// to fit the byte budget. An entry larger than the whole budget is not
// stored. Re-putting an existing key refreshes its recency (entries are
// content-addressed, so the bytes cannot differ).
func (c *ResultCache) Put(key string, data []byte) {
	if int64(len(data)) > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	kept := append([]byte(nil), data...)
	c.entries[key] = c.lru.PushFront(&resultEntry{key: key, data: kept})
	c.size += int64(len(kept))
	for c.size > c.max {
		last := c.lru.Back()
		c.lru.Remove(last)
		e := last.Value.(*resultEntry)
		delete(c.entries, e.key)
		c.size -= int64(len(e.data))
	}
}

// Stats returns the cumulative hit and miss counts.
func (c *ResultCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Size returns the total bytes of cached entry data.
func (c *ResultCache) Size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}
