package cache

import (
	"container/list"
	"sync"
)

// lru is a least-recently-used map from content keys to values, bounded by
// the total cost of its entries: ParseCache counts each parsed file as 1,
// ResultCache each rendered output as its byte length. It counts the hits
// and misses of get. Safe for concurrent use.
type lru[V any] struct {
	mu      sync.Mutex
	budget  int64
	size    int64 // total cost of the entries
	entries map[string]*list.Element
	order   *list.List // front = most recent; value = *lruEntry[V]
	hits    int64
	misses  int64
}

type lruEntry[V any] struct {
	key  string
	val  V
	cost int64
}

func newLRU[V any](budget int64) *lru[V] {
	return &lru[V]{budget: budget, entries: map[string]*list.Element{}, order: list.New()}
}

// get returns key's value, marking it most recently used, and counts a hit
// or a miss.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores val under key at cost, evicting the least recently used
// entries until the total cost fits the budget, and returns val. When key
// is already stored, put keeps that entry, marks it most recently used and
// returns its value instead: keys are content hashes, so both values
// stand for the same content. An entry costing more than the whole budget
// is not stored.
func (c *lru[V]) put(key string, val V, cost int64) V {
	if cost > c.budget {
		return val
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val, cost: cost})
	c.size += cost
	for c.size > c.budget {
		e := c.order.Remove(c.order.Back()).(*lruEntry[V])
		delete(c.entries, e.key)
		c.size -= e.cost
	}
	return val
}

// stats returns the cumulative hit and miss counts.
func (c *lru[V]) stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// len returns the number of entries.
func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// cost returns the total cost of the entries.
func (c *lru[V]) cost() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}
