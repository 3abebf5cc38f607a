package cache

import (
	"fmt"
	"strings"
	"testing"
)

// keyN derives a distinct valid cache key.
func keyN(i int) string { return Hash("source", fmt.Sprintf("f%d", i), "x") }

func TestResultCacheLRUByBytes(t *testing.T) {
	c := NewResultCache(250)
	data := []byte(strings.Repeat("r", 100))
	c.Put(keyN(0), data)
	c.Put(keyN(1), data)
	if _, ok := c.Get(keyN(0)); !ok { // refresh 0 → 1 becomes LRU
		t.Fatal("entry 0 must exist")
	}
	c.Put(keyN(2), data)
	if _, ok := c.Get(keyN(1)); ok {
		t.Fatal("entry 1 (LRU) must have been evicted")
	}
	if got, ok := c.Get(keyN(2)); !ok || string(got) != string(data) {
		t.Fatal("entry 2 must round-trip")
	}
	if c.Len() != 2 || c.Size() != 200 {
		t.Fatalf("len=%d size=%d, want 2/200", c.Len(), c.Size())
	}
	hits, misses := c.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("stats hits=%d misses=%d, want both nonzero", hits, misses)
	}
}

func TestResultCacheOversizeEntryDropped(t *testing.T) {
	c := NewResultCache(50)
	c.Put(keyN(0), []byte(strings.Repeat("r", 100)))
	if _, ok := c.Get(keyN(0)); ok {
		t.Fatal("entry larger than the whole budget must not be stored")
	}
	if c.Size() != 0 {
		t.Fatalf("size %d, want 0", c.Size())
	}
}

func TestResultCacheCopiesOnPut(t *testing.T) {
	c := NewResultCache(0)
	buf := []byte("original")
	c.Put(keyN(0), buf)
	buf[0] = 'X'
	got, ok := c.Get(keyN(0))
	if !ok || string(got) != "original" {
		t.Fatalf("got %q, want insulated copy \"original\"", got)
	}
}
