package cache

import (
	"fmt"
	"sync"
	"testing"
)

const src = `class Main extends Activity {
  void onCreate() { int x; x = R.layout.main; }
}`

func TestHashDomainSeparation(t *testing.T) {
	if Hash("source", "a", "x") == Hash("layout", "a", "x") {
		t.Fatal("source and layout hashes of identical content must differ")
	}
	if Hash("source", "a", "x") == Hash("source", "b", "x") {
		t.Fatal("hashes of identically-contented but differently-named units must differ")
	}
	if Hash("source", "a", "x") != Hash("source", "a", "x") {
		t.Fatal("hash must be deterministic")
	}
}

func TestAppFingerprintStable(t *testing.T) {
	s := map[string]string{"a.alite": "A", "b.alite": "B"}
	l := map[string]string{"main": "<LinearLayout/>"}
	f1 := AppFingerprint("opts", s, l)
	f2 := AppFingerprint("opts", map[string]string{"b.alite": "B", "a.alite": "A"}, l)
	if f1 != f2 {
		t.Fatal("fingerprint must not depend on map iteration order")
	}
	if f1 == AppFingerprint("other", s, l) {
		t.Fatal("options tag must participate in the fingerprint")
	}
	if f1 == AppFingerprint("opts", map[string]string{"a.alite": "A2", "b.alite": "B"}, l) {
		t.Fatal("content edit must change the fingerprint")
	}
}

func TestParseCacheHitsAndSharing(t *testing.T) {
	c := NewParseCache(8)
	f1, hit1, err := c.Parse("main.alite", src)
	if err != nil {
		t.Fatal(err)
	}
	f2, hit2, err := c.Parse("main.alite", src)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("identical content must share one AST")
	}
	if hit1 || !hit2 {
		t.Fatalf("got hit1=%v hit2=%v, want miss then hit", hit1, hit2)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("got hits=%d misses=%d, want 1/1", hits, misses)
	}
	// Same content under another name is a distinct unit (positions differ).
	f3, _, err := c.Parse("other.alite", src)
	if err != nil {
		t.Fatal(err)
	}
	if f3 == f1 {
		t.Fatal("different file name must not share the AST")
	}
}

func TestParseCacheError(t *testing.T) {
	c := NewParseCache(8)
	if _, _, err := c.Parse("bad.alite", "class {"); err == nil {
		t.Fatal("want parse error")
	}
	if c.Len() != 0 {
		t.Fatal("errors must not be cached")
	}
}

func TestParseCacheEviction(t *testing.T) {
	c := NewParseCache(2)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("f%d.alite", i)
		if _, _, err := c.Parse(name, "class C extends Object { }"); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("got %d entries, want LRU bound 2", c.Len())
	}
}

func TestParseCacheConcurrent(t *testing.T) {
	c := NewParseCache(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("f%d.alite", i%5)
				if _, _, err := c.Parse(name, src); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != 5 {
		t.Fatalf("got %d entries, want 5", c.Len())
	}
}
