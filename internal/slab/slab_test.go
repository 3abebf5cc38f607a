package slab

import (
	"reflect"
	"testing"
)

// chunks allocates n values from s and returns the length of each chunk
// it started.
func chunks(s *Slab[int], n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		fresh := len(s.free) == 0
		s.Alloc(i)
		if fresh {
			out = append(out, len(s.free)+1)
		}
	}
	return out
}

// TestChunkLengths: the first chunk holds the caller's estimate, and each
// later one what the rest of the input should need at the rate so far (10
// values in the first 100 of 400 units call for 30 more), clamped to
// [minChunk, maxChunk]; the zero Slab's chunks hold minChunk values.
func TestChunkLengths(t *testing.T) {
	done, total := 100, 400
	read := func() (int, int) { return done, total }
	s := Paced[int](10, read)
	for _, step := range []struct {
		done, n int
		want    []int
	}{
		{100, 10, []int{10}},
		{100, 30, []int{30}},
		{50, 64, []int{maxChunk}}, // 40 values in 50 units call for 280
		{399, 1, []int{minChunk}},
	} {
		done = step.done
		if got := chunks(&s, step.n); !reflect.DeepEqual(got, step.want) {
			t.Errorf("at %d/%d after %d values: chunks %v, want %v", done, total, s.made-step.n, got, step.want)
		}
	}
	var zero Slab[int]
	if got, want := chunks(&zero, 10), []int{minChunk, minChunk, minChunk}; !reflect.DeepEqual(got, want) {
		t.Errorf("zero Slab: chunks %v, want %v", got, want)
	}
	for _, first := range []int{0, 1 << 30} {
		s := Paced[int](first, read)
		if got, want := chunks(&s, 1), []int{min(max(first, minChunk), maxChunk)}; !reflect.DeepEqual(got, want) {
			t.Errorf("Paced(%d): first chunk %v, want %v", first, got, want)
		}
	}
}

func TestAllocKeepsEveryValue(t *testing.T) {
	var s Slab[int]
	var ps []*int
	for i := 0; i < 1000; i++ {
		ps = append(ps, s.Alloc(i))
	}
	for i, p := range ps {
		if *p != i {
			t.Fatalf("value %d reads %d after 1000 allocations", i, *p)
		}
	}
}

func TestCopyHasNoSpareCapacity(t *testing.T) {
	var s Slab[int]
	if s.Copy(nil) != nil {
		t.Error("Copy(nil) is not nil")
	}
	a := s.Copy([]int{1, 2})
	b := s.Copy([]int{3})
	if len(a) != 2 || cap(a) != 2 {
		t.Fatalf("Copy returned len %d cap %d, want 2 and 2", len(a), cap(a))
	}
	a = append(a, 9)
	if b[0] != 3 || a[2] != 9 {
		t.Errorf("append to one copy changed its neighbor: %v %v", a, b)
	}
	long := make([]int, 3*maxChunk)
	if got := s.Copy(long); len(got) != len(long) {
		t.Errorf("Copy of %d values returned %d", len(long), len(got))
	}
}
