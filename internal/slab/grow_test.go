package slab

import "testing"

// TestPushDoubles: from empty, Push allocates 4 values and then exactly
// twice the old capacity each time s is full, keeping every value.
func TestPushDoubles(t *testing.T) {
	var s []int32
	var caps []int
	for i := range int32(100_000) {
		old := cap(s)
		s = Push(s, i)
		if cap(s) != old {
			caps = append(caps, cap(s))
		}
	}
	want := 4
	for _, c := range caps {
		if c != want {
			t.Fatalf("capacities %v, want doublings from 4", caps)
		}
		want *= 2
	}
	for i, v := range s {
		if v != int32(i) {
			t.Fatalf("value %d reads %d after growth", i, v)
		}
	}
}

// TestGrowToStaysUnderTwiceLength: a slot array grown one id at a time
// never holds more than twice its length past the 64-value floor, a jump
// keeps the size-class rounding as capacity (1,000 int32s are 4,000 bytes,
// a 4,096-byte allocation), and reused capacity reads as zero values.
func TestGrowToStaysUnderTwiceLength(t *testing.T) {
	var s []int64
	for n := 1; n <= 20_000; n++ {
		s = GrowTo(s, n)
		s[n-1] = int64(n)
		if len(s) != n || cap(s) > max(2*n, 64) {
			t.Fatalf("GrowTo(%d): len %d cap %d, want cap at most %d", n, len(s), cap(s), max(2*n, 64))
		}
	}
	if got := cap(GrowTo([]int32(nil), 1000)); got != 1024 {
		t.Errorf("GrowTo(nil, 1000) has capacity %d, want the size class's 1024", got)
	}
	reused := GrowTo([]int{1, 2, 3}[:1], 3)
	if reused[0] != 1 || reused[1] != 0 || reused[2] != 0 {
		t.Errorf("GrowTo over reused capacity reads %v, want [1 0 0]", reused)
	}
	if g := Grow([]int{7}, 100, 4); len(g) != 1 || g[0] != 7 || cap(g) < 100 {
		t.Errorf("Grow(_, 100, 4) = %v (cap %d), want [7] with capacity 100", g, cap(g))
	}
}
