package slab

// Grow returns s with capacity for n values, reallocating to twice its
// capacity, and at least least, when it must. append grows a slice past
// 256 values by about a quarter at a time, which allocates about five
// times a long slice's final size on the way, and slices.Grow asks for
// twice the length steps past it, up to 2.6 times the old capacity.
// Appending to a nil slice allocates exactly the capacity asked for,
// rounded up to the allocation's size class, so none of the rounding is
// wasted. Per-node tables (the graph's node, slot and successor arrays,
// the solver's points-to table) grow through Grow, GrowTo and Push.
func Grow[T any](s []T, n, least int) []T {
	if n <= cap(s) {
		return s
	}
	grown := append([]T(nil), make([]T, max(n, 2*cap(s), least))...)[:len(s)]
	copy(grown, s)
	return grown
}

// GrowTo returns s extended with zero values to length n, growing it as
// Grow does, to at least 64 values, when it must reallocate.
func GrowTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	s = Grow(s, n, 64)
	old := len(s)
	s = s[:n]
	clear(s[old:])
	return s
}

// Push appends v to s, growing it as Grow does, to at least 4 values, when
// s is full.
func Push[T any](s []T, v T) []T { return append(Grow(s, len(s)+1, 4), v) }
