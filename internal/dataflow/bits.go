package dataflow

import "slices"

// Bits is a bitset fact. Get, With, Union, Equal and Ones never mutate their
// receiver, so Join can build on them (Join stays pure: it reads the
// solver's stored facts); Add and Remove update a set in place, for
// Transfer on the copy the solver hands it. The nil Bits is the empty set
// (and the Bottom of set-union instances).
type Bits []uint64

// Get reports whether bit i is set.
func (b Bits) Get(i int) bool {
	w := i / 64
	return w < len(b) && b[w]&(1<<(uint(i)%64)) != 0
}

// With returns a copy of b with bit i set.
func (b Bits) With(i int) Bits {
	out := slices.Clone(b)
	out.Add(i)
	return out
}

// Union returns b ∪ o, reusing b or o when one contains the other is not
// attempted; the result is always fresh unless one side is empty.
func (b Bits) Union(o Bits) Bits {
	if len(o) == 0 {
		return b
	}
	if len(b) == 0 {
		return o
	}
	n := len(b)
	if len(o) > n {
		n = len(o)
	}
	out := make(Bits, n)
	copy(out, b)
	for i, w := range o {
		out[i] |= w
	}
	return out
}

// Add sets bit i in place, growing b when i lies past its last word.
func (b *Bits) Add(i int) {
	w := i / 64
	if w >= len(*b) {
		*b = append(*b, make(Bits, w+1-len(*b))...)
	}
	(*b)[w] |= 1 << (uint(i) % 64)
}

// Remove clears every member of o from b in place.
func (b Bits) Remove(o Bits) {
	for i := range b {
		if i < len(o) {
			b[i] &^= o[i]
		}
	}
}

// Equal reports set equality (trailing zero words are insignificant).
func (b Bits) Equal(o Bits) bool {
	long, short := b, o
	if len(o) > len(b) {
		long, short = o, b
	}
	for i, w := range long {
		var ow uint64
		if i < len(short) {
			ow = short[i]
		}
		if w != ow {
			return false
		}
	}
	return true
}

// Ones returns the set members in increasing order.
func (b Bits) Ones() []int {
	var out []int
	for i, w := range b {
		for j := 0; j < 64; j++ {
			if w&(1<<uint(j)) != 0 {
				out = append(out, i*64+j)
			}
		}
	}
	return out
}
