// Package slab allocates many small values of one type in a few chunks, so
// a front end that builds thousands of nodes pays for a handful of
// allocations instead of one per node, and grows per-node tables by exact
// doubling (grow.go).
package slab

// Chunk lengths are clamped to [minChunk, maxChunk] values. The floor keeps
// a slab for a rare node kind small; the cap bounds the unused tail of a
// chunk, and so what one hostile input can make a slab reserve ahead of
// its need.
const (
	minChunk = 4
	maxChunk = 64
)

// Slab hands out values of type T carved from chunks it allocates as it
// goes. The garbage collector frees a chunk only once no value in it is
// reachable, so one slab should serve values that live and die together:
// the nodes of one parsed file, the variables of one lowering pass.
//
// Chunk lengths follow the input the values are made from. The first chunk
// holds what the caller estimates from the input's size; each later one
// holds what the rest of the input should need at the rate values were
// made so far, so an input's last chunks shrink toward what it still needs
// where doubling would overshoot by up to a chunk. The zero Slab, which
// knows nothing of its input, hands out chunks of minChunk values.
type Slab[T any] struct {
	free  []T // the unused tail of the current chunk
	first int // length of the first chunk
	made  int // values handed out so far
	read  func() (done, total int)
}

// Paced returns a slab whose first chunk holds first values and whose
// later chunks are paced by read, which reports how many units of the
// input (bytes, statements) have been read and how many there are. With a
// nil read, every chunk holds first values.
func Paced[T any](first int, read func() (done, total int)) Slab[T] {
	return Slab[T]{first: first, read: read}
}

// Alloc copies v into the slab and returns its address.
func (s *Slab[T]) Alloc(v T) *T {
	s.reserve(1)
	p := &s.free[0]
	*p = v
	s.free = s.free[1:]
	s.made++
	return p
}

// Copy copies src into the slab and returns the copy, or nil for an empty
// src. The copy has no spare capacity, so an append to it reallocates
// instead of writing over the values after it.
func (s *Slab[T]) Copy(src []T) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	s.reserve(n)
	out := s.free[:n:n]
	copy(out, src)
	s.free = s.free[n:]
	s.made += n
	return out
}

// reserve makes the current chunk hold at least n free values, starting a
// new chunk when it does not; the old chunk's tail goes unused.
func (s *Slab[T]) reserve(n int) {
	if len(s.free) >= n {
		return
	}
	c := s.first
	if s.made > 0 && s.read != nil {
		done, total := s.read()
		c = s.made * (total - done) / max(done, 1)
	}
	s.free = make([]T, max(min(max(c, minChunk), maxChunk), n))
}
