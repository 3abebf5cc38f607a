package graph

// IDSet is an open-addressed hash set of node ids, the membership index of
// a list too long to scan: a points-to set past its scan limit, or a flow
// or relation successor list past relScan. A slot holds id+1, and 0 marks
// an empty one. The table has no pointers, so the garbage collector never
// scans it, and its length is zero or a power of two kept at least twice
// the number of ids. The zero value is the empty set.
//
// Probing is linear, so Delete needs no tombstones: it shifts the entries
// that follow the deleted one back toward their home slots.
type IDSet []int32

// Has reports whether id is in the set.
func (s IDSet) Has(id int32) bool {
	if len(s) == 0 {
		return false
	}
	mask := uint32(len(s) - 1)
	for i := hashID(id) & mask; ; i = (i + 1) & mask {
		switch s[i] {
		case 0:
			return false
		case id + 1:
			return true
		}
	}
}

// Add returns the set with id, which must be absent, added. n is the
// number of ids the set holds with id in; when that would fill more than
// half the table, Add moves the ids to a table twice the size.
func (s IDSet) Add(id int32, n int) IDSet {
	if 2*n > len(s) {
		size := 16
		for size < 2*n {
			size *= 2
		}
		grown := make(IDSet, size)
		for _, x := range s {
			if x != 0 {
				grown.insert(x - 1)
			}
		}
		s = grown
	}
	s.insert(id)
	return s
}

// Delete removes id, which must be present.
func (s IDSet) Delete(id int32) {
	mask := uint32(len(s) - 1)
	i := hashID(id) & mask
	for s[i] != id+1 {
		i = (i + 1) & mask
	}
	// Move each later entry of the probe run into the hole unless its home
	// slot lies cyclically after the hole, up to the entry itself.
	for j := (i + 1) & mask; s[j] != 0; j = (j + 1) & mask {
		home := hashID(s[j]-1) & mask
		if i <= j && i < home && home <= j || i > j && (i < home || home <= j) {
			continue
		}
		s[i] = s[j]
		i = j
	}
	s[i] = 0
}

// insert places id in its first free slot; the table has room.
func (s IDSet) insert(id int32) {
	mask := uint32(len(s) - 1)
	i := hashID(id) & mask
	for s[i] != 0 {
		i = (i + 1) & mask
	}
	s[i] = id + 1
}

// hashID spreads node ids, which are dense and often strided, over the
// table's low bits.
func hashID(id int32) uint32 {
	h := uint32(id) * 0x9E3779B1
	return h ^ h>>15
}
