package graph

// listScan is the list length up to which an IDList answers membership by
// scanning its ids instead of keeping an index. Nearly every list is that
// short. Of the points-to sets, all but 45 of the 9,192 non-empty sets of
// the 20 corpus apps are, and all but 1,701 of the 38,871 of the 9 chain
// apps. Of the relations' successor lists, 57 of 6,092 and 540 of 35,550
// are longer (up to 81 listeners on one view), and of the flow successor
// lists 32 of 35,836 and 9 of 13,875.
const listScan = 8

// IDList is an insertion-ordered, deduplicated list of node ids: a
// points-to set, a relation's successors of one source, or the
// destinations of one node's flow edges. Insertion order is deterministic
// given a deterministic construction order, which keeps the whole analysis
// reproducible run to run. The zero value is the empty list, and a list
// owns no pointers, so tables hold lists by value and the garbage
// collector never scans their arrays.
type IDList struct {
	ids []int32
	// index holds the ids exactly while the list holds more than listScan
	// of them.
	index IDSet
}

// IDs returns the ids in insertion order. The slice is the list's own
// array: callers must not modify it, and it is valid until the list next
// changes. An Add while walking it leaves the walked prefix as it was.
func (l *IDList) IDs() []int32 { return l.ids }

// Len returns the number of ids.
func (l *IDList) Len() int { return len(l.ids) }

// Has reports whether id is in the list.
func (l *IDList) Has(id int32) bool {
	if l.index != nil {
		return l.index.Has(id)
	}
	for _, x := range l.ids {
		if x == id {
			return true
		}
	}
	return false
}

// Add appends id unless the list holds it; it reports whether id was new.
func (l *IDList) Add(id int32) bool {
	if l.Has(id) {
		return false
	}
	l.ids = append(l.ids, id)
	switch n := len(l.ids); {
	case n == listScan+1:
		l.reindex()
	case n > listScan+1:
		l.index = l.index.Add(id, n)
	}
	return true
}

// Remove deletes id, keeping the order of the others; it reports whether
// id was in the list.
func (l *IDList) Remove(id int32) bool {
	if !l.Has(id) {
		return false
	}
	i := 0
	for l.ids[i] != id {
		i++
	}
	l.ids = append(l.ids[:i], l.ids[i+1:]...)
	switch {
	case len(l.ids) == listScan:
		l.index = nil
	case l.index != nil:
		l.index.Delete(id)
	}
	return true
}

// filter rewrites the list in one in-order pass: f gets each id with its
// position before the pass and returns the id to keep in its place, or
// false to drop it. The kept ids keep their order, and a list left empty
// releases its array. It returns the number of ids dropped. Retraction
// filters lists, and compaction renumbers them with it.
func (l *IDList) filter(f func(at int, id int32) (int32, bool)) int {
	kept, changed := l.ids[:0], false
	for i, id := range l.ids {
		if to, ok := f(i, id); ok {
			kept = append(kept, to)
			changed = changed || to != id
		}
	}
	dropped := len(l.ids) - len(kept)
	if len(kept) == 0 {
		kept = nil
	}
	l.ids = kept
	if dropped > 0 || changed {
		l.reindex()
	}
	return dropped
}

// reindex rebuilds the index from the ids: it drops the index of a list
// of up to listScan ids and refills it otherwise.
func (l *IDList) reindex() {
	if len(l.ids) <= listScan {
		l.index = nil
		return
	}
	clear(l.index)
	for i, id := range l.ids {
		l.index = l.index.Add(id, i+1)
	}
}

// Renumber rewrites each id by remap, Graph.Compact's old-to-new map,
// keeping their order and dropping the ids it maps to -1.
func (l *IDList) Renumber(remap []int32) {
	l.filter(func(_ int, id int32) (int32, bool) { return remap[id], remap[id] >= 0 })
}
