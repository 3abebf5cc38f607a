package graph

// Values is a read-only view of a list of value node ids of one graph,
// such as a points-to set, a relation's successors or a walk: it resolves
// an id to its node only when asked, so handing one out copies and
// allocates nothing, and concurrent readers share no state. A view holds
// the list it was made from and must not outlive it: a points-to set's or
// a relation's view is valid until the solution changes (the next
// incremental run that adopts it), a walk's until its walker walks again.
// Walk one by index:
//
//	for i := range vals.Len() {
//		v := vals.At(i)
//		...
//	}
type Values struct {
	ids   []int32
	nodes []Node
}

// Values returns the view of ids, which must name value nodes of g. The
// view keeps ids without copying it.
func (g *Graph) Values(ids []int32) Values { return Values{ids: ids, nodes: g.nodes} }

// Len returns the number of values.
func (v Values) Len() int { return len(v.ids) }

// At returns the i-th value.
func (v Values) At(i int) Value { return v.nodes[v.ids[i]].(Value) }

// ID returns the node id of the i-th value.
func (v Values) ID(i int) int { return int(v.ids[i]) }

// Slice returns the values as a new slice.
func (v Values) Slice() []Value {
	if len(v.ids) == 0 {
		return nil
	}
	out := make([]Value, len(v.ids))
	for i, id := range v.ids {
		out[i] = v.nodes[id].(Value)
	}
	return out
}
