package graph

// FlowTableSize returns the number of successor lists in g's flow table
// and the capacity of its slot array.
func FlowTableSize(g *Graph) (lists, slots int) { return len(g.flows), cap(g.flowAt) }

// RelIndexSlots returns the capacity of the slot array of g's relation
// source index.
func RelIndexSlots(g *Graph) int { return cap(g.relIdx.row) }
