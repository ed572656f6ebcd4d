package hb

import "webracer/internal/op"

// NewPredictiveClocks builds the vector-clock view of g's *predictive*
// partial order P: the transitive closure of the strong (causal) edges
// only, with every weak (schedule-induced) edge dropped. P is a sound
// weakening of happens-before in the WCP/SDP tradition: every ordering in
// P holds in *all* feasible executions of the page, so two conflicting
// accesses that are P-concurrent race in some feasible schedule even when
// the observed schedule happened to order them. Since P ⊆ HB, every
// HB-concurrent pair is also P-concurrent — predictive detection can only
// add races, never lose one.
//
// Like NewClocks this is a snapshot of a finished graph; it verifies the
// topological-ID invariant and shares g's adjacency when the graph has no
// weak edges (P = HB then).
func NewPredictiveClocks(g *Graph) *Clocks {
	if g.WeakEdges() == 0 {
		return NewClocks(g)
	}
	n := g.Len()
	preds := make([][]op.ID, n)
	succs := make([][]op.ID, n)
	for i := 1; i <= n; i++ {
		id := op.ID(i)
		for _, p := range g.node(id).preds {
			if !g.IsWeak(p, id) {
				preds[i-1] = append(preds[i-1], p)
				succs[p-1] = append(succs[p-1], id)
			}
		}
	}
	return snapshot(g, preds, succs)
}
