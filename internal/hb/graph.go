// Package hb implements the happens-before relation of §3 of "Race
// Detection for Web Applications" (PLDI 2012).
//
// The relation is represented, as in the paper's implementation (§5.2.1),
// "rather directly as a graph structure": operations are nodes and each of
// the rules of §3.3 contributes directed edges. The relation itself is the
// transitive closure of the edge set. Two query engines are provided:
//
//   - Graph.HappensBefore answers reachability using memoized per-node
//     bitset closures (the paper's graph-traversal approach, but with each
//     node's ancestor set cached so repeated queries are O(n/64) words).
//
//   - Clocks assigns every operation a vector clock over a greedy chain
//     decomposition of the DAG — the "more efficient vector-clock
//     representation" the paper names as future work. Ordering queries are
//     then a single array lookup.
//
// Both engines answer exactly the same relation; package race exploits that
// in an ablation, and property tests in this package check the equivalence
// on random DAGs.
package hb

import (
	"fmt"

	"webracer/internal/op"
)

// Graph is a happens-before DAG over operation IDs. The zero value is ready
// to use. Graph is not safe for concurrent use; the simulated browser is
// single-threaded, mirroring the web platform (§2.1).
//
// Nodes live in fixed-size chunks that are never reallocated, so adding a
// node never copies the ones before it: a run's graph grows one chunk at a
// time instead of re-copying its node headers at every doubling.
type Graph struct {
	chunks [][]node // chunks[i>>nodeChunkBits][i&(nodeChunk-1)] is ID(i+1)
	n      int      // nodes the graph has room for
	edges  int

	// weak marks edges that order operations only because of the schedule
	// the run happened to observe (HB rule 9's dispatch serialization), not
	// because of a causal dependency. Weak edges are full members of the
	// happens-before relation — every oracle and detector over this graph
	// sees them — but the predictive partial order (NewPredictiveClocks)
	// drops them. Keyed a<<32|b; nil until the first WeakEdge.
	weak map[uint64]struct{}

	// Mirror, when set, receives every AddNode/Edge call — the hook the
	// browser uses to keep a LiveClocks oracle in lock-step with the
	// graph (experiment E4's online arm).
	Mirror *LiveClocks
}

// node is one operation's adjacency and memoized ancestor set.
type node struct {
	preds   []op.ID // direct predecessors
	succs   []op.ID
	closure bitset // ancestor set; nil if stale/unset
}

// A chunk holds nodeChunk nodes: 32 nodes of 72 bytes fill one 2304-byte
// size class exactly.
const (
	nodeChunkBits = 5
	nodeChunk     = 1 << nodeChunkBits
)

// node returns id's node; id must be in 1..g.n.
func (g *Graph) node(id op.ID) *node {
	i := int(id) - 1
	return &g.chunks[i>>nodeChunkBits][i&(nodeChunk-1)]
}

// NewGraph returns an empty happens-before graph.
func NewGraph() *Graph { return &Graph{} }

// AddNode makes room for the operation; it must be called (directly or via
// Edge's implicit growth) before querying the node. Nodes are cheap.
func (g *Graph) AddNode(id op.ID) {
	g.grow(id)
	if g.Mirror != nil {
		g.Mirror.AddNode(id)
	}
}

func (g *Graph) grow(id op.ID) {
	for g.n < int(id) {
		if g.n&(nodeChunk-1) == 0 {
			g.chunks = append(g.chunks, make([]node, nodeChunk))
		}
		g.n++
	}
}

// Edge records a ⇝ b (a happens before b). Self edges and duplicate edges
// are ignored. Adding an edge invalidates the memoized closures of b and
// its descendants, so interleaving edge insertion with queries stays
// correct (the browser mostly adds edges into operations that have not been
// queried yet, so invalidation is rarely triggered in practice).
func (g *Graph) Edge(a, b op.ID) {
	if a == b || a == op.None || b == op.None {
		return
	}
	g.grow(max(a, b))
	nb := g.node(b)
	for _, p := range nb.preds {
		if p == a {
			// A causal rule asserting an edge previously added as weak
			// promotes it: the ordering is not schedule-induced after all.
			delete(g.weak, weakKey(a, b))
			return
		}
	}
	nb.preds = append(nb.preds, a)
	na := g.node(a)
	na.succs = append(na.succs, b)
	g.invalidate(b)
	g.edges++
	if g.Mirror != nil {
		g.Mirror.Edge(a, b)
	}
}

// WeakEdge records a ⇝ b like Edge but marks the edge as schedule-induced:
// the observed execution ordered a before b, yet a feasible execution of
// the same page could order them the other way. The full happens-before
// relation (HappensBefore, Concurrent, every oracle built by NewClocks or
// mirrored into LiveClocks) is exactly as if Edge had been called — weak
// edges only disappear in the predictive order of NewPredictiveClocks. An
// edge already present as strong stays strong.
func (g *Graph) WeakEdge(a, b op.ID) {
	if a == b || a == op.None || b == op.None {
		return
	}
	g.grow(max(a, b))
	nb := g.node(b)
	for _, p := range nb.preds {
		if p == a {
			return
		}
	}
	nb.preds = append(nb.preds, a)
	na := g.node(a)
	na.succs = append(na.succs, b)
	g.invalidate(b)
	g.edges++
	if g.weak == nil {
		g.weak = map[uint64]struct{}{}
	}
	g.weak[weakKey(a, b)] = struct{}{}
	if g.Mirror != nil {
		g.Mirror.Edge(a, b)
	}
}

func weakKey(a, b op.ID) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// IsWeak reports whether the direct edge a ⇝ b exists and is weak
// (schedule-induced). False for strong edges and for absent edges.
func (g *Graph) IsWeak(a, b op.ID) bool {
	_, ok := g.weak[weakKey(a, b)]
	return ok
}

// WeakEdges reports the number of weak (schedule-induced) edges.
func (g *Graph) WeakEdges() int { return len(g.weak) }

// StrongPreds returns the direct predecessors of id reachable via strong
// (causal) edges only — the adjacency of the predictive partial order. When
// id has no weak in-edges the graph's own slice is returned (do not
// mutate); otherwise a filtered copy.
func (g *Graph) StrongPreds(id op.ID) []op.ID {
	ps := g.Preds(id)
	if len(g.weak) == 0 {
		return ps
	}
	hasWeak := false
	for _, p := range ps {
		if g.IsWeak(p, id) {
			hasWeak = true
			break
		}
	}
	if !hasWeak {
		return ps
	}
	out := make([]op.ID, 0, len(ps)-1)
	for _, p := range ps {
		if !g.IsWeak(p, id) {
			out = append(out, p)
		}
	}
	return out
}

// invalidate clears cached closures of id and all descendants. Closures are
// computed ancestors-first, so a node whose closure is nil has only
// nil-closure descendants; the walk prunes there.
func (g *Graph) invalidate(id op.ID) {
	nd := g.node(id)
	if nd.closure == nil {
		return
	}
	nd.closure = nil
	for _, s := range nd.succs {
		g.invalidate(s)
	}
}

// Len reports the number of nodes the graph has room for.
func (g *Graph) Len() int { return g.n }

// Edges reports the number of distinct edges added.
func (g *Graph) Edges() int { return g.edges }

// MemoryBytes estimates the memory held by memoized ancestor closures —
// the quantity the vector-clock representation trades away (it grows with
// the square of the operation count; clocks grow with ops × chains).
func (g *Graph) MemoryBytes() int {
	total := 0
	for i := 1; i <= g.n; i++ {
		total += len(g.node(op.ID(i)).closure) * 8
	}
	return total
}

// Preds returns the direct predecessors of id (shared slice; do not mutate).
func (g *Graph) Preds(id op.ID) []op.ID {
	if id == op.None || int(id) > g.n {
		return nil
	}
	return g.node(id).preds
}

// Succs returns the direct successors of id (shared slice; do not mutate).
func (g *Graph) Succs(id op.ID) []op.ID {
	if id == op.None || int(id) > g.n {
		return nil
	}
	return g.node(id).succs
}

// HappensBefore reports whether a ⇝ b in the transitive closure. An
// operation does not happen before itself.
func (g *Graph) HappensBefore(a, b op.ID) bool {
	if a == b || a == op.None || b == op.None {
		return false
	}
	if int(a) > g.n || int(b) > g.n {
		return false
	}
	return g.ancestors(b).has(uint(a - 1))
}

// Concurrent reports whether two operations can happen concurrently
// (CHC in §5.1): both are real operations and neither happens before the
// other. Concurrent(a, a) is false.
func (g *Graph) Concurrent(a, b op.ID) bool {
	if a == op.None || b == op.None || a == b {
		return false
	}
	return !g.HappensBefore(a, b) && !g.HappensBefore(b, a)
}

// ancestors returns (computing and memoizing if needed) the ancestor bitset
// of id. The recursion is converted to an explicit stack: pages can produce
// long parse chains that would overflow the goroutine stack.
func (g *Graph) ancestors(id op.ID) bitset {
	if c := g.node(id).closure; c != nil {
		return c
	}
	words := (g.n + 63) / 64
	// Iterative post-order over the not-yet-memoized ancestors.
	type frame struct {
		nd   *node
		next int // next predecessor index to visit
	}
	stack := []frame{{nd: g.node(id)}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ps := f.nd.preds
		advanced := false
		for f.next < len(ps) {
			p := g.node(ps[f.next])
			f.next++
			if p.closure == nil {
				stack = append(stack, frame{nd: p})
				advanced = true
				break
			}
		}
		if advanced {
			continue
		}
		// All predecessors memoized: build this node's closure.
		c := make(bitset, words)
		for _, p := range ps {
			c.set(uint(p - 1))
			c.or(g.node(p).closure)
		}
		f.nd.closure = c
		stack = stack[:len(stack)-1]
	}
	return g.node(id).closure
}

// bitset is a fixed-capacity bit vector.
type bitset []uint64

func (b bitset) set(i uint) { b[i/64] |= 1 << (i % 64) }

func (b bitset) has(i uint) bool {
	w := i / 64
	if int(w) >= len(b) {
		return false
	}
	return b[w]&(1<<(i%64)) != 0
}

// or folds other into b. other may be shorter than b (it was built when the
// graph was smaller); never longer, since ancestor IDs precede the node.
func (b bitset) or(other bitset) {
	if len(other) > len(b) {
		panic(fmt.Sprintf("hb: closure wider than graph (%d > %d words)", len(other), len(b)))
	}
	for i, w := range other {
		b[i] |= w
	}
}
