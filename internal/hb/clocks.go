package hb

import (
	"fmt"

	"webracer/internal/op"
)

// Oracle answers can-happen-concurrently queries. Graph, Clocks and
// LiveClocks implement it; race detectors are written against the interface
// so the representations can be swapped (experiment E4).
type Oracle interface {
	// Concurrent reports CHC(a, b) per §5.1: a and b are distinct real
	// operations and neither happens before the other.
	Concurrent(a, b op.ID) bool
	// HappensBefore reports a ⇝ b in the transitive closure.
	HappensBefore(a, b op.ID) bool
}

var (
	_ Oracle = (*Graph)(nil)
	_ Oracle = (*Clocks)(nil)
)

// Epoch is an operation's coordinate in the chain decomposition: the pair
// chain@position, the FastTrack-style compressed form of "everything this
// operation's own task has done so far". A Chain of -1 is the invalid
// epoch (unknown operation); epoch-based fast paths must fall back to the
// plain oracle for it.
//
// Two facts make epochs powerful: operations on the same chain are totally
// ordered by Pos (a chain is a path in the DAG), and e ⇝ b for a
// cross-chain b is a single clock lookup. Detectors exploit both to answer
// the common same-task/already-ordered access in O(1) without a vector in
// sight.
type Epoch struct {
	Chain int32
	Pos   int32
}

func (e Epoch) String() string { return fmt.Sprintf("%d@%d", e.Chain, e.Pos) }

// EpochOracle is an Oracle that additionally exposes the epoch
// representation. Both vector-clock engines implement it; Graph does not,
// so detectors feature-test with a type assertion and keep their plain
// path for graph oracles.
type EpochOracle interface {
	Oracle
	// Epoch returns id's chain@position coordinate, finalizing it lazily.
	Epoch(id op.ID) Epoch
	// OrderedEpoch reports that the operation at e happens before (or is)
	// b. With e = Epoch(a), OrderedEpoch(e, b) ≡ HappensBefore(a, b) ∨ a = b.
	OrderedEpoch(e Epoch, b op.ID) bool
	// Gen is bumped whenever finalized coordinates may have been
	// reassigned (late-edge invalidation). Epochs cached across calls are
	// only valid while Gen is unchanged; ordering conclusions themselves
	// stay valid forever (happens-before only grows).
	Gen() uint32
}

var (
	_ EpochOracle = (*Clocks)(nil)
	_ EpochOracle = (*LiveClocks)(nil)
)

// Clocks is the vector-clock view of a *finished* happens-before graph —
// the "more efficient vector-clock representation" the paper plans as
// future work (§5.2.1), in its epoch-optimized form. Construction is O(n)
// bookkeeping: chain assignment and clock materialization are inherited
// lazily from the LiveClocks engine, so a replay that only ever compares
// same-chain operations never allocates a single clock vector.
//
// Clocks stays a type of its own, read-only, rather than a LiveClocks:
// the snapshot shares the graph's adjacency lists, so exposing
// LiveClocks' Edge or AddNode on it would write into the graph.
type Clocks struct {
	lc LiveClocks
}

// NewClocks builds the epoch-optimized vector-clock representation of g.
// Operation IDs must form a DAG in which every edge a→b satisfies the
// registration invariant used throughout this codebase (predecessors were
// registered before their successors began), which makes increasing-ID
// order a topological order. NewClocks verifies that assumption eagerly and
// panics otherwise; the property tests construct adversarial DAGs through
// the same front door. The snapshot shares g's adjacency lists (it never
// adds edges of its own); only their headers are gathered into one
// contiguous table per direction.
func NewClocks(g *Graph) *Clocks {
	preds := make([][]op.ID, g.n)
	succs := make([][]op.ID, g.n)
	for i := range preds {
		nd := g.node(op.ID(i + 1))
		preds[i], succs[i] = nd.preds, nd.succs
	}
	return snapshot(g, preds, succs)
}

// snapshot checks g's topological-ID invariant and wraps finished
// adjacency lists over g's operations (g's own, or a subset of its edges)
// as a Clocks whose epochs and clocks are all still to be computed.
func snapshot(g *Graph, preds, succs [][]op.ID) *Clocks {
	for i := range g.n {
		for _, p := range g.node(op.ID(i + 1)).preds {
			if int(p) > i {
				panic(fmt.Sprintf("hb: edge %d→%d violates topological ID order", p, i+1))
			}
		}
	}
	n := len(preds)
	c := &Clocks{}
	c.lc.preds = preds
	c.lc.succs = succs
	c.lc.pos = make([]int32, n)
	c.lc.clock = make([][]int32, n)
	c.lc.chain = make([]int32, n)
	for i := range c.lc.chain {
		c.lc.chain[i] = -1
	}
	return c
}

// Chains reports how many chains the decomposition produces — a measure of
// the execution's logical concurrency width. It finalizes every epoch (in
// ID order, the same greedy order the eager construction used) but
// materializes no clocks.
func (c *Clocks) Chains() int {
	for i := 1; i <= len(c.lc.preds); i++ {
		c.lc.finalizeEpoch(op.ID(i))
	}
	return len(c.lc.tails)
}

// HappensBefore reports a ⇝ b.
func (c *Clocks) HappensBefore(a, b op.ID) bool { return c.lc.HappensBefore(a, b) }

// Concurrent reports CHC(a, b).
func (c *Clocks) Concurrent(a, b op.ID) bool { return c.lc.Concurrent(a, b) }

// Epoch implements EpochOracle.
func (c *Clocks) Epoch(id op.ID) Epoch { return c.lc.Epoch(id) }

// OrderedEpoch implements EpochOracle.
func (c *Clocks) OrderedEpoch(e Epoch, b op.ID) bool { return c.lc.OrderedEpoch(e, b) }

// Gen implements EpochOracle. A snapshot never invalidates, so cached
// epochs stay valid for its whole lifetime.
func (c *Clocks) Gen() uint32 { return c.lc.Gen() }

// MaterializedClocks reports how many full clock vectors queries have
// forced so far (zero for purely same-chain workloads).
func (c *Clocks) MaterializedClocks() int { return c.lc.MaterializedClocks() }

// MemoryBytes estimates the memory held by materialized clocks.
func (c *Clocks) MemoryBytes() int { return c.lc.MemoryBytes() }
