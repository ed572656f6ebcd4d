package hb

import (
	"fmt"

	"webracer/internal/op"
)

// LiveClocks is an incremental vector-clock happens-before engine usable as
// the browser's oracle *during* detection — the production form of the
// "more efficient vector-clock representation" the paper plans (§5.2.1).
// Where Graph memoizes O(n/64)-word ancestor bitsets per operation,
// LiveClocks stores at most one O(chains)-entry clock per operation: memory
// scales with the execution's logical width instead of its length.
//
// The engine is epoch-optimized in the FastTrack style. Every operation is
// assigned an *epoch* — a (chain, position) pair over the greedy chain
// decomposition of the DAG — lazily at its first query. Epoch assignment
// touches only the operation's direct predecessors and allocates nothing.
// Full clock vectors are materialized only when a query actually crosses
// chains (a location shared between tasks); same-chain queries, the common
// case for a location accessed by one task, are answered from epochs alone
// in O(1). Materialized clocks are carved out of a shared int32 slab, and
// both chain ids and operation ids are dense small ints used directly as
// array indices, so clock joins perform no per-operation map work and no
// per-operation GC allocation.
//
// Operations and edges arrive incrementally. The browser's registration
// discipline (all in-edges of an operation are recorded before the
// operation begins executing, and only executing operations perform memory
// accesses) guarantees predecessors are final by first query. Edges into an
// already-finalized operation invalidate it and its finalized descendants,
// mirroring Graph's behaviour, so the two engines are interchangeable
// (package tests check equivalence on random DAGs). Every invalidation
// bumps Gen, telling epoch-caching clients their cached coordinates are
// stale.
type LiveClocks struct {
	preds [][]op.ID
	succs [][]op.ID
	chain []int32   // chain of ID(i+1); -1 until the epoch is finalized
	pos   []int32   // position within the chain (valid when chain >= 0)
	clock [][]int32 // nil until materialized by a cross-chain query
	tails []op.ID   // chain tails

	gen        uint32  // bumped on every invalidation of finalized state
	arena      []int32 // slab backing materialized clocks
	mats       int     // number of clocks joined, not shared (laziness metric)
	allocWords int     // int32 words handed out by alloc
	fstack     []frame // reusable traversal stack (no per-query allocation)

	logging bool       // record mutations (LogMutations)
	log     []Mutation // every AddNode/Edge call since LogMutations
}

// Mutation is one structural call a LiveClocks received: the edge
// From ⇝ To, or AddNode(To) when From is op.None.
type Mutation struct {
	From, To op.ID
}

// frame is one entry of the iterative ancestors-first traversals.
type frame struct {
	id   op.ID
	next int
}

// NewLiveClocks returns an empty incremental engine.
func NewLiveClocks() *LiveClocks { return &LiveClocks{} }

var (
	_ Oracle      = (*LiveClocks)(nil)
	_ EpochOracle = (*LiveClocks)(nil)
)

// AddNode makes room for id.
func (c *LiveClocks) AddNode(id op.ID) {
	if c.logging {
		c.log = append(c.log, Mutation{To: id})
	}
	c.grow(id)
}

// LogMutations makes c record every later AddNode and Edge call (Log).
// Queries are not recorded: they change only lazily computed state, which
// a replay recomputes from its own queries. Off by default, so an engine
// nobody replays pays one flag test per call.
func (c *LiveClocks) LogMutations() { c.logging = true }

// Log returns the mutations recorded since LogMutations, in arrival order.
// Its length is a position in c's structural history: the engine after
// Apply(Log()[:n]) on a fresh LiveClocks holds the nodes and edges c held
// when its log had length n.
func (c *LiveClocks) Log() []Mutation { return c.log }

// Apply feeds logged mutations to c in order, each as the AddNode or Edge
// call it records. Interleaving Apply with the queries c's source engine
// saw at the same log positions reproduces that engine's state exactly:
// chains, generations, materialized clocks and arena use.
func (c *LiveClocks) Apply(log []Mutation) {
	for _, m := range log {
		if m.From == op.None {
			c.AddNode(m.To)
		} else {
			c.Edge(m.From, m.To)
		}
	}
}

func (c *LiveClocks) grow(id op.ID) {
	n := int(id)
	if len(c.preds) >= n {
		return
	}
	c.preds = append(c.preds, make([][]op.ID, n-len(c.preds))...)
	c.succs = append(c.succs, make([][]op.ID, n-len(c.succs))...)
	c.pos = append(c.pos, make([]int32, n-len(c.pos))...)
	c.clock = append(c.clock, make([][]int32, n-len(c.clock))...)
	for len(c.chain) < n {
		c.chain = append(c.chain, -1)
	}
}

// Edge records a ⇝ b.
func (c *LiveClocks) Edge(a, b op.ID) {
	if a == b || a == op.None || b == op.None {
		return
	}
	if c.logging {
		c.log = append(c.log, Mutation{From: a, To: b})
	}
	c.grow(max(a, b))
	for _, p := range c.preds[b-1] {
		if p == a {
			return
		}
	}
	c.preds[b-1] = append(c.preds[b-1], a)
	c.succs[a-1] = append(c.succs[a-1], b)
	c.invalidate(b)
}

// invalidate clears finalized state of id and finalized descendants, and
// bumps the generation so cached epochs are dropped. Chain assignments are
// rolled back conservatively by truncating nothing: a re-finalized node
// simply starts a fresh chain, which costs clock width but preserves
// correctness. (An epoch-finalized node has only epoch-finalized ancestors,
// so the walk can prune at the first unfinalized node.)
func (c *LiveClocks) invalidate(id op.ID) {
	if c.chain[id-1] < 0 {
		return
	}
	c.chain[id-1] = -1
	c.clock[id-1] = nil
	c.gen++
	for _, s := range c.succs[id-1] {
		c.invalidate(s)
	}
}

// finalizeEpoch assigns id's chain and position (iteratively, ancestors
// first). It performs no clock joins and no allocation beyond chain
// bookkeeping — this is the O(1)-amortized fast path of the epoch
// representation.
func (c *LiveClocks) finalizeEpoch(id op.ID) {
	if c.chain[id-1] >= 0 {
		return
	}
	stack := append(c.fstack[:0], frame{id: id})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ps := c.preds[f.id-1]
		descended := false
		for f.next < len(ps) {
			p := ps[f.next]
			f.next++
			if p >= f.id {
				panic(fmt.Sprintf("hb: live edge %d→%d violates topological ID order", p, f.id))
			}
			if c.chain[p-1] < 0 {
				stack = append(stack, frame{id: p})
				descended = true
				break
			}
		}
		if descended {
			continue
		}
		c.assignEpoch(f.id)
		stack = stack[:len(stack)-1]
	}
	c.fstack = stack
}

// assignEpoch computes chain membership for id; all predecessors hold
// finalized epochs. An operation extends the chain of a predecessor that is
// still that chain's tail, else it starts a new chain.
func (c *LiveClocks) assignEpoch(id op.ID) {
	i := id - 1
	ci := int32(-1)
	for _, p := range c.preds[i] {
		pc := c.chain[p-1]
		if pc >= 0 && c.tails[pc] == p {
			ci = pc
			break
		}
	}
	if ci < 0 {
		ci = int32(len(c.tails))
		c.tails = append(c.tails, op.None)
	}
	c.chain[i] = ci
	if c.tails[ci] == op.None {
		c.pos[i] = 0
	} else {
		c.pos[i] = c.pos[c.tails[ci]-1] + 1
	}
	c.tails[ci] = id
}

// materialize builds (iteratively, ancestors first) the full clock vector of
// id: the join of its predecessors' clocks plus its own epoch. Only queries
// that cross chains reach this path, so clocks exist only for operations
// involved with genuinely shared locations.
func (c *LiveClocks) materialize(id op.ID) []int32 {
	if clk := c.clock[id-1]; clk != nil {
		return clk
	}
	c.finalizeEpoch(id)
	stack := append(c.fstack[:0], frame{id: id})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ps := c.preds[f.id-1]
		descended := false
		for f.next < len(ps) {
			p := ps[f.next]
			f.next++
			if c.clock[p-1] == nil {
				stack = append(stack, frame{id: p})
				descended = true
				break
			}
		}
		if descended {
			continue
		}
		c.assignClock(f.id)
		stack = stack[:len(stack)-1]
	}
	c.fstack = stack
	return c.clock[id-1]
}

// assignClock produces id's stored vector. Stored vectors are allowed to
// understate the entry of id's *own* chain — pos[id] supplies it — which
// unlocks structural sharing: an operation with a single predecessor on
// its own chain reuses the predecessor's vector outright (no copy, no
// join). Chains dominate browser happens-before graphs, so only join
// nodes and chain starts ever allocate. Consumers compensate:
//
//   - queries never read a vector at the owner's own chain (the same-chain
//     case is answered from epochs first), and for every other chain the
//     shared vector is exact;
//   - joins max in pos(p) at chain(p) for each predecessor p, restoring
//     the understated entry.
func (c *LiveClocks) assignClock(id op.ID) {
	i := id - 1
	ps := c.preds[i]
	if len(ps) == 1 && c.chain[ps[0]-1] == c.chain[i] {
		// Chain extension: share the predecessor's vector.
		c.clock[i] = c.clock[ps[0]-1]
		return
	}
	clk := c.alloc(len(c.tails))
	rest := ps
	if len(ps) > 0 {
		// Seed from the first predecessor's vector (one memmove instead
		// of a fill pass plus an extra max pass), pad the newer chains.
		n := copy(clk, c.clock[ps[0]-1])
		for j := n; j < len(clk); j++ {
			clk[j] = -1
		}
		if pc := c.chain[ps[0]-1]; clk[pc] < c.pos[ps[0]-1] {
			clk[pc] = c.pos[ps[0]-1]
		}
		rest = ps[1:]
	} else {
		for j := range clk {
			clk[j] = -1
		}
	}
	for _, p := range rest {
		for j, v := range c.clock[p-1] {
			if v > clk[j] {
				clk[j] = v
			}
		}
		// The predecessor's own chain entry may be understated in its
		// stored vector; its epoch is authoritative.
		if pc := c.chain[p-1]; clk[pc] < c.pos[p-1] {
			clk[pc] = c.pos[p-1]
		}
	}
	clk[c.chain[i]] = c.pos[i]
	c.clock[i] = clk
	c.mats++
}

// alloc carves an int32 vector out of the slab, growing it chunk-wise so
// clock joins do not hit the allocator per operation.
func (c *LiveClocks) alloc(n int) []int32 {
	if len(c.arena) < n {
		chunk := 1 << 16
		if n > chunk {
			chunk = n
		}
		c.arena = make([]int32, chunk)
	}
	clk := c.arena[:n:n]
	c.arena = c.arena[n:]
	c.allocWords += n
	return clk
}

// HappensBefore reports a ⇝ b. Same-chain pairs are answered from epochs
// alone; only cross-chain pairs materialize b's clock.
func (c *LiveClocks) HappensBefore(a, b op.ID) bool {
	if a == b || a == op.None || b == op.None ||
		int(a) > len(c.preds) || int(b) > len(c.preds) {
		return false
	}
	c.finalizeEpoch(a)
	c.finalizeEpoch(b)
	ca, cb := c.chain[a-1], c.chain[b-1]
	if ca == cb {
		return c.pos[a-1] < c.pos[b-1]
	}
	clk := c.materialize(b)
	return int(ca) < len(clk) && clk[ca] >= c.pos[a-1]
}

// Concurrent reports CHC(a, b).
func (c *LiveClocks) Concurrent(a, b op.ID) bool {
	if a == op.None || b == op.None || a == b {
		return false
	}
	return !c.HappensBefore(a, b) && !c.HappensBefore(b, a)
}

// Epoch implements EpochOracle: id's (chain, position) coordinate,
// finalizing lazily. Unknown ids get the invalid epoch.
func (c *LiveClocks) Epoch(id op.ID) Epoch {
	if id == op.None || int(id) > len(c.preds) {
		return Epoch{Chain: -1}
	}
	c.finalizeEpoch(id)
	return Epoch{Chain: c.chain[id-1], Pos: c.pos[id-1]}
}

// OrderedEpoch implements EpochOracle: the operation at e happens before
// (or is) b. Same-chain comparisons are O(1); cross-chain comparisons
// materialize b's clock.
func (c *LiveClocks) OrderedEpoch(e Epoch, b op.ID) bool {
	if e.Chain < 0 || b == op.None || int(b) > len(c.preds) {
		return false
	}
	c.finalizeEpoch(b)
	if c.chain[b-1] == e.Chain {
		return e.Pos <= c.pos[b-1]
	}
	clk := c.materialize(b)
	return int(e.Chain) < len(clk) && clk[e.Chain] >= e.Pos
}

// Gen implements EpochOracle.
func (c *LiveClocks) Gen() uint32 { return c.gen }

// Chains reports the current chain count (clock width).
func (c *LiveClocks) Chains() int { return len(c.tails) }

// MaterializedClocks reports how many operations had a full clock vector
// built — the quantity lazy materialization minimizes. Same-chain-only
// workloads keep it at zero.
func (c *LiveClocks) MaterializedClocks() int { return c.mats }

// MemoryBytes estimates the memory held by materialized clocks (shared
// vectors counted once).
func (c *LiveClocks) MemoryBytes() int { return c.allocWords * 4 }
