package hb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"webracer/internal/op"
)

func TestEmptyGraph(t *testing.T) {
	g := NewGraph()
	if g.HappensBefore(1, 2) {
		t.Error("empty graph claims ordering")
	}
	if g.Concurrent(op.None, 1) {
		t.Error("⊥ must not be concurrent with anything (CHC definition)")
	}
}

func TestDirectEdge(t *testing.T) {
	g := NewGraph()
	g.Edge(1, 2)
	if !g.HappensBefore(1, 2) {
		t.Error("1 ⇝ 2 missing")
	}
	if g.HappensBefore(2, 1) {
		t.Error("2 ⇝ 1 must not hold")
	}
	if g.Concurrent(1, 2) {
		t.Error("ordered ops reported concurrent")
	}
}

func TestTransitivity(t *testing.T) {
	g := NewGraph()
	g.Edge(1, 2)
	g.Edge(2, 3)
	g.Edge(3, 4)
	if !g.HappensBefore(1, 4) {
		t.Error("transitive closure missing 1 ⇝ 4")
	}
	if !g.HappensBefore(2, 4) || !g.HappensBefore(1, 3) {
		t.Error("intermediate transitive pairs missing")
	}
}

func TestDiamond(t *testing.T) {
	// 1 → {2,3} → 4; 2 and 3 concurrent.
	g := NewGraph()
	g.Edge(1, 2)
	g.Edge(1, 3)
	g.Edge(2, 4)
	g.Edge(3, 4)
	if !g.Concurrent(2, 3) {
		t.Error("diamond branches must be concurrent")
	}
	if !g.HappensBefore(1, 4) {
		t.Error("1 ⇝ 4 via either branch")
	}
}

func TestIrreflexive(t *testing.T) {
	g := NewGraph()
	g.Edge(1, 2)
	g.Edge(1, 1) // ignored
	if g.HappensBefore(1, 1) {
		t.Error("op ordered before itself")
	}
	if g.Concurrent(1, 1) {
		t.Error("CHC(a, a) must be false")
	}
}

func TestDuplicateEdges(t *testing.T) {
	g := NewGraph()
	g.Edge(1, 2)
	g.Edge(1, 2)
	g.Edge(1, 2)
	if g.Edges() != 1 {
		t.Errorf("duplicate edges counted: %d", g.Edges())
	}
}

func TestNoneNeverOrdered(t *testing.T) {
	g := NewGraph()
	g.Edge(1, 2)
	if g.HappensBefore(op.None, 1) || g.HappensBefore(1, op.None) {
		t.Error("⊥ participates in ordering")
	}
}

// TestInterleavedQueriesAndEdges checks that memoized closures survive
// edge insertion after queries (the invalidation path).
func TestInterleavedQueriesAndEdges(t *testing.T) {
	g := NewGraph()
	g.Edge(1, 2)
	if !g.HappensBefore(1, 2) { // memoizes closure(2)
		t.Fatal("1 ⇝ 2")
	}
	g.Edge(2, 3)
	if !g.HappensBefore(1, 3) { // closure(3) builds on closure(2)
		t.Fatal("1 ⇝ 3")
	}
	// New edge into 2 must invalidate 2 and 3.
	g.Edge(4, 2)
	if !g.HappensBefore(4, 3) {
		t.Error("stale closure: 4 ⇝ 3 missing after late edge")
	}
	if !g.HappensBefore(4, 2) {
		t.Error("4 ⇝ 2 missing")
	}
}

// TestLongChainNoStackOverflow checks the iterative closure computation on
// a chain long enough to blow a recursive implementation's stack. (The
// closure representation is O(n²/64) bits, so the chain is kept moderate.)
func TestLongChainNoStackOverflow(t *testing.T) {
	g := NewGraph()
	const n = 20_000
	for i := op.ID(1); i < n; i++ {
		g.Edge(i, i+1)
	}
	if !g.HappensBefore(1, n) {
		t.Error("long chain closure wrong")
	}
}

// randomDAG builds a random DAG with edges respecting ID order (the
// registration invariant the browser maintains).
func randomDAG(r *rand.Rand, n int, density float64) *Graph {
	g := NewGraph()
	g.AddNode(op.ID(n))
	for b := 2; b <= n; b++ {
		for a := 1; a < b; a++ {
			if r.Float64() < density {
				g.Edge(op.ID(a), op.ID(b))
			}
		}
	}
	return g
}

// reachSlow is an independent reachability oracle (BFS).
func reachSlow(g *Graph, a, b op.ID) bool {
	if a == b {
		return false
	}
	seen := map[op.ID]bool{}
	queue := []op.ID{a}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, s := range g.Succs(x) {
			if s == b {
				return true
			}
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	return false
}

// TestGraphMatchesBFS is a property test: the memoized bitset closure
// answers exactly like naive BFS on random DAGs.
func TestGraphMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(30)
		g := randomDAG(r, n, 0.15)
		for a := op.ID(1); int(a) <= n; a++ {
			for b := op.ID(1); int(b) <= n; b++ {
				if g.HappensBefore(a, b) != reachSlow(g, a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestClocksEquivalence is the key property: the vector-clock
// representation answers exactly the same relation as the graph, on random
// DAGs of varying density.
func TestClocksEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(40)
		g := randomDAG(r, n, 0.1+r.Float64()*0.3)
		c := NewClocks(g)
		for a := op.ID(1); int(a) <= n; a++ {
			for b := op.ID(1); int(b) <= n; b++ {
				if g.HappensBefore(a, b) != c.HappensBefore(a, b) {
					return false
				}
				if g.Concurrent(a, b) != c.Concurrent(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestLiveClocksEquivalence: the online vector-clock engine answers the
// same relation as the graph when fed the same node/edge stream, including
// under interleaved queries (which trigger finalization) and late edges
// (which trigger invalidation).
func TestLiveClocksEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(30)
		g := NewGraph()
		live := NewLiveClocks()
		g.Mirror = live
		g.AddNode(op.ID(n))
		for b := 2; b <= n; b++ {
			for a := 1; a < b; a++ {
				if r.Float64() < 0.15 {
					g.Edge(op.ID(a), op.ID(b))
				}
			}
			// Interleave queries to force early finalization.
			if r.Intn(3) == 0 {
				x := op.ID(r.Intn(b) + 1)
				y := op.ID(r.Intn(b) + 1)
				if g.HappensBefore(x, y) != live.HappensBefore(x, y) {
					return false
				}
			}
		}
		for a := op.ID(1); int(a) <= n; a++ {
			for b := op.ID(1); int(b) <= n; b++ {
				if g.HappensBefore(a, b) != live.HappensBefore(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestLiveClocksLateEdgeInvalidation: an edge arriving after a node has
// been finalized by a query must correct subsequent answers (the edge still
// respects registration order: lower ID → higher ID).
func TestLiveClocksLateEdgeInvalidation(t *testing.T) {
	c := NewLiveClocks()
	c.Edge(1, 4)
	c.Edge(4, 5)
	c.AddNode(5)
	if !c.HappensBefore(1, 5) { // finalizes 4 and 5
		t.Fatal("1 ⇝ 5 missing")
	}
	if c.HappensBefore(3, 5) {
		t.Fatal("3 ⇝ 5 invented")
	}
	c.Edge(3, 4) // late edge into finalized 4
	if !c.HappensBefore(3, 4) {
		t.Error("3 ⇝ 4 missing after late edge")
	}
	if !c.HappensBefore(3, 5) {
		t.Error("stale clocks: 3 ⇝ 5 missing after invalidation")
	}
	if c.HappensBefore(5, 3) || c.HappensBefore(4, 3) {
		t.Error("reverse ordering invented")
	}
}

// TestLiveClocksRejectsBackwardEdge: edges violating registration order
// are a programming error and panic loudly.
func TestLiveClocksRejectsBackwardEdge(t *testing.T) {
	c := NewLiveClocks()
	c.Edge(4, 2)
	defer func() {
		if recover() == nil {
			t.Error("backward edge did not panic at finalization")
		}
	}()
	c.HappensBefore(4, 2)
}

// TestTransitivityProperty: a ⇝ b ∧ b ⇝ c ⇒ a ⇝ c on random DAGs.
func TestTransitivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(25)
		g := randomDAG(r, n, 0.2)
		for a := op.ID(1); int(a) <= n; a++ {
			for b := op.ID(1); int(b) <= n; b++ {
				if !g.HappensBefore(a, b) {
					continue
				}
				for c := op.ID(1); int(c) <= n; c++ {
					if g.HappensBefore(b, c) && !g.HappensBefore(a, c) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAntisymmetry: a ⇝ b ⇒ ¬(b ⇝ a) (the DAG construction forbids
// cycles by ID ordering).
func TestAntisymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(25)
		g := randomDAG(r, n, 0.25)
		for a := op.ID(1); int(a) <= n; a++ {
			for b := op.ID(1); int(b) <= n; b++ {
				if g.HappensBefore(a, b) && g.HappensBefore(b, a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestClocksChains(t *testing.T) {
	// A pure chain decomposes into one chain; a fan into many.
	g := NewGraph()
	for i := op.ID(1); i < 10; i++ {
		g.Edge(i, i+1)
	}
	c := NewClocks(g)
	if got := c.Chains(); got != 1 {
		t.Errorf("chain graph decomposed into %d chains, want 1", got)
	}
	g2 := NewGraph()
	for i := op.ID(2); i <= 8; i++ {
		g2.Edge(1, i)
	}
	c2 := NewClocks(g2)
	if got := c2.Chains(); got != 7 {
		t.Errorf("fan decomposed into %d chains, want 7", got)
	}
}

// TestEpochOrderingProperty pins the EpochOracle contract on random DAGs:
// OrderedEpoch(Epoch(a), b) ≡ HappensBefore(a, b) ∨ a = b, for both the
// snapshot and the incremental engine.
func TestEpochOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(30)
		g := randomDAG(r, n, 0.1+r.Float64()*0.3)
		for _, eo := range []EpochOracle{NewClocks(g), liveFrom(g, n)} {
			for a := op.ID(1); int(a) <= n; a++ {
				ea := eo.Epoch(a)
				if ea.Chain < 0 {
					return false // every known op gets a valid epoch
				}
				for b := op.ID(1); int(b) <= n; b++ {
					want := g.HappensBefore(a, b) || a == b
					if eo.OrderedEpoch(ea, b) != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// liveFrom replays g's structure into a fresh incremental engine.
func liveFrom(g *Graph, n int) *LiveClocks {
	live := NewLiveClocks()
	live.AddNode(op.ID(n))
	for b := 1; b <= n; b++ {
		for _, a := range g.Preds(op.ID(b)) {
			live.Edge(a, op.ID(b))
		}
	}
	return live
}

func TestEpochInvalidForUnknownOps(t *testing.T) {
	g := NewGraph()
	g.Edge(1, 2)
	c := NewClocks(g)
	if e := c.Epoch(op.None); e.Chain >= 0 {
		t.Errorf("⊥ got valid epoch %v", e)
	}
	if e := c.Epoch(99); e.Chain >= 0 {
		t.Errorf("out-of-range op got valid epoch %v", e)
	}
	if c.OrderedEpoch(Epoch{Chain: -1}, 2) {
		t.Error("invalid epoch claims ordering")
	}
}

// TestClocksLaziness: same-chain queries must never materialize a clock
// vector; the first cross-chain query does.
func TestClocksLaziness(t *testing.T) {
	g := NewGraph()
	for i := op.ID(1); i < 50; i++ {
		g.Edge(i, i+1) // one long chain
	}
	g.AddNode(52) // 51, 52 isolated: their own chains
	g.Edge(51, 52)
	c := NewClocks(g)
	for a := op.ID(1); a < 50; a++ {
		if !c.HappensBefore(a, a+1) || c.Concurrent(a, a+1) {
			t.Fatalf("chain ordering wrong at %d", a)
		}
	}
	if got := c.MaterializedClocks(); got != 0 {
		t.Errorf("same-chain queries materialized %d clocks, want 0", got)
	}
	if !c.Concurrent(3, 51) { // crosses chains
		t.Error("isolated chain not concurrent with main chain")
	}
	if got := c.MaterializedClocks(); got == 0 {
		t.Error("cross-chain query materialized no clocks")
	}
}

// TestLiveClocksGenBumpsOnInvalidation: cached epochs are guarded by Gen;
// a late edge into finalized state must change it.
func TestLiveClocksGenBumpsOnInvalidation(t *testing.T) {
	c := NewLiveClocks()
	c.Edge(1, 4)
	c.Edge(4, 5)
	g0 := c.Gen()
	if c.Epoch(5).Chain < 0 { // finalizes 4, 5
		t.Fatal("epoch of 5 invalid")
	}
	if c.Gen() != g0 {
		t.Fatal("finalization alone must not bump Gen")
	}
	c.Edge(3, 4) // invalidates 4 and 5
	if c.Gen() == g0 {
		t.Error("late edge into finalized op did not bump Gen")
	}
	if !c.HappensBefore(3, 5) {
		t.Error("3 ⇝ 5 missing after invalidation")
	}
}

func TestClocksTopologicalViolation(t *testing.T) {
	g := NewGraph()
	g.Edge(5, 2) // violates registration order
	defer func() {
		if recover() == nil {
			t.Error("NewClocks accepted an edge violating topological ID order")
		}
	}()
	NewClocks(g)
}

func BenchmarkGraphQuery(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	g := randomDAG(r, 2000, 0.005)
	// Warm the closures.
	for i := op.ID(1); i <= 2000; i += 17 {
		g.HappensBefore(1, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := op.ID(r.Intn(2000) + 1)
		c := op.ID(r.Intn(2000) + 1)
		g.Concurrent(a, c)
	}
}

func BenchmarkClocksQuery(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	g := randomDAG(r, 2000, 0.005)
	c := NewClocks(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := op.ID(r.Intn(2000) + 1)
		d := op.ID(r.Intn(2000) + 1)
		c.Concurrent(a, d)
	}
}

// TestLiveClocksLogReplay: a logged engine's mutations, applied to a fresh
// engine with the same queries at the same log positions, reproduce it
// exactly — generations, chains, materialized clocks, arena use and every
// answer — including late edges into already-finalized operations, which
// bump Gen and force re-finalization.
func TestLiveClocksLogReplay(t *testing.T) {
	type query struct {
		at   int // log length when the query ran
		a, b op.ID
	}
	bumped := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(40)
		src := NewLiveClocks()
		src.LogMutations()
		var queries []query
		var answers [][3]bool
		ask := func(c *LiveClocks, q query) [3]bool {
			return [3]bool{c.HappensBefore(q.a, q.b), c.OrderedEpoch(c.Epoch(q.a), q.b), c.Concurrent(q.a, q.b)}
		}
		for b := 1; b <= n; b++ {
			src.AddNode(op.ID(b))
			for a := 1; a < b; a++ {
				if r.Float64() < 0.12 {
					src.Edge(op.ID(a), op.ID(b))
				}
			}
			// Late edge into an operation that earlier queries may have
			// finalized.
			if b > 3 && r.Intn(4) == 0 {
				x := 1 + r.Intn(b-2)
				src.Edge(op.ID(x), op.ID(x+1+r.Intn(b-x-1)))
			}
			for k := r.Intn(3); k > 0; k-- {
				q := query{at: len(src.Log()), a: op.ID(1 + r.Intn(b)), b: op.ID(1 + r.Intn(b))}
				queries = append(queries, q)
				answers = append(answers, ask(src, q))
			}
		}
		if src.Gen() > 0 {
			bumped++
		}
		dst := NewLiveClocks()
		log, applied := src.Log(), 0
		for i, q := range queries {
			dst.Apply(log[applied:q.at])
			applied = q.at
			if ask(dst, q) != answers[i] {
				return false
			}
		}
		dst.Apply(log[applied:])
		if dst.Gen() != src.Gen() || dst.Chains() != src.Chains() ||
			dst.MaterializedClocks() != src.MaterializedClocks() || dst.MemoryBytes() != src.MemoryBytes() {
			return false
		}
		for a := op.ID(1); int(a) <= n; a++ {
			for b := op.ID(1); int(b) <= n; b++ {
				if src.HappensBefore(a, b) != dst.HappensBefore(a, b) {
					return false
				}
			}
		}
		return len(dst.Log()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if bumped < 50 {
		t.Errorf("only %d of 200 engines saw a late-edge invalidation", bumped)
	}
}
