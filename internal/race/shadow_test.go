package race

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"webracer/internal/hb"
	"webracer/internal/mem"
	"webracer/internal/op"
)

// randomLocs returns n distinct locations drawn from a small space of
// kinds, objects, names and extras, so many share a Name or an Obj.
func randomLocs(rng *rand.Rand, n int) []mem.Loc {
	seen := map[mem.Loc]bool{}
	var locs []mem.Loc
	for len(locs) < n {
		l := mem.Loc{
			Kind:  mem.Kind(rng.Intn(3)),
			Obj:   uint64(rng.Intn(4)),
			Name:  []string{"", "x", "y", "value"}[rng.Intn(4)],
			Extra: uint64(rng.Intn(3)),
		}
		if !seen[l] {
			seen[l] = true
			locs = append(locs, l)
		}
	}
	return locs
}

// randomDAG returns a random happens-before graph over ops 1..n.
func randomDAG(rng *rand.Rand, n int, p float64) *hb.Graph {
	g := hb.NewGraph()
	g.AddNode(op.ID(n))
	for b := 2; b <= n; b++ {
		for a := 1; a < b; a++ {
			if rng.Float64() < p {
				g.Edge(op.ID(a), op.ID(b))
			}
		}
	}
	return g
}

// randomAccess draws an access with a distinct description per index, so
// a report's Prior identifies exactly which access it remembered.
func randomAccess(rng *rand.Rand, locs []mem.Loc, n, i int) Access {
	a := Access{
		Loc:  locs[rng.Intn(len(locs))],
		Op:   op.ID(1 + rng.Intn(n)),
		Ctx:  mem.Context(rng.Intn(4)),
		Desc: fmt.Sprintf("site%d", i),
	}
	if rng.Intn(2) == 0 {
		a.Kind = mem.Write
	}
	return a
}

// TestShadowMatchesMapOracles: on random traces over random DAGs, every
// detector variant issues the same oracle queries and returns the same
// reports, counters and state counts as its map-based predecessor, over
// the graph, Clocks and LiveClocks oracles; every sampled variant's tier
// view also matches the certificate-free reference.
func TestShadowMatchesMapOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(20)
		g := randomDAG(rng, n, 0.2)
		locs := randomLocs(rng, 2+rng.Intn(30))
		trace := make([]Access, 200)
		for i := range trace {
			trace[i] = randomAccess(rng, locs, n, i)
		}
		CheckReplayEquivalence(t, fmt.Sprintf("trial%d", trial), trace, g)
	}
}

// TestShadowMatchesMapOraclesLateEdges: edges arrive between accesses,
// many of them into operations the detectors already queried, so the live
// oracle invalidates cached epochs and bumps its generation. Each
// detector, its map-based oracle and (for sampled variants) the
// certificate-free reference query a LiveClocks of their own, fed the
// same edges at the same points.
func TestShadowMatchesMapOraclesLateEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	bumped := 0
	for trial := 0; trial < 30; trial++ {
		n := 6 + rng.Intn(20)
		locs := randomLocs(rng, 2+rng.Intn(10))
		type step struct {
			edge   [2]op.ID // zero when the step is an access
			access Access
		}
		steps := make([]step, 300)
		for i := range steps {
			if rng.Intn(4) == 0 {
				a := 1 + rng.Intn(n-1)
				steps[i].edge = [2]op.ID{op.ID(a), op.ID(a + 1 + rng.Intn(n-a))}
			} else {
				steps[i].access = randomAccess(rng, locs, n, i)
			}
		}
		for _, v := range variants() {
			lives := [3]*hb.LiveClocks{hb.NewLiveClocks(), hb.NewLiveClocks(), hb.NewLiveClocks()}
			og, lg := logged(lives[0])
			ow, lw := logged(lives[1])
			got, want := v.build(og, ow)
			var ref *mapSampled
			if v.ref != nil {
				ref = v.ref(lives[2])
			}
			for _, live := range lives {
				live.AddNode(op.ID(n))
			}
			for _, s := range steps {
				if s.edge[0] != 0 {
					for _, live := range lives {
						live.Edge(s.edge[0], s.edge[1])
					}
					continue
				}
				got.OnAccess(s.access)
				want.OnAccess(s.access)
				if ref != nil {
					ref.OnAccess(s.access)
				}
			}
			sameRun(t, fmt.Sprintf("trial%d/%s", trial, v.name), got, want, lg.log, lw.log)
			if ref != nil {
				sameView(t, fmt.Sprintf("trial%d/%s", trial, v.name), got, ref)
			}
			if lives[0].Gen() > 0 {
				bumped++
			}
		}
	}
	if bumped == 0 {
		t.Fatal("no run invalidated a finalized epoch; the late-edge path went untested")
	}
}

// TestLocTableMatchesMap is the table's property test against a
// map[mem.Loc]: the same key set, a stable word per key, and words that
// never move — under a hash that collides everywhere, locations that
// share a Name or an Obj, and growth across many chunks.
func TestLocTableMatchesMap(t *testing.T) {
	hashes := []struct {
		name string
		h    func(mem.Loc) uint32
	}{
		{"hashLoc", hashLoc},
		{"fourBuckets", func(l mem.Loc) uint32 { return hashLoc(l) & 3 }},
		{"constant", func(mem.Loc) uint32 { return 7 }},
	}
	rng := rand.New(rand.NewSource(23))
	for _, hf := range hashes {
		for _, hint := range []int{0, 5, 100} {
			var tab locTable[int]
			tab.init(hint)
			ref := map[mem.Loc]int{}
			ptrs := map[mem.Loc]*int{}
			nLocs := 600
			if hf.name == "constant" {
				nLocs = 150 // every probe is linear in the table size
			}
			for i := 0; i < 4*nLocs; i++ {
				l := mem.Loc{
					Kind:  mem.Kind(rng.Intn(3)),
					Obj:   uint64(rng.Intn(nLocs / 10)),
					Name:  fmt.Sprintf("n%d", rng.Intn(10)),
					Extra: uint64(rng.Intn(2)),
				}
				w, added := tab.lookup(l, hf.h(l))
				want, seen := ref[l]
				if added == seen {
					t.Fatalf("%s/hint%d: %v added=%v but seen=%v", hf.name, hint, l, added, seen)
				}
				if seen && (w != ptrs[l] || *w != want) {
					t.Fatalf("%s/hint%d: %v word moved or changed: %d, want %d", hf.name, hint, l, *w, want)
				}
				if !seen {
					if *w != 0 {
						t.Fatalf("%s/hint%d: fresh word for %v is %d, want 0", hf.name, hint, l, *w)
					}
					ptrs[l] = w
				}
				*w = i + 1
				ref[l] = i + 1
			}
			if tab.len() != len(ref) {
				t.Fatalf("%s/hint%d: table holds %d locations, map %d", hf.name, hint, tab.len(), len(ref))
			}
			if hint == 0 && len(tab.chunks) < 4 {
				t.Errorf("%s: %d locations fit in %d chunks; growth across chunks went untested", hf.name, len(ref), len(tab.chunks))
			}
			for l, want := range ref {
				if w, added := tab.lookup(l, hf.h(l)); added || *w != want {
					t.Fatalf("%s/hint%d: final lookup of %v = %d (added %v), want %d", hf.name, hint, l, *w, added, want)
				}
			}
		}
	}
}

// TestShadowWordSize pins the pairwise shadow word at 60 bytes and
// pointer-free: certificate sets and descriptions live out of line, in
// the detector's side tables.
func TestShadowWordSize(t *testing.T) {
	if got := unsafe.Sizeof(pairWord{}); got != 60 {
		t.Errorf("pairWord is %d bytes, want 60", got)
	}
	if got := unsafe.Sizeof(rec{}); got != 12 {
		t.Errorf("rec is %d bytes, want 12", got)
	}
}

// TestDescSlotsStayPerWord: a location whose accesses alternate between
// no description, the location's own name and other descriptions keeps
// at most two description slots (its read's and its write's) however
// long the run, and every detector still rebuilds each remembered access
// byte for byte, against its map-based oracle.
func TestDescSlotsStayPerWord(t *testing.T) {
	const n = 400
	x := mem.Loc{Kind: mem.Var, Obj: 1, Name: "x"}
	descs := []string{"x", "window.x=", "", "x", "x++", "window.x"}
	trace := make([]Access, n)
	for i := range trace {
		trace[i] = Access{Loc: x, Op: op.ID(1 + i), Desc: descs[i%len(descs)]}
		if i%3 != 0 {
			trace[i].Kind = mem.Write
		}
	}
	g := hb.NewGraph() // no edges: every pair of ops is concurrent
	g.AddNode(op.ID(n))
	CheckReplayEquivalence(t, "alternating", trace, g)
	for _, v := range []struct {
		name string
		opts []Option
	}{{"pairwise", nil}, {"pairwise/all", []Option{ReportAll()}}} {
		d := NewPairwise(g, v.opts...)
		Replay(trace, d)
		if d.descs.n > 2 {
			t.Errorf("%s: one location took %d description slots, want at most 2", v.name, d.descs.n)
		}
	}
}
