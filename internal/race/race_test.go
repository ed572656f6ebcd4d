package race

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"webracer/internal/hb"
	"webracer/internal/mem"
	"webracer/internal/op"
)

func chainGraph(edges ...[2]op.ID) *hb.Graph {
	g := hb.NewGraph()
	g.AddNode(16)
	for _, e := range edges {
		g.Edge(e[0], e[1])
	}
	return g
}

func loc(name string) mem.Loc { return mem.VarLoc(1, name) }

func rd(l mem.Loc, o op.ID) Access { return Access{Kind: mem.Read, Loc: l, Op: o} }
func wr(l mem.Loc, o op.ID) Access { return Access{Kind: mem.Write, Loc: l, Op: o} }

func TestWriteWriteRace(t *testing.T) {
	d := NewPairwise(chainGraph())
	d.OnAccess(wr(loc("x"), 1))
	d.OnAccess(wr(loc("x"), 2))
	if len(d.Reports()) != 1 {
		t.Fatalf("got %d reports, want 1", len(d.Reports()))
	}
	r := d.Reports()[0]
	if r.Prior.Op != 1 || r.Current.Op != 2 {
		t.Errorf("wrong racing pair: %v", r)
	}
}

func TestReadWriteRace(t *testing.T) {
	d := NewPairwise(chainGraph())
	d.OnAccess(rd(loc("x"), 1))
	d.OnAccess(wr(loc("x"), 2))
	if len(d.Reports()) != 1 {
		t.Fatalf("got %d reports, want 1", len(d.Reports()))
	}
}

func TestWriteReadRace(t *testing.T) {
	d := NewPairwise(chainGraph())
	d.OnAccess(wr(loc("x"), 1))
	d.OnAccess(rd(loc("x"), 2))
	if len(d.Reports()) != 1 {
		t.Fatalf("got %d reports, want 1", len(d.Reports()))
	}
}

func TestReadReadNoRace(t *testing.T) {
	d := NewPairwise(chainGraph())
	d.OnAccess(rd(loc("x"), 1))
	d.OnAccess(rd(loc("x"), 2))
	if len(d.Reports()) != 0 {
		t.Errorf("read-read reported as race")
	}
}

func TestOrderedNoRace(t *testing.T) {
	d := NewPairwise(chainGraph([2]op.ID{1, 2}))
	d.OnAccess(wr(loc("x"), 1))
	d.OnAccess(wr(loc("x"), 2))
	if len(d.Reports()) != 0 {
		t.Errorf("ordered writes reported as race")
	}
}

func TestSameOpNoRace(t *testing.T) {
	d := NewPairwise(chainGraph())
	d.OnAccess(wr(loc("x"), 1))
	d.OnAccess(wr(loc("x"), 1))
	d.OnAccess(rd(loc("x"), 1))
	if len(d.Reports()) != 0 {
		t.Errorf("same-operation accesses reported as race")
	}
}

func TestDistinctLocationsIndependent(t *testing.T) {
	d := NewPairwise(chainGraph())
	d.OnAccess(wr(loc("x"), 1))
	d.OnAccess(wr(loc("y"), 2))
	if len(d.Reports()) != 0 {
		t.Errorf("accesses to distinct locations raced")
	}
}

func TestOneReportPerLocation(t *testing.T) {
	// Footnote 13: at most one race per location per run.
	d := NewPairwise(chainGraph())
	d.OnAccess(wr(loc("x"), 1))
	d.OnAccess(wr(loc("x"), 2))
	d.OnAccess(wr(loc("x"), 3))
	d.OnAccess(rd(loc("x"), 4))
	if len(d.Reports()) != 1 {
		t.Errorf("got %d reports, want 1 (per-location cap)", len(d.Reports()))
	}
	d2 := NewPairwise(chainGraph(), ReportAll())
	d2.OnAccess(wr(loc("x"), 1))
	d2.OnAccess(wr(loc("x"), 2))
	d2.OnAccess(wr(loc("x"), 3))
	if len(d2.Reports()) != 2 {
		t.Errorf("ReportAll got %d reports, want 2", len(d2.Reports()))
	}
}

func TestWriterReadFirstFlag(t *testing.T) {
	// op2 reads then writes (check-then-write); the race with op1's
	// write carries WriterReadFirst.
	d := NewPairwise(chainGraph(), ReportAll()) // the read already reports; we want the write's report too
	d.OnAccess(wr(loc("v"), 1))
	d.OnAccess(rd(loc("v"), 2))
	d.OnAccess(wr(loc("v"), 2))
	if len(d.Reports()) == 0 {
		t.Fatal("no race reported")
	}
	found := false
	for _, r := range d.Reports() {
		if r.Current.Kind == mem.Write && r.WriterReadFirst {
			found = true
		}
	}
	if !found {
		t.Errorf("WriterReadFirst not set: %v", d.Reports())
	}
}

// TestPaperMiss replays the §5.1 limitation: schedule 3·1·2 with 1 ⇝ 2.
// The pairwise detector misses the 2–3 race.
func TestPaperMiss(t *testing.T) {
	g := chainGraph([2]op.ID{1, 2})
	d := NewPairwise(g)
	d.OnAccess(rd(loc("e"), 3))
	d.OnAccess(rd(loc("e"), 1))
	d.OnAccess(wr(loc("e"), 2))
	if len(d.Reports()) != 0 {
		t.Errorf("pairwise unexpectedly caught the missed race: %v", d.Reports())
	}
	s := NewAccessSet(g)
	s.OnAccess(rd(loc("e"), 3))
	s.OnAccess(rd(loc("e"), 1))
	s.OnAccess(wr(loc("e"), 2))
	if len(s.Reports()) != 1 {
		t.Fatalf("AccessSet got %d reports, want 1", len(s.Reports()))
	}
	r := s.Reports()[0]
	if r.Prior.Op != 3 || r.Current.Op != 2 {
		t.Errorf("AccessSet found wrong pair: %v", r)
	}
}

// TestAccessSetWriteChains: w1 ⇝ w2, w3 after w2 but concurrent with w1.
// Pairwise (remembering only w2) misses w1–w3; AccessSet catches it.
func TestAccessSetWriteChains(t *testing.T) {
	g := chainGraph([2]op.ID{1, 2}, [2]op.ID{3, 2}) // hmm: need w3 ordered after w2? build: 1⇝2, 2⇝... use ops 1,2,4 with 1⇝2, 2⇝4? then 1⇝4 transitively — no.
	_ = g
	// Construct: w(a), w(b) concurrent with a? Simplest concrete case:
	// ops 1,2,3; edges 2⇝3 only. Accesses: w1, w2 (race 1-2), w3:
	// pairwise checks lastWrite=2, ordered, no report; misses 1-3.
	g2 := chainGraph([2]op.ID{2, 3})
	p := NewPairwise(g2, ReportAll())
	s := NewAccessSet(g2)
	for _, a := range []Access{wr(loc("x"), 1), wr(loc("x"), 2), wr(loc("x"), 3)} {
		p.OnAccess(a)
		s.OnAccess(a)
	}
	if len(p.Reports()) != 1 {
		t.Errorf("pairwise got %d, want 1 (only the 1-2 race)", len(p.Reports()))
	}
	if len(s.Reports()) != 2 {
		t.Errorf("AccessSet got %d, want 2 (1-2 and 1-3)", len(s.Reports()))
	}
}

func TestRecorderReplay(t *testing.T) {
	g := chainGraph()
	rec := &Recorder{Inner: NewPairwise(g)}
	rec.OnAccess(wr(loc("x"), 1))
	rec.OnAccess(wr(loc("x"), 2))
	if len(rec.Reports()) != 1 {
		t.Fatalf("recorder inner missed race")
	}
	if len(rec.Trace()) != 2 {
		t.Fatalf("trace length %d, want 2", len(rec.Trace()))
	}
	// Replay against a fresh detector reproduces the report.
	got := Replay(rec.Trace(), NewPairwise(g))
	if len(got) != 1 {
		t.Errorf("replay got %d reports, want 1", len(got))
	}
}

// liveFor mirrors g's structure into the incremental vector-clock engine,
// the oracle that activates Pairwise's epoch fast path.
func liveFor(g *hb.Graph, n int) *hb.LiveClocks {
	live := hb.NewLiveClocks()
	live.AddNode(op.ID(n))
	for b := 1; b <= n; b++ {
		for _, a := range g.Preds(op.ID(b)) {
			live.Edge(a, op.ID(b))
		}
	}
	return live
}

// TestEpochPairwiseMatchesGraph is the unit-level form of the differential
// battery: on random executions, Pairwise over the epoch oracle produces
// reports identical (same order, same fields) to Pairwise over the graph.
func TestEpochPairwiseMatchesGraph(t *testing.T) {
	f := func(seed int64, reportAll bool) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(14)
		g := hb.NewGraph()
		g.AddNode(op.ID(n))
		for b := 2; b <= n; b++ {
			for a := 1; a < b; a++ {
				if r.Float64() < 0.25 {
					g.Edge(op.ID(a), op.ID(b))
				}
			}
		}
		locs := []mem.Loc{loc("a"), loc("b")}
		var trace []Access
		for i := 0; i < 40; i++ {
			a := Access{Loc: locs[r.Intn(len(locs))], Op: op.ID(r.Intn(n) + 1)}
			if r.Intn(2) == 0 {
				a.Kind = mem.Write
			}
			trace = append(trace, a)
		}
		var opts []Option
		if reportAll {
			opts = append(opts, ReportAll())
		}
		want := Replay(trace, NewPairwise(g, opts...))
		epoch := NewPairwise(liveFor(g, n), opts...)
		got := Replay(trace, epoch)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return epoch.Stats().Checks > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSameTaskReadsStayO1: accesses confined to one chain must be resolved
// entirely from epochs — no clock vector materialized, no vector check.
func TestSameTaskReadsStayO1(t *testing.T) {
	g := chainGraph([2]op.ID{1, 2}, [2]op.ID{2, 3}, [2]op.ID{3, 4})
	live := liveFor(g, 4)
	d := NewPairwise(live)
	d.OnAccess(wr(loc("x"), 1))
	for i := 0; i < 10; i++ {
		d.OnAccess(rd(loc("x"), 2))
		d.OnAccess(rd(loc("x"), 3))
	}
	d.OnAccess(wr(loc("x"), 4))
	if len(d.Reports()) != 0 {
		t.Fatalf("chain-ordered accesses raced: %v", d.Reports())
	}
	st := d.Stats()
	if st.VectorChecks != 0 {
		t.Errorf("same-chain workload fell through to %d vector checks", st.VectorChecks)
	}
	if st.EpochHits == 0 {
		t.Error("no epoch hits recorded")
	}
	if live.MaterializedClocks() != 0 {
		t.Errorf("same-chain workload materialized %d clocks, want 0", live.MaterializedClocks())
	}
}

// word is the white-box tests' view of l's shadow word.
func (d *Pairwise) word(l mem.Loc) *pairWord {
	w, _ := d.shadow.lookup(l, hashLoc(l))
	return w
}

// TestWriteAfterReadShareDemotion (white-box): reads from two chains
// promote the write's inline certificate to the read-shared set; the next
// write demotes the location back to the inline form, because certificates
// only describe the write they were minted against.
func TestWriteAfterReadShareDemotion(t *testing.T) {
	// 1⇝2 keeps 2 on 1's chain; 1⇝3 and 1⇝4 start fresh chains. Epochs
	// are finalized lazily in query order, so pin the decomposition by
	// finalizing in ID order up front.
	g := chainGraph([2]op.ID{1, 2}, [2]op.ID{1, 3}, [2]op.ID{1, 4})
	live := liveFor(g, 5)
	for i := op.ID(1); i <= 5; i++ {
		live.Epoch(i)
	}
	d := NewPairwise(live, ReportAll())
	x := loc("x")
	d.OnAccess(wr(x, 1))
	d.OnAccess(rd(x, 3)) // cross-chain, ordered: mints inline cert for chain(3)
	s := d.word(x)
	if s.flags&pwHasCert == 0 {
		t.Fatal("ordered cross-chain read minted no certificate")
	}
	d.OnAccess(rd(x, 4)) // second chain: promotes to the cert set
	if s.flags&pwHasCert != 0 || s.flags&pwShared == 0 {
		t.Fatalf("read-share promotion missing: flags=%b certs=%v", s.flags, d.certSets)
	}
	if n := len(d.certSets[s.certs-1]); n != 2 {
		t.Errorf("cert set has %d chains, want 2", n)
	}
	d.OnAccess(wr(x, 5)) // op 5 is unordered: races, and demotes the certs
	if s.flags&(pwHasCert|pwShared) != 0 || len(d.certSets[s.certs-1]) != 0 {
		t.Errorf("write did not demote certificates: flags=%b certs=%v", s.flags, d.certSets)
	}
	if st := d.Stats(); st.Promotions != 1 || st.Demotions != 1 {
		t.Errorf("promotions %d, demotions %d, want 1 and 1", st.Promotions, st.Demotions)
	}
	if len(d.Reports()) != 2 {
		// 5 races with the last write (1) and the last read (4).
		t.Errorf("got %d reports, want 2: %v", len(d.Reports()), d.Reports())
	}
}

// TestCrossChainForcesVectors: a location genuinely shared between chains
// must fall through to full clock comparison at least once.
func TestCrossChainForcesVectors(t *testing.T) {
	g := chainGraph([2]op.ID{1, 2}, [2]op.ID{1, 3})
	live := liveFor(g, 3)
	d := NewPairwise(live)
	d.OnAccess(wr(loc("x"), 2))
	d.OnAccess(wr(loc("x"), 3)) // cross-chain, concurrent
	if len(d.Reports()) != 1 {
		t.Fatalf("cross-chain race missed: %v", d.Reports())
	}
	if d.Stats().VectorChecks == 0 {
		t.Error("cross-chain check did not reach the vector path")
	}
	if live.MaterializedClocks() == 0 {
		t.Error("cross-chain check materialized no clocks")
	}
}

// TestDetectorSoundnessProperty: on random executions, no detector ever
// reports a pair that the happens-before orders, and every pairwise report
// is also found by AccessSet.
func TestDetectorSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(12)
		g := hb.NewGraph()
		g.AddNode(op.ID(n))
		for b := 2; b <= n; b++ {
			for a := 1; a < b; a++ {
				if r.Float64() < 0.2 {
					g.Edge(op.ID(a), op.ID(b))
				}
			}
		}
		locs := []mem.Loc{loc("a"), loc("b"), loc("c")}
		var trace []Access
		for i := 0; i < 30; i++ {
			a := Access{Loc: locs[r.Intn(len(locs))], Op: op.ID(r.Intn(n) + 1)}
			if r.Intn(2) == 0 {
				a.Kind = mem.Write
			}
			trace = append(trace, a)
		}
		p := NewPairwise(g, ReportAll())
		s := NewAccessSet(g)
		pr := Replay(trace, p)
		sr := Replay(trace, s)
		// Soundness: no report is HB-ordered, all have a write.
		for _, rep := range append(append([]Report{}, pr...), sr...) {
			if !g.Concurrent(rep.Prior.Op, rep.Current.Op) {
				return false
			}
			if rep.Prior.Kind != mem.Write && rep.Current.Kind != mem.Write {
				return false
			}
			if rep.Prior.Op == rep.Current.Op {
				return false
			}
		}
		// Pairwise ⊆ AccessSet (as racing pairs).
		pairs := map[[2]op.ID]map[mem.Loc]bool{}
		for _, rep := range sr {
			k := [2]op.ID{rep.Prior.Op, rep.Current.Op}
			if pairs[k] == nil {
				pairs[k] = map[mem.Loc]bool{}
			}
			pairs[k][rep.Loc] = true
		}
		for _, rep := range pr {
			if !pairs[[2]op.ID{rep.Prior.Op, rep.Current.Op}][rep.Loc] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestRecorderChunkedTrace: the chunked recorder returns every access in
// order across chunk boundaries, keeps recording after a Trace call, and
// hands the inner detector the same stream.
func TestRecorderChunkedTrace(t *testing.T) {
	inner := &Recorder{}
	rec := &Recorder{Inner: inner}
	var want []Access
	for i := 0; i < 3*recorderChunkMax+17; i++ {
		a := wr(loc(fmt.Sprint(i%97)), op.ID(1+i%5))
		rec.OnAccess(a)
		want = append(want, a)
		if i == recorderChunkMin+3 || i == 2*recorderChunkMax {
			if got := rec.Trace(); !reflect.DeepEqual(got, want) {
				t.Fatalf("after %d accesses: Trace() differs from the recorded stream", i+1)
			}
		}
	}
	if got := rec.Trace(); !reflect.DeepEqual(got, want) {
		t.Fatal("final Trace() differs from the recorded stream")
	}
	if got := rec.Trace(); !reflect.DeepEqual(got, want) {
		t.Fatal("repeated Trace() differs")
	}
	if !reflect.DeepEqual(inner.Trace(), want) {
		t.Fatal("inner detector saw a different stream")
	}
}
