package race

import (
	"fmt"
	"math/rand"
	"testing"

	"webracer/internal/hb"
	"webracer/internal/mem"
	"webracer/internal/op"
)

// forkGraph builds a two-branch DAG: op 1 forks into 2..n/2 (chain A) and
// n/2+1..n (chain B), so cross-branch accesses are concurrent and
// same-branch accesses are ordered.
func forkGraph(n int) *hb.Graph {
	g := hb.NewGraph()
	g.AddNode(op.ID(n))
	half := n / 2
	for i := 2; i <= half; i++ {
		g.Edge(op.ID(i-1), op.ID(i))
	}
	g.Edge(1, op.ID(half+1))
	for i := half + 2; i <= n; i++ {
		g.Edge(op.ID(i-1), op.ID(i))
	}
	return g
}

// randomTrace generates a deterministic access stream over nLocs
// locations and the ops of a forkGraph(n).
func randomTrace(rng *rand.Rand, n, nLocs, accesses int) []Access {
	trace := make([]Access, 0, accesses)
	for i := 0; i < accesses; i++ {
		l := mem.VarLoc(uint64(rng.Intn(nLocs)), fmt.Sprintf("v%d", rng.Intn(nLocs)))
		o := op.ID(1 + rng.Intn(n))
		if rng.Intn(2) == 0 {
			trace = append(trace, rd(l, o))
		} else {
			trace = append(trace, wr(l, o))
		}
	}
	return trace
}

// TestSampledFullRateEqualsPairwise is the tier's exactness anchor: at
// rate 1 the sampled detector's reports must equal the pairwise
// detector's, report for report, on random traces over random DAGs —
// on both the epoch path and the plain-oracle path.
func TestSampledFullRateEqualsPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 8 + rng.Intn(24)
		g := forkGraph(n)
		trace := randomTrace(rng, n, 6, 120)

		pw := NewPairwise(hb.NewClocks(g))
		sm := NewSampled(hb.NewClocks(g), 1.0, int64(trial))
		plain := NewSampled(g, 1.0, int64(trial)) // Graph: no EpochOracle
		for _, a := range trace {
			pw.OnAccess(a)
			sm.OnAccess(a)
			plain.OnAccess(a)
		}
		want := pw.Reports()
		for name, got := range map[string][]Report{"epoch": sm.Reports(), "plain": plain.Reports()} {
			if len(got) != len(want) {
				t.Fatalf("trial %d (%s): %d reports, pairwise has %d", trial, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d (%s): report %d differs\ngot:  %+v\nwant: %+v", trial, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSampledSubsetOfPairwise: at every rate, the tier's hits are a
// subset of the exact pairwise reports (same location, same pair), and
// hit counts grow monotonically with the rate.
func TestSampledSubsetOfPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := forkGraph(24)
	trace := randomTrace(rng, 24, 12, 400)

	pw := NewPairwise(hb.NewClocks(g))
	Replay(trace, pw)
	exact := map[string]bool{}
	for _, r := range pw.Reports() {
		exact[fmt.Sprintf("%s|%d|%d", r.Loc, r.Prior.Op, r.Current.Op)] = true
	}

	prevSampled := -1
	for _, rate := range []float64{0, 0.1, 0.25, 0.5, 0.75, 1.0} {
		d := NewSampled(hb.NewClocks(g), rate, 42)
		Replay(trace, d)
		for _, r := range d.Reports() {
			key := fmt.Sprintf("%s|%d|%d", r.Loc, r.Prior.Op, r.Current.Op)
			if !exact[key] {
				t.Fatalf("rate %g: hit %s not among the exact detector's reports", rate, key)
			}
		}
		st := d.Stats()
		if st.SampledLocations < prevSampled {
			t.Fatalf("rate %g sampled %d locations, fewer than the lower rate's %d (sampling must be monotone)",
				rate, st.SampledLocations, prevSampled)
		}
		prevSampled = st.SampledLocations
		if rate == 0 && (st.SampledLocations != 0 || len(d.Reports()) != 0) {
			t.Fatalf("rate 0 sampled %d locations, %d hits; want none", st.SampledLocations, len(d.Reports()))
		}
		if rate == 1.0 && st.SampledLocations != st.Locations {
			t.Fatalf("rate 1 sampled %d of %d locations", st.SampledLocations, st.Locations)
		}
	}
}

// TestSampledDeterministicSubset: the sampled location set is a pure
// function of (seed, rate) — two detectors over the same trace agree
// exactly, and a different seed is allowed to pick a different subset.
func TestSampledDeterministicSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := forkGraph(16)
	trace := randomTrace(rng, 16, 20, 300)
	a := NewSampled(hb.NewClocks(g), 0.5, 9)
	b := NewSampled(hb.NewClocks(g), 0.5, 9)
	Replay(trace, a)
	Replay(trace, b)
	if a.Stats() != b.Stats() {
		t.Fatalf("same (seed, rate) diverged:\n%+v\n%+v", a.Stats(), b.Stats())
	}
	if len(a.Reports()) != len(b.Reports()) {
		t.Fatalf("same (seed, rate): %d vs %d hits", len(a.Reports()), len(b.Reports()))
	}
}

// TestSampledZeroAllocSteadyState is the tier's engineering contract:
// once every location has been admitted and the oracle's clocks are warm,
// feeding accesses performs zero heap allocations.
func TestSampledZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := forkGraph(32)
	trace := randomTrace(rng, 32, 10, 200)
	d := NewSampled(hb.NewClocks(g), 1.0, 1)
	Replay(trace, d) // warm-up: admits locations, materializes clocks
	allocs := testing.AllocsPerRun(50, func() {
		for _, a := range trace {
			d.OnAccess(a)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state replay allocated %.1f times per run, want 0", allocs)
	}
}

// TestSampledStatsSplit sanity-checks the checked/skipped accounting at a
// mid rate: every access lands in exactly one bucket.
func TestSampledStatsSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := forkGraph(16)
	trace := randomTrace(rng, 16, 40, 500)
	d := NewSampled(hb.NewClocks(g), 0.4, 17)
	Replay(trace, d)
	st := d.Stats()
	if st.Checked+st.Skipped != int64(len(trace)) {
		t.Fatalf("checked %d + skipped %d != %d accesses", st.Checked, st.Skipped, len(trace))
	}
	if st.SampledLocations+int(0) > st.Locations {
		t.Fatalf("sampled %d > seen %d", st.SampledLocations, st.Locations)
	}
}

// TestSampledReportAll mirrors Pairwise's ReportAll option: with the cap
// off, rate-1 sampled hits equal pairwise reports in report-all mode too.
func TestSampledReportAll(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := forkGraph(20)
	trace := randomTrace(rng, 20, 5, 200)
	pw := NewPairwise(hb.NewClocks(g), ReportAll())
	sm := NewSampled(hb.NewClocks(g), 1.0, 1, ReportAll())
	Replay(trace, pw)
	Replay(trace, sm)
	if len(pw.Reports()) != len(sm.Reports()) {
		t.Fatalf("report-all: sampled %d, pairwise %d", len(sm.Reports()), len(pw.Reports()))
	}
	for i := range pw.Reports() {
		if pw.Reports()[i] != sm.Reports()[i] {
			t.Fatalf("report-all: report %d differs", i)
		}
	}
}
