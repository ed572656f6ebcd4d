package race

import (
	"math"

	"webracer/internal/hb"
	"webracer/internal/mem"
)

// Sampled is the fast detection tier: the Pairwise core behind a
// location-admission predicate, so the pairwise algorithm of §5.1 runs on
// a deterministically sampled subset of locations only.
//
// It is Pairwise itself — one shadow word, one OnAccess, the same checks
// and ordering certificates — with the predicate switched on. A rejected
// location keeps a word too, flagged so repeat accesses exit after the
// table lookup. After a location has been seen, an access touches only
// its shadow word and (for genuinely cross-chain priors) the epoch oracle
// — the steady state performs zero heap allocations, which the tier's
// tests assert with testing.AllocsPerRun.
//
// Sampling is per *location*, not per access, and is a pure function of
// (sampling seed, location identity): an FNV-1a hash of the location maps
// to [0, 2⁶⁴) and the location is sampled iff the hash falls under
// rate·2⁶⁴. Three consequences the tiering design leans on:
//
//   - Determinism: the same (site, seed, rate) samples the same
//     locations in every run, on any worker count — results stay
//     byte-reproducible and cacheable.
//   - Monotonicity: raising the rate only adds locations, never swaps
//     them, so recall grows monotonically with budget.
//   - Exactness at rate 1: every location is admitted and the detector
//     is Pairwise, so the hits equal the exact detector's reports.
//
// Below rate 1 the hits are always a subset of the exact detector's
// reports (the differential battery asserts this at every rate). A hit
// does not try to be the final answer: the session layer escalates any
// run with hits to the exact detector, replaying the run's recorded
// accesses and happens-before mutations (Recorder.ReplayLive; see
// webracer.DetectorSampled).
type Sampled struct {
	Pairwise
	rate float64
}

// admission is the location-admission predicate in front of the Pairwise
// core, with the counters only the sampled view (Sampled.Stats) reads. The
// zero value is off: the exact detector admits every location, and each
// access pays one flag test.
type admission struct {
	on        bool   // a Sampled view: gate locations and count accesses
	sample    bool   // admit only locations whose locHash is under threshold
	threshold uint64 // rate·2⁶⁴
	seed      int64

	rejected         int
	checked, skipped int64
	// plainSame and plainQueries count the plain path's same-operation
	// dismissals and oracle queries (the graph path and the epoch path's
	// unknown-operation fallback). PairwiseStats counts neither; the
	// sampled view reports them as EpochHits and VectorChecks.
	plainSame, plainQueries int64
}

// skip decides a first-seen location's fate, counts the access, and
// reports whether the location was rejected.
func (a *admission) skip(s *pairWord, added bool, l mem.Loc) bool {
	if added && a.sample && locHash(a.seed, l) >= a.threshold {
		s.flags = pwSkip
		a.rejected++
	}
	if s.flags&pwSkip != 0 {
		a.skipped++
		return true
	}
	a.checked++
	return false
}

// SampledStats counts the sampled tier's work: the skip/check split that
// the rate buys, and how the checks resolved.
type SampledStats struct {
	// Locations is the number of distinct logical locations seen;
	// SampledLocations of them were admitted to shadow memory.
	Locations        int
	SampledLocations int
	// Checked counts accesses at sampled locations (full pairwise
	// checks); Skipped counts accesses the sampler rejected in O(1).
	Checked int64
	Skipped int64
	// EpochHits were dismissed without a vector comparison (same
	// operation, same chain or an ordering certificate); VectorChecks
	// fell through to OrderedEpoch or to the plain oracle.
	EpochHits    int64
	VectorChecks int64
	// Hits is the number of race reports the tier recorded — any
	// non-zero value escalates the run to the exact detector.
	Hits int
}

// NewSampled returns the sampled fast tier querying the given oracle.
// rate is the location sampling probability, clamped to [0, 1]; seed
// makes the sampled subset deterministic. Like Pairwise, the epoch fast
// path engages when the oracle implements hb.EpochOracle, and the
// plain-oracle path answers identically without it.
func NewSampled(o hb.Oracle, rate float64, seed int64, opts ...Option) *Sampled {
	if rate < 0 || math.IsNaN(rate) {
		rate = 0
	}
	d := &Sampled{rate: min(rate, 1)}
	d.init(o, buildOptions(opts))
	d.admit = admission{on: true, sample: rate < 1, seed: seed}
	if rate < 1 {
		// rate·2⁶⁴, computed in two halves so rates near 1 don't lose the
		// top bit to float64 conversion. Monotone in rate by construction.
		d.admit.threshold = uint64(rate*(1<<32)) << 32
	}
	return d
}

// Rate returns the effective (clamped) sampling rate.
func (d *Sampled) Rate() float64 { return d.rate }

// Stats returns the tier's counters. Certificate hits count as
// EpochHits, so VectorChecks never exceeds what a certificate-free
// detector would report; their sum is the number of checks.
func (d *Sampled) Stats() SampledStats {
	a := &d.admit
	return SampledStats{
		Locations:        d.shadow.len(),
		SampledLocations: d.States(),
		Checked:          a.checked,
		Skipped:          a.skipped,
		EpochHits:        int64(d.stats.EpochHits) + a.plainSame,
		VectorChecks:     int64(d.stats.VectorChecks) + a.plainQueries,
		Hits:             len(d.reports),
	}
}

// locHash is the sampling decision function: FNV-1a over the seed and
// every field of the location identity. Pure, allocation-free, stable
// across runs and Go versions (no map iteration, no runtime hash).
func locHash(seed int64, l mem.Loc) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(seed))
	h ^= uint64(l.Kind)
	h *= prime64
	mix(l.Obj)
	for i := 0; i < len(l.Name); i++ {
		h ^= uint64(l.Name[i])
		h *= prime64
	}
	mix(l.Extra)
	return h
}
