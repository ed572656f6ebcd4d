package race

import (
	"math"

	"webracer/internal/hb"
	"webracer/internal/mem"
	"webracer/internal/op"
)

// Sampled is the fast detection tier: the pairwise algorithm of §5.1 run
// over flat shadow words, on a deterministically sampled subset of
// locations.
//
// Sampled keeps its words in the same shadow table as Pairwise (one
// lookup per access, no per-location allocation), but its word is
// flatter: no certificates, and the last writer and last reader
// coordinates packed into single uint64 epoch words (hb.PackEpoch). A
// rejected location keeps a word too, flagged so repeat accesses exit
// after the lookup. After a location has been seen, an access touches
// only its shadow word and (for genuinely cross-chain priors) the epoch
// oracle — the steady state performs zero heap allocations, which the
// tier's tests assert with testing.AllocsPerRun.
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
//   - Exactness at rate 1: every location is sampled and the check logic
//     is Pairwise's own (minus its performance-only certificate cache),
//     so the hits equal the exact pairwise detector's reports.
//
// On a sampled location the detector runs the same checks as Pairwise —
// same-operation and same-chain dismissal in O(1), OrderedEpoch both ways
// otherwise, identical report and WriterReadFirst semantics — so its hits
// are always a subset of the exact detector's reports (the differential
// battery asserts this at every rate). A hit does not try to be the final
// answer: the session layer escalates any run with hits to an exact
// second-pass re-run (see webracer.DetectorSampled).
type Sampled struct {
	oracle hb.Oracle
	epochs hb.EpochOracle // non-nil when the packed fast path is active

	rate      float64
	threshold uint64 // sampled iff locHash < threshold; ^0 at rate 1
	sampleAll bool   // rate >= 1: skip hashing entirely
	seed      int64

	shadow locTable[shadowWord]

	reports   []Report
	reportAll bool
	stats     SampledStats
}

// shadowWord is the constant per-location state of the sampled tier: the
// pairwise algorithm's last write and last read, with their chain@pos
// coordinates packed into single words (0 = not fetched yet, refetched
// lazily like Pairwise's epochUnfetched). gen guards the packed words
// against late-edge chain reassignment.
type shadowWord struct {
	write   rec
	read    rec
	writeEp uint64
	readEp  uint64
	gen     uint32
	flags   uint8
}

// shadowWord.flags bits.
const (
	swHasWrite uint8 = 1 << iota
	swHasRead
	swReported
	swSkip // the sampler rejected the location
)

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
	// EpochHits were dismissed from packed words alone (same operation
	// or same chain); VectorChecks fell through to OrderedEpoch.
	EpochHits    int64
	VectorChecks int64
	// Hits is the number of race reports the tier recorded — any
	// non-zero value escalates the run to the exact detector.
	Hits int
}

// NewSampled returns the sampled fast tier querying the given oracle.
// rate is the location sampling probability, clamped to [0, 1]; seed
// makes the sampled subset deterministic. Like Pairwise, the packed-epoch
// fast path engages when the oracle implements hb.EpochOracle, and the
// plain-oracle fallback answers identically without it.
func NewSampled(o hb.Oracle, rate float64, seed int64, opts ...Option) *Sampled {
	cfg := buildOptions(opts)
	if rate < 0 || math.IsNaN(rate) {
		rate = 0
	}
	d := &Sampled{
		oracle:    o,
		rate:      rate,
		seed:      seed,
		reportAll: cfg.reportAll,
	}
	d.shadow.init(cfg.locHint)
	if rate >= 1 {
		d.rate, d.sampleAll, d.threshold = 1, true, ^uint64(0)
	} else {
		// rate·2⁶⁴, computed in two halves so rates near 1 don't lose the
		// top bit to float64 conversion. Monotone in rate by construction.
		d.threshold = uint64(rate*(1<<32)) << 32
	}
	if eo, ok := o.(hb.EpochOracle); ok && !cfg.noEpochs {
		d.epochs = eo
	}
	return d
}

// Rate returns the effective (clamped) sampling rate.
func (d *Sampled) Rate() float64 { return d.rate }

// Stats returns the tier's counters.
func (d *Sampled) Stats() SampledStats { return d.stats }

// States reports how many locations hold shadow state (the sampled
// subset; rejected locations hold only a skip mark).
func (d *Sampled) States() int { return d.stats.SampledLocations }

// admit decides a first-seen location's fate: hash it against the
// threshold and mark its fresh word rejected or sampled.
func (d *Sampled) admit(s *shadowWord, l mem.Loc) {
	d.stats.Locations++
	if !d.sampleAll && locHash(d.seed, l) >= d.threshold {
		s.flags = swSkip
		return
	}
	d.stats.SampledLocations++
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

// OnAccess implements Detector. Rejected locations exit after one table
// lookup; sampled locations run the pairwise check against their shadow
// word.
func (d *Sampled) OnAccess(a Access) {
	s, added := d.shadow.lookup(a.Loc, hashLoc(a.Loc))
	if added {
		d.admit(s, a.Loc)
	}
	if s.flags&swSkip != 0 {
		d.stats.Skipped++
		return
	}
	d.stats.Checked++
	if s.flags&swReported != 0 && !d.reportAll {
		// Mirror Pairwise's spent-location exit: state still updates so
		// WriterReadFirst stays right if reportAll ever reads it, but no
		// oracle call can change the output. Packed words go stale and
		// are never read again for this location.
		if a.Kind == mem.Read {
			s.read = recOf(a)
			s.flags |= swHasRead
		} else {
			s.write = recOf(a)
			s.flags |= swHasWrite
		}
		return
	}
	ce := epochUnfetched
	switch a.Kind {
	case mem.Read:
		if s.flags&swHasWrite != 0 && d.concurrentPacked(s, s.write.op, &s.writeEp, a.Op, &ce) {
			d.hit(s, s.write, a, false)
		}
		s.read = recOf(a)
		s.readEp = hb.PackEpoch(ce)
		s.flags |= swHasRead
	case mem.Write:
		readFirst := s.flags&swHasRead != 0 && s.read.op == a.Op
		if s.flags&swHasWrite != 0 && d.concurrentPacked(s, s.write.op, &s.writeEp, a.Op, &ce) {
			d.hit(s, s.write, a, readFirst)
		}
		if s.flags&swHasRead != 0 && s.read.op != a.Op && d.concurrentPacked(s, s.read.op, &s.readEp, a.Op, &ce) {
			d.hit(s, s.read, a, readFirst)
		}
		s.write = recOf(a)
		s.writeEp = hb.PackEpoch(ce)
		s.flags |= swHasWrite
	}
}

// concurrentPacked decides CHC(prior, cur) exactly like Pairwise's
// concurrentEpoch, over the packed representation: pe points at the
// prior's shadow word half and ce at the per-call current-epoch cache,
// both fetched lazily. No certificates — the shadow word stays flat; the
// cost is extra OrderedEpoch calls on contended locations, which the
// escalation contract tolerates because hits re-run exact anyway.
func (d *Sampled) concurrentPacked(s *shadowWord, prior op.ID, pe *uint64, cur op.ID, ce *hb.Epoch) bool {
	if prior == cur {
		d.stats.EpochHits++
		return false
	}
	if d.epochs == nil {
		d.stats.VectorChecks++
		return d.oracle.Concurrent(prior, cur)
	}
	if gen := d.epochs.Gen(); gen != s.gen {
		// Late edges may have reassigned chains: drop both packed words
		// (they refetch below or on the next conflicting access).
		s.gen = gen
		s.writeEp, s.readEp = 0, 0
	}
	if *pe == 0 {
		p := d.epochs.Epoch(prior)
		if p.Chain < 0 {
			// Unknown operation: mirror the plain oracle bit for bit.
			d.stats.VectorChecks++
			return d.oracle.Concurrent(prior, cur)
		}
		*pe = hb.PackEpoch(p)
	}
	if ce.Chain == epochUnfetched.Chain {
		*ce = d.epochs.Epoch(cur)
	}
	if ce.Chain < 0 {
		d.stats.VectorChecks++
		return d.oracle.Concurrent(prior, cur)
	}
	p := hb.UnpackEpoch(*pe)
	if p.Chain == ce.Chain {
		// Same chain ⇒ totally ordered, whichever direction.
		d.stats.EpochHits++
		return false
	}
	d.stats.VectorChecks++
	if d.epochs.OrderedEpoch(p, cur) {
		return false
	}
	return !d.epochs.OrderedEpoch(*ce, prior)
}

// hit records a race at a sampled location, with Pairwise's
// one-report-per-location default.
func (d *Sampled) hit(s *shadowWord, prior rec, cur Access, writerReadFirst bool) {
	if !d.reportAll {
		if s.flags&swReported != 0 {
			return
		}
		s.flags |= swReported
	}
	d.stats.Hits++
	d.reports = append(d.reports, Report{
		Loc:             cur.Loc,
		Prior:           prior.access(cur.Loc),
		Current:         cur,
		WriterReadFirst: writerReadFirst,
	})
}

// Reports implements Detector: the tier's hits. A non-empty slice means
// the run should escalate to an exact detector; the hits themselves are
// real races (subset of the exact report set), not heuristic flags.
func (d *Sampled) Reports() []Report { return d.reports }
