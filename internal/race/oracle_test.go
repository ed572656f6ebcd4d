package race

// Test-only oracles: the map-based Pairwise, Sampled and AccessSet as they
// stood before the detectors moved onto the shared shadow table
// (shadow.go), and before Sampled became the Pairwise core behind an
// admission predicate. The equivalence tests replay one access stream
// through a detector and its oracle and require identical oracle queries,
// reports, counters and state counts. A Sampled detector is checked two
// ways: query for query against mapPairwise fed only the accesses its
// sampler admits, and against mapSampled, the certificate-free tier, on
// everything but how certificate hits split its counters.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"webracer/internal/hb"
	"webracer/internal/mem"
	"webracer/internal/op"
)

// mapPairState is mapPairwise's constant per-location state: the paper's
// LastRead/LastWrite pair rewritten as epochs. writeEp/readEp cache the
// chain@pos coordinates of the remembered accesses so the hot path
// compares integers without calling back into the oracle; gen guards the
// cached coordinates against late-edge invalidation. certs caches
// ordering certificates for the current write: an entry (chain → pos)
// means the write happens before the operation that sat at chain@pos —
// and therefore before anything later on that chain. The certificate side
// is adaptive in the FastTrack sense: a location read from one chain
// carries at most a single certificate inline (cert); reads from a second
// chain promote it to the certs map (read-shared); the next write demotes
// the location back to the inline form, since certificates describe only
// the write they were minted against.
type mapPairState struct {
	write    Access
	read     Access
	hasWrite bool
	hasRead  bool
	reported bool

	gen     uint32
	writeEp hb.Epoch
	readEp  hb.Epoch
	cert    hb.Epoch
	hasCert bool
	certs   map[int32]int32
}

// mapPairwise is the detector of §5.1: for each location it remembers only the
// most recent read and the most recent write, and reports a race when the
// current access can happen concurrently with the remembered conflicting
// access. Like WebRacer (footnote 13) it reports at most one race per
// location per run.
type mapPairwise struct {
	oracle    hb.Oracle
	epochs    hb.EpochOracle // non-nil when the epoch fast path is active
	state     map[mem.Loc]*mapPairState
	slab      []mapPairState // block-allocated states: stable pointers, no per-loc box
	block     int            // slab block capacity
	reports   []Report
	reportAll bool
	stats     PairwiseStats
}

// newMapPairwise returns the paper's detector querying the given oracle. The
// epoch fast path engages automatically when the oracle implements
// hb.EpochOracle (both vector-clock engines do; the graph does not).
func newMapPairwise(o hb.Oracle, opts ...Option) *mapPairwise {
	cfg := buildOptions(opts)
	hint := cfg.locHint
	if hint < 256 {
		hint = 256
	}
	d := &mapPairwise{
		oracle:    o,
		state:     make(map[mem.Loc]*mapPairState, hint),
		block:     hint,
		reportAll: cfg.reportAll,
	}
	d.epochs, _ = o.(hb.EpochOracle)
	return d
}

// Stats returns fast-path counters (zero-valued for plain-oracle runs).
func (d *mapPairwise) Stats() PairwiseStats { return d.stats }

// States reports how many distinct logical locations the detector holds
// pairwise state for — the paper's constant-per-location auxiliary space,
// measured.
func (d *mapPairwise) States() int { return len(d.state) }

func (d *mapPairwise) stateFor(l mem.Loc) *mapPairState {
	if s, ok := d.state[l]; ok {
		return s
	}
	if len(d.slab) == cap(d.slab) {
		// Fresh block: existing pointers stay valid, appends never copy.
		d.slab = make([]mapPairState, 0, d.block)
	}
	d.slab = append(d.slab, mapPairState{})
	s := &d.slab[len(d.slab)-1]
	d.state[l] = s
	return s
}

// concurrentEpoch decides CHC(prior.Op, cur) exactly like
// oracle.Concurrent, from epochs. pe points at prior's cached coordinate
// (s.writeEp or s.readEp) and ce at the current operation's per-call
// cache; both are fetched lazily and at most once per OnAccess. s caches
// write-ordering certificates; they are only consulted (and only written)
// when prior is s.write.
func (d *mapPairwise) concurrentEpoch(s *mapPairState, prior Access, pe *hb.Epoch, isWrite bool, cur op.ID, ce *hb.Epoch) bool {
	d.stats.Checks++
	if prior.Op == cur {
		d.stats.EpochHits++
		return false
	}
	if gen := d.epochs.Gen(); gen != s.gen {
		// Late edges invalidated coordinates: drop the cached epochs and
		// the certificates minted under the old decomposition.
		s.gen = gen
		s.hasCert = false
		s.certs = nil
		s.writeEp = epochUnfetched
		s.readEp = epochUnfetched
	}
	if pe.Chain == epochUnfetched.Chain {
		*pe = d.epochs.Epoch(prior.Op)
	}
	if ce.Chain == epochUnfetched.Chain {
		*ce = d.epochs.Epoch(cur)
	}
	if pe.Chain < 0 || ce.Chain < 0 {
		// Unknown operation: mirror the plain oracle bit for bit.
		return d.oracle.Concurrent(prior.Op, cur)
	}
	if pe.Chain == ce.Chain {
		// A chain is a path in the DAG: same-chain operations are
		// totally ordered, whichever direction — never concurrent.
		d.stats.EpochHits++
		return false
	}
	if isWrite {
		// Certificate hit: the write is known ordered before an earlier
		// point of cur's chain, hence before cur.
		if s.hasCert && s.cert.Chain == ce.Chain && s.cert.Pos <= ce.Pos {
			d.stats.EpochHits++
			return false
		}
		if p, ok := s.certs[ce.Chain]; ok && p <= ce.Pos {
			d.stats.EpochHits++
			return false
		}
	}
	d.stats.VectorChecks++
	ordered := d.epochs.OrderedEpoch(*pe, cur)
	if ordered && isWrite {
		d.certify(s, *ce)
	}
	if ordered {
		return false
	}
	return !d.epochs.OrderedEpoch(*ce, prior.Op)
}

// certify records that the current write happens before chain@pos,
// promoting the inline certificate to the read-shared map when a second
// chain shows up.
func (d *mapPairwise) certify(s *mapPairState, e hb.Epoch) {
	if !s.hasCert && s.certs == nil {
		s.cert, s.hasCert = e, true
		return
	}
	if s.hasCert {
		if s.cert.Chain == e.Chain {
			if e.Pos < s.cert.Pos {
				s.cert.Pos = e.Pos
			}
			return
		}
		// Read-share promotion: certificates now span chains.
		s.certs = map[int32]int32{s.cert.Chain: s.cert.Pos}
		s.hasCert = false
		d.stats.Promotions++
	}
	if p, ok := s.certs[e.Chain]; !ok || e.Pos < p {
		s.certs[e.Chain] = e.Pos
	}
}

// demote clears the write-ordering certificates: they were minted against
// the previous write, and the read-shared map collapses back to the inline
// form (write-after-read-share demotion — counted only when a promoted
// map was actually discarded).
func (d *mapPairwise) demote(s *mapPairState) {
	if s.certs != nil {
		d.stats.Demotions++
	}
	s.hasCert = false
	s.certs = nil
}

// OnAccess implements Detector.
func (d *mapPairwise) OnAccess(a Access) {
	s := d.stateFor(a.Loc)
	if s.reported && !d.reportAll {
		// The location's one report is spent; nothing below can change
		// the output, so skip the oracle entirely (an O(1) exit the
		// plain path pays full queries for). Cached epochs go stale but
		// are never read again for this location.
		if a.Kind == mem.Read {
			s.read, s.hasRead = a, true
		} else {
			s.write, s.hasWrite = a, true
			d.demote(s)
		}
		return
	}
	if d.epochs != nil {
		d.onAccessEpoch(s, a)
		return
	}
	switch a.Kind {
	case mem.Read:
		if s.hasWrite && d.concurrentPlain(s.write, a.Op) {
			d.report(s, s.write, a, false)
		}
		s.read, s.hasRead = a, true
	case mem.Write:
		// Check-then-write detection: the most recent read of this
		// location was by the same operation (operations are atomic,
		// so that read directly preceded this write).
		readFirst := s.hasRead && s.read.Op == a.Op
		if s.hasWrite && d.concurrentPlain(s.write, a.Op) {
			d.report(s, s.write, a, readFirst)
		}
		if s.hasRead && s.read.Op != a.Op && d.concurrentPlain(s.read, a.Op) {
			d.report(s, s.read, a, readFirst)
		}
		s.write, s.hasWrite = a, true
	}
}

// concurrentPlain is the pre-epoch check: one oracle call per conflicting
// prior access.
func (d *mapPairwise) concurrentPlain(prior Access, cur op.ID) bool {
	d.stats.Checks++
	if prior.Op == cur {
		return false
	}
	return d.oracle.Concurrent(prior.Op, cur)
}

// onAccessEpoch is OnAccess over the epoch representation: coordinates are
// fetched lazily — an access with no conflicting prior never calls the
// oracle at all — and the common same-chain case resolves with integer
// compares only.
func (d *mapPairwise) onAccessEpoch(s *mapPairState, a Access) {
	ce := epochUnfetched
	switch a.Kind {
	case mem.Read:
		if s.hasWrite && d.concurrentEpoch(s, s.write, &s.writeEp, true, a.Op, &ce) {
			d.report(s, s.write, a, false)
		}
		s.read, s.hasRead, s.readEp = a, true, ce
	case mem.Write:
		// Check-then-write detection: the most recent read of this
		// location was by the same operation (operations are atomic,
		// so that read directly preceded this write).
		readFirst := s.hasRead && s.read.Op == a.Op
		if s.hasWrite && d.concurrentEpoch(s, s.write, &s.writeEp, true, a.Op, &ce) {
			d.report(s, s.write, a, readFirst)
		}
		if s.hasRead && s.read.Op != a.Op && d.concurrentEpoch(s, s.read, &s.readEp, false, a.Op, &ce) {
			d.report(s, s.read, a, readFirst)
		}
		s.write, s.hasWrite, s.writeEp = a, true, ce
		d.demote(s)
	}
}

func (d *mapPairwise) report(s *mapPairState, prior, cur Access, writerReadFirst bool) {
	if !d.reportAll {
		if s.reported {
			return
		}
		s.reported = true
	}
	d.reports = append(d.reports, Report{
		Loc:             cur.Loc,
		Prior:           prior,
		Current:         cur,
		WriterReadFirst: writerReadFirst,
	})
}

// Reports implements Detector.
func (d *mapPairwise) Reports() []Report { return d.reports }

// mapAccessSet keeps every access per location and reports all races of the
// execution. Auxiliary space is O(accesses); the paper's detector trades
// this completeness for constant per-location state.
type mapAccessSet struct {
	oracle  hb.Oracle
	history map[mem.Loc][]Access
	// onePerLoc mirrors WebRacer's at-most-one-race-per-location
	// reporting (the OnePerLoc option).
	onePerLoc bool
	reported  map[mem.Loc]bool
	reports   []Report
}

// newMapAccessSet returns the complete-history detector.
func newMapAccessSet(o hb.Oracle, opts ...Option) *mapAccessSet {
	cfg := buildOptions(opts)
	return &mapAccessSet{
		oracle:    o,
		history:   make(map[mem.Loc][]Access),
		onePerLoc: cfg.onePerLoc,
		reported:  make(map[mem.Loc]bool),
	}
}

// OnAccess implements Detector.
func (d *mapAccessSet) OnAccess(a Access) {
	hist := d.history[a.Loc]
	readFirst := false
	if a.Kind == mem.Write && len(hist) > 0 {
		// Only the immediately preceding access counts: operations are
		// atomic, so a check-then-write leaves its own read last.
		last := hist[len(hist)-1]
		readFirst = last.Kind == mem.Read && last.Op == a.Op
	}
	for _, h := range hist {
		if h.Kind == mem.Read && a.Kind == mem.Read {
			continue
		}
		if h.Op == a.Op {
			continue
		}
		if d.oracle.Concurrent(h.Op, a.Op) {
			if d.onePerLoc {
				if d.reported[a.Loc] {
					break
				}
				d.reported[a.Loc] = true
			}
			d.reports = append(d.reports, Report{Loc: a.Loc, Prior: h, Current: a, WriterReadFirst: readFirst})
			if d.onePerLoc {
				break
			}
		}
	}
	d.history[a.Loc] = append(hist, a)
}

// Reports implements Detector.
func (d *mapAccessSet) Reports() []Report { return d.reports }

// mapSampled is the map-based Sampled: a location index map in front of a
// dense shadow slice.
type mapSampled struct {
	oracle hb.Oracle
	epochs hb.EpochOracle // non-nil when the packed fast path is active

	rate      float64
	threshold uint64 // sampled iff locHash < threshold; ^0 at rate 1
	sampleAll bool   // rate >= 1: skip hashing entirely
	seed      int64

	// index maps each location seen to its dense shadow index, or
	// mapSkipIndex for locations the sampler rejected. Map reads don't
	// allocate; inserts only happen the first time a location appears.
	index  map[mem.Loc]int32
	shadow []mapShadowWord

	reports   []Report
	reportAll bool
	stats     SampledStats
}

// mapSkipIndex marks a location the sampler rejected: remembered so repeat
// accesses cost one map read and no hash.
const mapSkipIndex int32 = -1

// mapShadowWord is the constant per-location state of the sampled tier: the
// pairwise algorithm's last write and last read, with their chain@pos
// coordinates packed into single words (0 = not fetched yet, refetched
// lazily like Pairwise's epochUnfetched). gen guards the packed words
// against late-edge chain reassignment.
type mapShadowWord struct {
	write   Access
	read    Access
	writeEp uint64
	readEp  uint64
	gen     uint32
	flags   uint8
}

// mapShadowWord.flags bits.
const (
	mswHasWrite uint8 = 1 << iota
	mswHasRead
	mswReported
)

// newMapSampled returns the sampled fast tier querying the given oracle.
// rate is the location sampling probability, clamped to [0, 1]; seed
// makes the sampled subset deterministic. Like Pairwise, the packed-epoch
// fast path engages when the oracle implements hb.EpochOracle, and the
// plain-oracle fallback answers identically without it.
func newMapSampled(o hb.Oracle, rate float64, seed int64, opts ...Option) *mapSampled {
	cfg := buildOptions(opts)
	if rate < 0 || math.IsNaN(rate) {
		rate = 0
	}
	hint := cfg.locHint
	if hint < 256 {
		hint = 256
	}
	d := &mapSampled{
		oracle:    o,
		rate:      rate,
		seed:      seed,
		index:     make(map[mem.Loc]int32, hint),
		reportAll: cfg.reportAll,
	}
	if rate >= 1 {
		d.rate, d.sampleAll, d.threshold = 1, true, ^uint64(0)
	} else {
		// rate·2⁶⁴, computed in two halves so rates near 1 don't lose the
		// top bit to float64 conversion. Monotone in rate by construction.
		d.threshold = uint64(rate*(1<<32)) << 32
	}
	d.epochs, _ = o.(hb.EpochOracle)
	return d
}

// Rate returns the effective (clamped) sampling rate.
func (d *mapSampled) Rate() float64 { return d.rate }

// Stats returns the tier's counters.
func (d *mapSampled) Stats() SampledStats { return d.stats }

// States reports how many locations hold shadow state (the sampled
// subset; rejected locations cost one map entry and no shadow word).
func (d *mapSampled) States() int { return len(d.shadow) }

// admits is the sampling predicate: hash the location against the
// threshold.
func (d *mapSampled) admits(l mem.Loc) bool {
	return d.sampleAll || locHash(d.seed, l) < d.threshold
}

// admit decides a first-seen location's fate: assign either a fresh shadow
// index or mapSkipIndex. This is the only place the detector allocates
// after warm-up tails off.
func (d *mapSampled) admit(l mem.Loc) int32 {
	d.stats.Locations++
	if !d.admits(l) {
		d.index[l] = mapSkipIndex
		return mapSkipIndex
	}
	d.stats.SampledLocations++
	idx := int32(len(d.shadow))
	d.shadow = append(d.shadow, mapShadowWord{})
	d.index[l] = idx
	return idx
}

// OnAccess implements Detector. Rejected locations exit after one map
// read; sampled locations run the pairwise check against their shadow
// word.
func (d *mapSampled) OnAccess(a Access) {
	idx, seen := d.index[a.Loc]
	if !seen {
		idx = d.admit(a.Loc)
	}
	if idx == mapSkipIndex {
		d.stats.Skipped++
		return
	}
	d.stats.Checked++
	s := &d.shadow[idx]
	if s.flags&mswReported != 0 && !d.reportAll {
		// Mirror Pairwise's spent-location exit: state still updates so
		// WriterReadFirst stays right if reportAll ever reads it, but no
		// oracle call can change the output. Packed words go stale and
		// are never read again for this location.
		if a.Kind == mem.Read {
			s.read = a
			s.flags |= mswHasRead
		} else {
			s.write = a
			s.flags |= mswHasWrite
		}
		return
	}
	ce := epochUnfetched
	switch a.Kind {
	case mem.Read:
		if s.flags&mswHasWrite != 0 && d.concurrentPacked(s, s.write, &s.writeEp, a.Op, &ce) {
			d.hit(s, s.write, a, false)
		}
		s.read = a
		s.readEp = packEpoch(ce)
		s.flags |= mswHasRead
	case mem.Write:
		readFirst := s.flags&mswHasRead != 0 && s.read.Op == a.Op
		if s.flags&mswHasWrite != 0 && d.concurrentPacked(s, s.write, &s.writeEp, a.Op, &ce) {
			d.hit(s, s.write, a, readFirst)
		}
		if s.flags&mswHasRead != 0 && s.read.Op != a.Op && d.concurrentPacked(s, s.read, &s.readEp, a.Op, &ce) {
			d.hit(s, s.read, a, readFirst)
		}
		s.write = a
		s.writeEp = packEpoch(ce)
		s.flags |= mswHasWrite
	}
}

// concurrentPacked decides CHC(prior.Op, cur) exactly like Pairwise's
// concurrentEpoch, over the packed representation: pe points at the
// prior's shadow word half and ce at the per-call current-epoch cache,
// both fetched lazily. No certificates — the shadow word stays flat; the
// cost is extra OrderedEpoch calls on contended locations, which the
// escalation contract tolerates because hits re-run exact anyway.
func (d *mapSampled) concurrentPacked(s *mapShadowWord, prior Access, pe *uint64, cur op.ID, ce *hb.Epoch) bool {
	if prior.Op == cur {
		d.stats.EpochHits++
		return false
	}
	if d.epochs == nil {
		d.stats.VectorChecks++
		return d.oracle.Concurrent(prior.Op, cur)
	}
	if gen := d.epochs.Gen(); gen != s.gen {
		// Late edges may have reassigned chains: drop both packed words
		// (they refetch below or on the next conflicting access).
		s.gen = gen
		s.writeEp, s.readEp = 0, 0
	}
	if *pe == 0 {
		p := d.epochs.Epoch(prior.Op)
		if p.Chain < 0 {
			// Unknown operation: mirror the plain oracle bit for bit.
			d.stats.VectorChecks++
			return d.oracle.Concurrent(prior.Op, cur)
		}
		*pe = packEpoch(p)
	}
	if ce.Chain == epochUnfetched.Chain {
		*ce = d.epochs.Epoch(cur)
	}
	if ce.Chain < 0 {
		d.stats.VectorChecks++
		return d.oracle.Concurrent(prior.Op, cur)
	}
	p := unpackEpoch(*pe)
	if p.Chain == ce.Chain {
		// Same chain ⇒ totally ordered, whichever direction.
		d.stats.EpochHits++
		return false
	}
	d.stats.VectorChecks++
	if d.epochs.OrderedEpoch(p, cur) {
		return false
	}
	return !d.epochs.OrderedEpoch(*ce, prior.Op)
}

// packEpoch squeezes a coordinate into one word, chain biased by one so 0
// means "not fetched"; unpackEpoch reverses it.
func packEpoch(e hb.Epoch) uint64 {
	if e.Chain < 0 {
		return 0
	}
	return uint64(uint32(e.Chain+1))<<32 | uint64(uint32(e.Pos))
}

func unpackEpoch(w uint64) hb.Epoch { return hb.Epoch{Chain: int32(w>>32) - 1, Pos: int32(uint32(w))} }

// hit records a race at a sampled location, with Pairwise's
// one-report-per-location default.
func (d *mapSampled) hit(s *mapShadowWord, prior, cur Access, writerReadFirst bool) {
	if !d.reportAll {
		if s.flags&mswReported != 0 {
			return
		}
		s.flags |= mswReported
	}
	d.stats.Hits++
	d.reports = append(d.reports, Report{
		Loc:             cur.Loc,
		Prior:           prior,
		Current:         cur,
		WriterReadFirst: writerReadFirst,
	})
}

// Reports implements Detector: the tier's hits. A non-empty slice means
// the run should escalate to an exact detector; the hits themselves are
// real races (subset of the exact report set), not heuristic flags.
func (d *mapSampled) Reports() []Report { return d.reports }

// query is one oracle call with its arguments and answer.
type query struct {
	method byte // 'C'oncurrent, 'H'appensBefore, 'E'poch, 'O'rderedEpoch, 'G'en
	a, b   op.ID
	e      hb.Epoch
	ans    int64
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// queryLog wraps an oracle and records every call made through it.
type queryLog struct {
	o   hb.Oracle
	log []query
}

func (q *queryLog) Concurrent(a, b op.ID) bool {
	ans := q.o.Concurrent(a, b)
	q.log = append(q.log, query{method: 'C', a: a, b: b, ans: b2i(ans)})
	return ans
}

func (q *queryLog) HappensBefore(a, b op.ID) bool {
	ans := q.o.HappensBefore(a, b)
	q.log = append(q.log, query{method: 'H', a: a, b: b, ans: b2i(ans)})
	return ans
}

// epochLog is queryLog over an epoch oracle, so detectors still take
// their epoch fast path through it.
type epochLog struct {
	queryLog
	eo hb.EpochOracle
}

func (q *epochLog) Epoch(id op.ID) hb.Epoch {
	e := q.eo.Epoch(id)
	q.log = append(q.log, query{method: 'E', a: id, e: e})
	return e
}

func (q *epochLog) OrderedEpoch(e hb.Epoch, b op.ID) bool {
	ans := q.eo.OrderedEpoch(e, b)
	q.log = append(q.log, query{method: 'O', b: b, e: e, ans: b2i(ans)})
	return ans
}

func (q *epochLog) Gen() uint32 {
	g := q.eo.Gen()
	q.log = append(q.log, query{method: 'G', ans: int64(g)})
	return g
}

// logged wraps o in a query log that keeps o's epoch capability.
func logged(o hb.Oracle) (hb.Oracle, *queryLog) {
	if eo, ok := o.(hb.EpochOracle); ok {
		l := &epochLog{queryLog: queryLog{o: o}, eo: eo}
		return l, &l.queryLog
	}
	l := &queryLog{o: o}
	return l, l
}

// variant is one detector configuration: build returns the shadow-table
// detector and its map-based oracle over the given oracles. Sampled
// variants also have ref, which builds the certificate-free reference
// their tier view is checked against.
type variant struct {
	name  string
	build func(got, want hb.Oracle) (Detector, Detector)
	ref   func(o hb.Oracle) *mapSampled
}

// admittedOnly is mapPairwise fed only the accesses sampler admits: what
// Sampled's core must match query for query.
type admittedOnly struct {
	*mapPairwise
	sampler *mapSampled
}

// OnAccess implements Detector.
func (d admittedOnly) OnAccess(a Access) {
	if d.sampler.admits(a.Loc) {
		d.mapPairwise.OnAccess(a)
	}
}

// variants lists every detector configuration the equivalence battery
// covers: Pairwise and Sampled (rates 0.1, 0.25 and 1) with and without
// ReportAll, and AccessSet with and without OnePerLoc.
func variants() []variant {
	var vs []variant
	for _, reportAll := range []bool{false, true} {
		var opts []Option
		name := ""
		if reportAll {
			opts, name = append(opts, ReportAll()), "/all"
		}
		vs = append(vs, variant{name: "pairwise" + name, build: func(g, w hb.Oracle) (Detector, Detector) {
			return NewPairwise(g, opts...), newMapPairwise(w, opts...)
		}})
		for _, rate := range []float64{0.1, 0.25, 1} {
			vs = append(vs, variant{
				name: fmt.Sprintf("sampled%g%s", rate, name),
				build: func(g, w hb.Oracle) (Detector, Detector) {
					return NewSampled(g, rate, 5, opts...), admittedOnly{newMapPairwise(w, opts...), newMapSampled(nil, rate, 5)}
				},
				ref: func(o hb.Oracle) *mapSampled { return newMapSampled(o, rate, 5, opts...) },
			})
		}
	}
	vs = append(vs,
		variant{name: "accessset", build: func(g, w hb.Oracle) (Detector, Detector) { return NewAccessSet(g), newMapAccessSet(w) }},
		variant{name: "accessset/oneperloc", build: func(g, w hb.Oracle) (Detector, Detector) {
			return NewAccessSet(g, OnePerLoc()), newMapAccessSet(w, OnePerLoc())
		}},
	)
	return vs
}

// summary is what a detector exposes besides its reports: counters and
// state counts. A Sampled detector is summarized as its Pairwise core.
func summary(d Detector) string {
	switch d := d.(type) {
	case *Pairwise:
		return fmt.Sprintf("%+v states=%d", d.Stats(), d.States())
	case *Sampled:
		return summary(&d.Pairwise)
	case *mapPairwise:
		return fmt.Sprintf("%+v states=%d", d.Stats(), d.States())
	case admittedOnly:
		return summary(d.mapPairwise)
	}
	return ""
}

// sameRun fails t unless the detector and its oracle made the same
// queries with the same answers and returned the same reports and
// summary.
func sameRun(t *testing.T, name string, got, want Detector, gotLog, wantLog []query) {
	t.Helper()
	if i := firstDiff(gotLog, wantLog); i >= 0 {
		t.Fatalf("%s: query %d of %d/%d differs:\ngot:  %+v\nwant: %+v", name, i, len(gotLog), len(wantLog), at(gotLog, i), at(wantLog, i))
	}
	gr, wr := got.Reports(), want.Reports()
	if i := firstDiff(gr, wr); i >= 0 {
		t.Fatalf("%s: report %d of %d/%d differs:\ngot:  %+v\nwant: %+v", name, i, len(gr), len(wr), at(gr, i), at(wr, i))
	}
	if gs, ws := summary(got), summary(want); gs != ws {
		t.Fatalf("%s: summary differs:\ngot:  %s\nwant: %s", name, gs, ws)
	}
}

// sameView fails t unless a Sampled detector's tier view agrees with the
// certificate-free reference: the same reports, rate, state count and
// counters, except that certificate hits may move checks from
// VectorChecks to EpochHits (never the other way). On a plain oracle,
// where there are no certificates, the counters must be equal outright.
func sameView(t *testing.T, name string, got Detector, ref *mapSampled) {
	t.Helper()
	d := got.(*Sampled)
	gr, wr := d.Reports(), ref.Reports()
	if i := firstDiff(gr, wr); i >= 0 {
		t.Fatalf("%s: report %d of %d/%d differs from the reference:\ngot:  %+v\nwant: %+v", name, i, len(gr), len(wr), at(gr, i), at(wr, i))
	}
	gs, ws := d.Stats(), ref.Stats()
	checks := func(s SampledStats) SampledStats {
		s.EpochHits, s.VectorChecks = s.EpochHits+s.VectorChecks, 0
		return s
	}
	if checks(gs) != checks(ws) || gs.VectorChecks > ws.VectorChecks || d.epochs == nil && gs != ws ||
		d.States() != ref.States() || d.Rate() != ref.Rate() {
		t.Fatalf("%s: tier view differs from the reference:\ngot:  %+v states=%d rate=%g\nwant: %+v states=%d rate=%g",
			name, gs, d.States(), d.Rate(), ws, ref.States(), ref.Rate())
	}
}

// firstDiff is the first index where a and b differ, or -1.
func firstDiff[T comparable](a, b []T) int {
	for i := 0; i < max(len(a), len(b)); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func at[T any](s []T, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "<none>"
}

// liveOf is a LiveClocks over g's finished structure.
func liveOf(g *hb.Graph) *hb.LiveClocks {
	live := hb.NewLiveClocks()
	live.AddNode(op.ID(g.Len()))
	for b := 1; b <= g.Len(); b++ {
		for _, a := range g.Preds(op.ID(b)) {
			live.Edge(a, op.ID(b))
		}
	}
	return live
}

// CheckReplayEquivalence replays trace through every variant and its
// map-based oracle over the graph, Clocks and LiveClocks forms of g,
// each detector over an oracle of its own, and fails t on the first
// difference in queries, reports, counters or state counts, or, for a
// sampled variant, in its tier view against the reference.
func CheckReplayEquivalence(t *testing.T, name string, trace []Access, g *hb.Graph) {
	t.Helper()
	oracles := []struct {
		name string
		mk   func() hb.Oracle
	}{
		{"graph", func() hb.Oracle { return g }},
		{"clocks", func() hb.Oracle { return hb.NewClocks(g) }},
		{"live", func() hb.Oracle { return liveOf(g) }},
	}
	for _, o := range oracles {
		for _, v := range variants() {
			og, lg := logged(o.mk())
			ow, lw := logged(o.mk())
			got, want := v.build(og, ow)
			Replay(trace, got)
			Replay(trace, want)
			sameRun(t, name+"/"+o.name+"/"+v.name, got, want, lg.log, lw.log)
			if v.ref != nil {
				ref := v.ref(o.mk())
				Replay(trace, ref)
				sameView(t, name+"/"+o.name+"/"+v.name, got, ref)
			}
		}
	}
}

// Lockstep is a Detector that feeds every access to each variant's
// shadow-table detector and to its map-based oracle in turn, all over one
// live oracle that the run keeps adding edges to, and checks after each
// access that both sides of a variant made the same queries with the same
// answers. Sharing the oracle is sound because identical query sequences
// leave it in identical states; it is what lets a browser run, whose late
// edges invalidate cached epochs, drive both sides.
type Lockstep struct {
	t        *testing.T
	name     string
	pairs    []lockPair
	accesses int
}

type lockPair struct {
	name            string
	got, want       Detector
	gotLog, wantLog *queryLog
	ref             *mapSampled // sampled variants only
}

// NewLockstep returns a Lockstep over every variant, querying live.
func NewLockstep(t *testing.T, name string, live *hb.LiveClocks) *Lockstep {
	l := &Lockstep{t: t, name: name}
	for _, v := range variants() {
		og, lg := logged(live)
		ow, lw := logged(live)
		got, want := v.build(og, ow)
		p := lockPair{name: v.name, got: got, want: want, gotLog: lg, wantLog: lw}
		if v.ref != nil {
			p.ref = v.ref(live)
		}
		l.pairs = append(l.pairs, p)
	}
	return l
}

// OnAccess implements Detector.
func (l *Lockstep) OnAccess(a Access) {
	l.accesses++
	for _, p := range l.pairs {
		p.got.OnAccess(a)
		p.want.OnAccess(a)
		if i := firstDiff(p.gotLog.log, p.wantLog.log); i >= 0 {
			l.t.Fatalf("%s/%s: access %d, query %d differs:\ngot:  %+v\nwant: %+v",
				l.name, p.name, l.accesses, i, at(p.gotLog.log, i), at(p.wantLog.log, i))
		}
		p.gotLog.log, p.wantLog.log = p.gotLog.log[:0], p.wantLog.log[:0]
		if p.ref != nil {
			p.ref.OnAccess(a)
		}
	}
}

// Reports implements Detector with a copy of the first variant's reports
// (the default Pairwise): the session layer stamps fields on what it gets.
func (l *Lockstep) Reports() []Report { return slices.Clone(l.pairs[0].got.Reports()) }

// Check fails t unless both sides of every variant ended with the same
// reports, counters and state counts, and every sampled variant's tier
// view agrees with its reference.
func (l *Lockstep) Check() {
	l.t.Helper()
	for _, p := range l.pairs {
		sameRun(l.t, l.name+"/"+p.name, p.got, p.want, nil, nil)
		if p.ref != nil {
			sameView(l.t, l.name+"/"+p.name, p.got, p.ref)
		}
	}
}
