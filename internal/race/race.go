// Package race implements the dynamic race detectors of §5 of "Race
// Detection for Web Applications" (PLDI 2012).
//
// A race exists between accesses A and A′ to the same logical location m if
// they are performed by different operations, neither operation happens
// before the other, and at least one access is a write (§5.1).
//
// The detectors are:
//
//   - Pairwise is the paper's algorithm: constant auxiliary state per
//     location (last read and last write) checked with CHC. It can miss
//     races (§5.1 Limitation), which the tests demonstrate. When its oracle
//     exposes the epoch representation (hb.EpochOracle), the checks run on
//     a FastTrack-style fast path: same-operation and same-chain accesses
//     are dismissed in O(1), and ordering conclusions are cached as
//     per-location epoch certificates, so full vector-clock comparisons are
//     reserved for genuinely shared locations. The fast path answers
//     exactly the same queries — reports are byte-identical to the plain
//     path (the differential battery asserts this against the graph
//     oracle).
//
//   - Sampled is the same Pairwise core behind a location-admission
//     predicate: the fast tier, which runs the algorithm on a
//     deterministic subset of locations only. There is one check path;
//     the tier differs from the exact detector only in its rate.
//
//   - AccessSet keeps the full access history per location and therefore
//     reports every race of the execution — the fix the paper leaves to
//     future work. Used as an ablation and as ground truth in tests.
//
//   - Recorder wraps another detector while capturing the access trace so
//     the same execution can be replayed against a different happens-before
//     representation (experiment E4), or — with the live oracle's mutation
//     log — against the same one under another detector (ReplayLive).
//
//   - Predict is the predictive pass: it replays one recorded trace over
//     the weakened order and confirms a witness reordering per race.
//
// Detector knobs are constructor options (ReportAll, OnePerLoc) rather than
// mutable fields, so a detector's behaviour is fixed at construction.
package race

import (
	"cmp"
	"fmt"
	"slices"

	"webracer/internal/hb"
	"webracer/internal/mem"
	"webracer/internal/op"
)

// Access is one dynamic memory access to a logical location.
type Access struct {
	Kind mem.AccessKind
	Loc  mem.Loc
	Op   op.ID
	Ctx  mem.Context
	// Desc is a human-readable description of the access site, e.g.
	// `getElementById("dw")` or `depart.value = "City of Departure"`.
	Desc string
}

func (a Access) String() string {
	return fmt.Sprintf("%s %s by op#%d [%s] %s", a.Kind, a.Loc, a.Op, a.Ctx, a.Desc)
}

// Report is one detected race: two accesses to Loc by concurrent
// operations, at least one a write. Prior is the access that was observed
// first in the execution; Current the one whose instrumentation fired the
// report.
type Report struct {
	Loc     mem.Loc
	Prior   Access
	Current Access
	// WriterReadFirst is set when the racing write was performed by an
	// operation that read the same location immediately beforehand — the
	// check-then-write idiom the §5.3 form filter treats as harmless.
	WriterReadFirst bool
	// Env labels the environment the race was detected under — the fault
	// plan of the run, stamped by the session layer. Empty for fault-free
	// runs; a non-empty Env means the race needs that plan's injected
	// failures to reproduce.
	Env string
}

func (r Report) String() string {
	return fmt.Sprintf("race on %s: {%s} vs {%s}", r.Loc, r.Prior, r.Current)
}

// Detector consumes an access stream and accumulates race reports.
type Detector interface {
	OnAccess(a Access)
	Reports() []Report
}

// Option configures a detector at construction time.
type Option func(*options)

type options struct {
	reportAll bool
	onePerLoc bool
	locHint   int
}

// ReportAll disables Pairwise's one-race-per-location cap (used by tests
// and by the harm oracle, which wants every racing pair it can get).
func ReportAll() Option { return func(o *options) { o.reportAll = true } }

// OnePerLoc gives AccessSet WebRacer's at-most-one-race-per-location
// reporting.
func OnePerLoc() Option { return func(o *options) { o.onePerLoc = true } }

// LocHint presizes a detector's shadow table for roughly n distinct
// locations: its first chunk of words and its index start at that size,
// sparing large replays the growth steps. Without a hint the table starts
// at a few dozen locations and grows with the run. It is purely a capacity
// hint: any value (including zero) is correct.
func LocHint(n int) Option { return func(o *options) { o.locHint = n } }

func buildOptions(opts []Option) options {
	var o options
	for _, apply := range opts {
		apply(&o)
	}
	return o
}

// PairwiseStats counts how the epoch fast path resolved concurrency
// checks; the laziness tests and benchmarks read it.
type PairwiseStats struct {
	// Checks is the number of concurrency checks performed.
	Checks int
	// EpochHits were answered from epochs alone (same operation, same
	// chain, or a cached ordering certificate) — no clock vector touched.
	EpochHits int
	// VectorChecks fell through to full epoch/vector comparison (and may
	// have materialized clocks in the oracle).
	VectorChecks int
	// Promotions counts read-share promotions: a location whose inline
	// write certificate grew into the per-chain certificate map because
	// reads arrived from a second chain (the FastTrack read-share
	// transition, applied to certificates).
	Promotions int
	// Demotions counts write-after-read-share demotions: a new write
	// discarding a promoted certificate map (the location collapses back
	// to the inline form).
	Demotions int
}

// pairWord is Pairwise's constant per-location state: the paper's
// LastRead/LastWrite pair rewritten as epochs. writeEp/readEp cache the
// chain@pos coordinates of the remembered accesses so the hot path
// compares integers without calling back into the oracle; gen guards the
// cached coordinates against late-edge invalidation. The certificates
// cache ordering conclusions for the current write: an entry chain@pos
// means the write happens before the operation that sat at chain@pos —
// and therefore before anything later on that chain. The certificate side
// is adaptive in the FastTrack sense: a location read from one chain
// carries at most a single certificate inline (cert); reads from a second
// chain promote it to a certificate set kept sorted by chain (read-shared)
// out of line, in the detector's certSets at index certs; the next write
// demotes the location back to the inline form, since certificates
// describe only the write they were minted against. The word holds no
// pointer and takes 60 bytes.
type pairWord struct {
	write   rec
	read    rec
	writeEp hb.Epoch
	readEp  hb.Epoch
	cert    hb.Epoch
	certs   int32 // 1 + index into certSets; 0 until the first promotion
	gen     uint32
	flags   uint8
}

// pairWord.flags bits.
const (
	pwHasWrite uint8 = 1 << iota
	pwHasRead
	pwReported
	pwHasCert // cert holds the inline certificate
	pwShared  // certs holds the promoted certificates
	pwSkip    // the admission predicate rejected the location
)

// Pairwise is the detector of §5.1: for each location it remembers only the
// most recent read and the most recent write, and reports a race when the
// current access can happen concurrently with the remembered conflicting
// access. Like WebRacer (footnote 13) it reports at most one race per
// location per run.
type Pairwise struct {
	oracle    hb.Oracle
	epochs    hb.EpochOracle // non-nil when the epoch fast path is active
	shadow    locTable[pairWord]
	descs     descTable
	certSets  [][]hb.Epoch // promoted certificate sets, kept for reuse
	reports   []Report
	reportAll bool
	stats     PairwiseStats
	admit     admission // off (admit everything) unless Sampled set it
}

// NewPairwise returns the paper's detector querying the given oracle. The
// epoch fast path engages automatically when the oracle implements
// hb.EpochOracle (both vector-clock engines do; the graph does not).
func NewPairwise(o hb.Oracle, opts ...Option) *Pairwise {
	d := &Pairwise{}
	d.init(o, buildOptions(opts))
	return d
}

func (d *Pairwise) init(o hb.Oracle, cfg options) {
	d.oracle, d.reportAll = o, cfg.reportAll
	d.epochs, _ = o.(hb.EpochOracle)
	d.shadow.init(cfg.locHint)
}

// Stats returns fast-path counters (zero-valued for plain-oracle runs).
func (d *Pairwise) Stats() PairwiseStats { return d.stats }

// States reports how many distinct logical locations the detector holds
// pairwise state for — the paper's constant-per-location auxiliary space,
// measured. Locations the admission predicate rejected are not counted.
func (d *Pairwise) States() int { return d.shadow.len() - d.admit.rejected }

// epochUnfetched marks a cached coordinate that has not been asked of the
// oracle yet: epochs are fetched only when a check actually needs them, so
// an access with no conflicting prior costs no oracle call at all.
var epochUnfetched = hb.Epoch{Chain: -2}

// concurrentEpoch decides CHC(prior, cur) exactly like
// oracle.Concurrent, from epochs. pe points at prior's cached coordinate
// (s.writeEp or s.readEp) and ce at the current operation's per-call
// cache; both are fetched lazily and at most once per OnAccess. s caches
// write-ordering certificates; they are only consulted (and only written)
// when prior is s.write.
func (d *Pairwise) concurrentEpoch(s *pairWord, prior op.ID, pe *hb.Epoch, isWrite bool, cur op.ID, ce *hb.Epoch) bool {
	d.stats.Checks++
	if prior == cur {
		d.stats.EpochHits++
		return false
	}
	if gen := d.epochs.Gen(); gen != s.gen {
		// Late edges invalidated coordinates: drop the cached epochs and
		// the certificates minted under the old decomposition.
		s.gen = gen
		s.flags &^= pwHasCert | pwShared
		d.clearCerts(s)
		s.writeEp = epochUnfetched
		s.readEp = epochUnfetched
	}
	if pe.Chain == epochUnfetched.Chain {
		*pe = d.epochs.Epoch(prior)
	}
	if ce.Chain == epochUnfetched.Chain {
		*ce = d.epochs.Epoch(cur)
	}
	if pe.Chain < 0 || ce.Chain < 0 {
		// Unknown operation: mirror the plain oracle bit for bit.
		d.admit.plainQueries++
		return d.oracle.Concurrent(prior, cur)
	}
	if pe.Chain == ce.Chain {
		// A chain is a path in the DAG: same-chain operations are
		// totally ordered, whichever direction — never concurrent.
		d.stats.EpochHits++
		return false
	}
	if isWrite && d.certified(s, *ce) {
		// Certificate hit: the write is known ordered before an earlier
		// point of cur's chain, hence before cur.
		d.stats.EpochHits++
		return false
	}
	d.stats.VectorChecks++
	ordered := d.epochs.OrderedEpoch(*pe, cur)
	if ordered && isWrite {
		d.certify(s, *ce)
	}
	if ordered {
		return false
	}
	return !d.epochs.OrderedEpoch(*ce, prior)
}

// certified reports a certificate for chain@pos: the write is ordered
// before e's chain at or before e's position.
func (d *Pairwise) certified(s *pairWord, e hb.Epoch) bool {
	if s.flags&pwHasCert != 0 {
		return s.cert.Chain == e.Chain && s.cert.Pos <= e.Pos
	}
	if s.flags&pwShared != 0 {
		certs := d.certSets[s.certs-1]
		i, ok := findCert(certs, e.Chain)
		return ok && certs[i].Pos <= e.Pos
	}
	return false
}

func findCert(certs []hb.Epoch, chain int32) (int, bool) {
	return slices.BinarySearchFunc(certs, chain, func(c hb.Epoch, ch int32) int { return cmp.Compare(c.Chain, ch) })
}

// certify records that the current write happens before chain@pos,
// promoting the inline certificate to the read-shared set when a second
// chain shows up.
func (d *Pairwise) certify(s *pairWord, e hb.Epoch) {
	switch {
	case s.flags&(pwHasCert|pwShared) == 0:
		s.cert = e
		s.flags |= pwHasCert
		return
	case s.flags&pwHasCert != 0:
		if s.cert.Chain == e.Chain {
			if e.Pos < s.cert.Pos {
				s.cert.Pos = e.Pos
			}
			return
		}
		// Read-share promotion: certificates now span chains.
		if s.certs == 0 {
			d.certSets = append(d.certSets, nil)
			s.certs = int32(len(d.certSets))
		}
		d.certSets[s.certs-1] = append(d.certSets[s.certs-1][:0], s.cert)
		s.flags = s.flags&^pwHasCert | pwShared
		d.stats.Promotions++
	}
	certs := &d.certSets[s.certs-1]
	if i, ok := findCert(*certs, e.Chain); !ok {
		*certs = slices.Insert(*certs, i, e)
	} else if e.Pos < (*certs)[i].Pos {
		(*certs)[i].Pos = e.Pos
	}
}

// clearCerts empties s's promoted certificate set, keeping its storage
// for the next promotion.
func (d *Pairwise) clearCerts(s *pairWord) {
	if s.certs != 0 {
		d.certSets[s.certs-1] = d.certSets[s.certs-1][:0]
	}
}

// demote clears the write-ordering certificates: they were minted against
// the previous write, and the read-shared set collapses back to the inline
// form (write-after-read-share demotion — counted only when a promoted
// set was actually discarded). The set's storage is kept for the next
// promotion.
func (d *Pairwise) demote(s *pairWord) {
	if s.flags&pwShared != 0 {
		d.stats.Demotions++
	}
	s.flags &^= pwHasCert | pwShared
	d.clearCerts(s)
}

// OnAccess implements Detector. A location the admission predicate
// rejects exits after the table lookup; an admitted one runs the pairwise
// check against its shadow word.
func (d *Pairwise) OnAccess(a Access) {
	s, added := d.shadow.lookup(a.Loc, hashLoc(a.Loc))
	if d.admit.on && d.admit.skip(s, added, a.Loc) {
		return
	}
	if s.flags&pwReported != 0 && !d.reportAll {
		// The location's one report is spent; nothing below can change
		// the output, so skip the oracle entirely (an O(1) exit the
		// plain path pays full queries for). Cached epochs go stale but
		// are never read again for this location.
		if a.Kind == mem.Read {
			s.read = d.descs.rec(a, s.read.desc)
			s.flags |= pwHasRead
		} else {
			s.write = d.descs.rec(a, s.write.desc)
			s.flags |= pwHasWrite
			d.demote(s)
		}
		return
	}
	// Coordinates are fetched lazily — an access with no conflicting
	// prior never calls the oracle at all — and the common same-chain
	// case resolves with integer compares only.
	ce := epochUnfetched
	switch a.Kind {
	case mem.Read:
		if s.flags&pwHasWrite != 0 && d.concurrent(s, s.write.op, &s.writeEp, true, a.Op, &ce) {
			d.report(s, s.write, a, false)
		}
		s.read, s.readEp = d.descs.rec(a, s.read.desc), ce
		s.flags |= pwHasRead
	case mem.Write:
		// Check-then-write detection: the most recent read of this
		// location was by the same operation (operations are atomic,
		// so that read directly preceded this write).
		hasRead := s.flags&pwHasRead != 0
		readFirst := hasRead && s.read.op == a.Op
		if s.flags&pwHasWrite != 0 && d.concurrent(s, s.write.op, &s.writeEp, true, a.Op, &ce) {
			d.report(s, s.write, a, readFirst)
		}
		if hasRead && s.read.op != a.Op && d.concurrent(s, s.read.op, &s.readEp, false, a.Op, &ce) {
			d.report(s, s.read, a, readFirst)
		}
		s.write, s.writeEp = d.descs.rec(a, s.write.desc), ce
		s.flags |= pwHasWrite
		d.demote(s)
	}
}

// concurrent decides CHC(prior, cur) on the epoch fast path when the
// oracle has one, else on the plain path.
func (d *Pairwise) concurrent(s *pairWord, prior op.ID, pe *hb.Epoch, isWrite bool, cur op.ID, ce *hb.Epoch) bool {
	if d.epochs != nil {
		return d.concurrentEpoch(s, prior, pe, isWrite, cur, ce)
	}
	return d.concurrentPlain(prior, cur)
}

// concurrentPlain is the graph-oracle check: one oracle call per
// conflicting prior access.
func (d *Pairwise) concurrentPlain(prior, cur op.ID) bool {
	d.stats.Checks++
	if prior == cur {
		d.admit.plainSame++
		return false
	}
	d.admit.plainQueries++
	return d.oracle.Concurrent(prior, cur)
}

func (d *Pairwise) report(s *pairWord, prior rec, cur Access, writerReadFirst bool) {
	if !d.reportAll {
		if s.flags&pwReported != 0 {
			return
		}
		s.flags |= pwReported
	}
	d.reports = append(d.reports, Report{
		Loc:             cur.Loc,
		Prior:           prior.access(cur.Loc, &d.descs),
		Current:         cur,
		WriterReadFirst: writerReadFirst,
	})
}

// Reports implements Detector.
func (d *Pairwise) Reports() []Report { return d.reports }

// AccessSet keeps every access per location and reports all races of the
// execution. Auxiliary space is O(accesses); the paper's detector trades
// this completeness for constant per-location state.
type AccessSet struct {
	oracle  hb.Oracle
	history locTable[accessHistory]
	descs   descTable
	// onePerLoc mirrors WebRacer's at-most-one-race-per-location
	// reporting (the OnePerLoc option).
	onePerLoc bool
	reports   []Report
}

// accessHistory is AccessSet's per-location word: every access so far,
// in order, and whether the location's one report (OnePerLoc) is spent.
type accessHistory struct {
	recs     []rec
	reported bool
}

// NewAccessSet returns the complete-history detector.
func NewAccessSet(o hb.Oracle, opts ...Option) *AccessSet {
	cfg := buildOptions(opts)
	d := &AccessSet{oracle: o, onePerLoc: cfg.onePerLoc}
	d.history.init(cfg.locHint)
	return d
}

// OnAccess implements Detector.
func (d *AccessSet) OnAccess(a Access) {
	h, _ := d.history.lookup(a.Loc, hashLoc(a.Loc))
	readFirst := false
	if a.Kind == mem.Write && len(h.recs) > 0 {
		// Only the immediately preceding access counts: operations are
		// atomic, so a check-then-write leaves its own read last.
		last := h.recs[len(h.recs)-1]
		readFirst = last.kind == mem.Read && last.op == a.Op
	}
	for _, r := range h.recs {
		if r.kind == mem.Read && a.Kind == mem.Read {
			continue
		}
		if r.op == a.Op {
			continue
		}
		if d.oracle.Concurrent(r.op, a.Op) {
			if d.onePerLoc {
				if h.reported {
					break
				}
				h.reported = true
			}
			d.reports = append(d.reports, Report{Loc: a.Loc, Prior: r.access(a.Loc, &d.descs), Current: a, WriterReadFirst: readFirst})
			if d.onePerLoc {
				break
			}
		}
	}
	h.recs = append(h.recs, d.descs.rec(a, descEmpty))
}

// Reports implements Detector.
func (d *AccessSet) Reports() []Report { return d.reports }

// Recorder wraps a Detector, capturing the access trace for later replay.
//
// The trace grows in chunks that double up to a fixed size and are never
// copied while recording; Trace flattens them once. A stress page records
// tens of thousands of 72-byte accesses, and growing one slice by doubling
// would copy every earlier prefix on the way.
type Recorder struct {
	Inner Detector
	// Clocks, when set, stamps every access with the length of its
	// mutation log (see hb.LiveClocks.LogMutations), so ReplayLive can
	// interleave the log and the trace as the recorded run did.
	Clocks *hb.LiveClocks

	full  [][]Access // filled chunks, in order
	tail  []Access   // the chunk being filled
	marks []int32    // marks[i]: Clocks' log length at access i
}

// Recorder chunk capacities: the first chunk holds recorderChunkMin
// accesses, and each later one twice its predecessor, up to
// recorderChunkMax.
const (
	recorderChunkMin = 128
	recorderChunkMax = 4096
)

// OnAccess implements Detector.
func (r *Recorder) OnAccess(a Access) {
	if r.Clocks != nil {
		r.marks = append(r.marks, int32(len(r.Clocks.Log())))
	}
	if len(r.tail) == cap(r.tail) {
		r.grow()
	}
	r.tail = append(r.tail, a)
	if r.Inner != nil {
		r.Inner.OnAccess(a)
	}
}

// grow retires the full tail and starts the next chunk.
func (r *Recorder) grow() {
	size := recorderChunkMin
	if r.tail != nil {
		r.full = append(r.full, r.tail)
		size = min(2*cap(r.tail), recorderChunkMax)
	}
	r.tail = make([]Access, 0, size)
}

// Trace returns the recorded accesses in order. The first call after
// recording flattens the chunks into one slice, which later calls return
// as is; recording may continue afterwards.
func (r *Recorder) Trace() []Access {
	if len(r.full) == 0 {
		return r.tail
	}
	n := len(r.tail)
	for _, c := range r.full {
		n += len(c)
	}
	flat := make([]Access, 0, n)
	for _, c := range r.full {
		flat = append(flat, c...)
	}
	flat = append(flat, r.tail...)
	// The flat slice is full (len == cap), so the next access starts a
	// fresh chunk instead of copying it.
	r.full, r.tail = nil, flat
	return flat
}

// EachChunk calls f on the recorded accesses in order, chunk by chunk, in
// place: unlike Trace it copies nothing. f must not modify the chunks.
func (r *Recorder) EachChunk(f func([]Access)) {
	for _, c := range r.full {
		f(c)
	}
	f(r.tail)
}

// Reports implements Detector.
func (r *Recorder) Reports() []Report {
	if r.Inner == nil {
		return nil
	}
	return r.Inner.Reports()
}

// ReplayLive feeds the recorded trace to d while applying r.Clocks'
// mutation log to c, each access after exactly the mutations the
// recording saw before it, and the rest of the log at the end. With c a
// fresh engine and d built over it, d sees what it would have seen
// running live in the recorded execution: its reports and counters, and
// c's chains, generations and materialized clocks, equal a live run's.
// r.Clocks must be set, and logging since before the first access.
func (r *Recorder) ReplayLive(c *hb.LiveClocks, d Detector) []Report {
	log := r.Clocks.Log()
	applied, i := 0, 0
	feed := func(chunk []Access) {
		for _, a := range chunk {
			if m := int(r.marks[i]); m > applied {
				c.Apply(log[applied:m])
				applied = m
			}
			d.OnAccess(a)
			i++
		}
	}
	for _, chunk := range r.full {
		feed(chunk)
	}
	feed(r.tail)
	c.Apply(log[applied:])
	return d.Reports()
}

// Replay feeds a recorded trace to a detector and returns its reports.
// It lets one execution be re-analyzed under a different happens-before
// oracle (graph vs vector clocks) without re-running the browser.
func Replay(trace []Access, d Detector) []Report {
	for _, a := range trace {
		d.OnAccess(a)
	}
	return d.Reports()
}
