package webracer

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"webracer/internal/canon"
	"webracer/internal/explore"
	"webracer/internal/hb"
	"webracer/internal/loader"
	"webracer/internal/mem"
	"webracer/internal/op"
	"webracer/internal/pool"
	"webracer/internal/race"
	"webracer/internal/report"
)

// ClassStats is the pruning summary a sweep fills in via
// ParallelConfig.Classes; see explore.ClassStats for the field contract
// and the explore.classes.* counter mapping.
type ClassStats = explore.ClassStats

// ErrPruneDetector is returned (wrapped) by the pruned sweep drivers when
// cfg.Detector cannot be re-derived from a recorded trace: pruning
// replays the class representative's access trace through the detector
// once per class, which is exact for the pairwise, accessset and
// pairwise-vc detectors but undefined for the predictive detector (its
// witness replays need live execution) and pointless for the sampled
// tier (itself the cheap pass). Test with errors.Is.
var ErrPruneDetector = errors.New("pruning requires a trace-replayable detector (pairwise, accessset, pairwise-vc)")

// prunable rejects configurations whose detector pass cannot be replayed
// from a recorded trace.
func prunable(cfg Config) error {
	switch cfg.Detector {
	case DetectorPredictive, DetectorSampled:
		return fmt.Errorf("webracer: %w; got %q", ErrPruneDetector, cfg.Detector)
	}
	return nil
}

// nullDetector is the detector slot of a pruned sweep's cheap pass: the
// execution is instrumented (the recorder still captures the access
// trace and the HB graph is built as always) but no race checking runs.
type nullDetector struct{}

func (nullDetector) OnAccess(race.Access) {}

func (nullDetector) Reports() []race.Report { return nil }

// cheapConfig turns cfg into its fingerprint-only variant: trace
// recording on, live race checking replaced by the null detector. The
// execution itself — parsing, scheduling, exploration, HB construction —
// is bit-for-bit the run cfg would perform, because the detector is a
// pure observer.
func cheapConfig(cfg Config) Config {
	c := cfg
	c.RecordTrace = true
	c.Browser.Detector = func(*hb.Graph) race.Detector { return nullDetector{} }
	return c
}

// classifiedResult pairs a cheap-pass result with its canonical trace
// class; the fingerprint is computed worker-side so the in-order fold
// stays light.
type classifiedResult struct {
	res *Result
	fp  string
}

// fingerprintOf computes the run's canonical trace-class fingerprint:
// the canon hash of the HB partial order restricted to the events every
// replayable detector and filter consults — shared-memory accesses and
// the dispatch machinery — and to nothing else (see DESIGN.md "Schedule
// pruning"). The encoding, per location of the recorded trace:
//
//   - one canon node per access, labeled kind + location + context (the
//     exact fields detectors and the §5.3 filters read — never the
//     free-form Desc, never the performing operation's identity, which
//     varies benignly with timer jitter);
//   - an orientation edge for every HB-ordered *conflicting* pair at the
//     location (at least one side a write) — the bits every pairwise /
//     accessset check consults;
//   - an observed-order chain over the accesses up to the location's
//     final write, because the shipped §5.1 pairwise detector keeps only
//     last-read/last-write state and its verdict therefore depends on
//     which conflicting access was observed *last*, not just on the
//     partial order. Accesses after the final write can never become a
//     consulted lastRead/lastWrite, so their mutual order is left free.
//
// Dispatch operations (handler, anchor, join, user) contribute their
// label multiset as isolated nodes. DOM serials ("#74") are normalized
// out of labels — they renumber with parse order across seeds. Canon's
// isomorphism invariance then merges exactly the runs whose
// detector-observable projection coincides; over-splitting costs a
// detector pass, while merging two runs with different verdicts would
// need a SHA-256 collision.
func fingerprintOf(res *Result) string {
	b := res.Browser
	trace := b.Trace()
	nOps := b.Ops.Len()
	cb := canon.New(nOps + len(trace))
	node := func(traceIdx int32) int { return nOps + 1 + int(traceIdx) }
	for id := 1; id <= nOps; id++ {
		o := b.Ops.Get(op.ID(id))
		switch o.Kind {
		case op.KindHandler, op.KindAnchor, op.KindJoin, op.KindUser:
			cb.Event(id, "op "+o.Kind.String()+" "+canonName(o.Label))
		}
	}
	streams := groupByLoc(trace)
	g := b.HB
	var labels []accessLabel
	for _, st := range streams.groups {
		stream := streams.idx[st.start:st.end]
		labels = labels[:0]
		lastW := -1
		for j, idx := range stream {
			if trace[idx].Kind == mem.Write {
				lastW = j
			}
		}
		for j, idx := range stream {
			a := &trace[idx]
			cb.Event(node(idx), labelFor(&labels, a, st.key))
			if lastW < 0 {
				continue // never written: a free multiset of reads
			}
			for k := 0; k < j; k++ {
				p := &trace[stream[k]]
				if a.Kind != mem.Write && p.Kind != mem.Write {
					continue
				}
				if p.Op == a.Op || g.HappensBefore(p.Op, a.Op) {
					cb.Edge(node(stream[k]), node(idx))
				}
			}
			if j > 0 && j <= lastW {
				cb.Edge(node(stream[j-1]), node(idx))
			}
		}
	}
	return cb.Fingerprint()
}

// locStreams is a trace grouped by location key: idx[g.start:g.end] are
// the trace indices of group g's accesses, in trace order.
type locStreams struct {
	groups []locGroup
	idx    []int32
}

type locGroup struct {
	key        string
	start, end int32
}

// groupByLoc groups trace by Loc.String, computing each distinct
// location's key once. The key, not the Loc, is the group: Loc.String is
// not injective (a global named "obj3.x" prints as property x of object
// 3 does), and the fingerprint's encoding is defined over the key.
// Groups are in order of first access.
func groupByLoc(trace []race.Access) locStreams {
	byLoc := map[mem.Loc]int32{}
	byKey := map[string]int32{}
	var s locStreams
	of := make([]int32, len(trace))
	for i := range trace {
		gi, ok := byLoc[trace[i].Loc]
		if !ok {
			key := trace[i].Loc.String()
			if gi, ok = byKey[key]; !ok {
				gi = int32(len(s.groups))
				byKey[key] = gi
				s.groups = append(s.groups, locGroup{key: key})
			}
			byLoc[trace[i].Loc] = gi
		}
		of[i] = gi
		s.groups[gi].end++
	}
	var off int32
	for g := range s.groups {
		n := s.groups[g].end
		s.groups[g].start, s.groups[g].end = off, off
		off += n
	}
	s.idx = make([]int32, len(trace))
	for i, gi := range of {
		g := &s.groups[gi]
		s.idx[g.end] = int32(i)
		g.end++
	}
	return s
}

// accessLabel memoizes one fingerprint event label of a location group:
// kind, location and context — the fields the detectors and §5.3
// filters consult — without the free-form Desc (values don't affect
// which races exist) and without the performing operation (callback
// identity varies benignly across schedules).
type accessLabel struct {
	kind  mem.AccessKind
	ctx   mem.Context
	label string
}

// labelFor returns a's event label, given its location key, from the
// group's memo (a handful of entries: one per kind and context seen at
// the location).
func labelFor(memo *[]accessLabel, a *race.Access, key string) string {
	for _, m := range *memo {
		if m.kind == a.Kind && m.ctx == a.Ctx {
			return m.label
		}
	}
	var buf [128]byte
	l := append(buf[:0], a.Kind.String()...)
	l = append(l, ' ')
	l = appendCanonName(l, key)
	l = append(l, " ["...)
	l = append(l, a.Ctx.String()...)
	l = append(l, ']')
	*memo = append(*memo, accessLabel{a.Kind, a.Ctx, string(l)})
	return (*memo)[len(*memo)-1].label
}

// canonName strips schedule-dependent DOM serials from a label: it
// rewrites every leftmost non-overlapping match of
// `#[0-9]+|\b(?:obj|node)[0-9]+\b` (ASCII word boundaries), "#74" to
// "#?" and "obj74"/"node74" to "obj?"/"node?". Serials appear as "#74"
// in handler and dispatch labels, "node74" in element locations and
// "obj74" in the property locations of wrapped DOM nodes. They renumber
// with parse/execution order, so two isomorphic runs would never share a
// class if labels kept them; normalization merges those classes and
// leans on canon's structural hash to keep genuinely distinct locations
// apart (their access streams differ). Property names, element ids and
// script names ("stat0", "dd0", "dda0.js") keep their digits: they are
// source-stable and distinguish locations whose streams may coincide.
//
// A label without a serial is returned as is, without allocating.
func canonName(s string) string {
	for i := range len(s) {
		if end, _ := serialAt(s, i); end >= 0 {
			return string(appendCanonName(make([]byte, 0, len(s)), s))
		}
	}
	return s
}

// appendCanonName appends canonName(s) to dst.
func appendCanonName(dst []byte, s string) []byte {
	last := 0 // s[last:] is not yet copied to dst
	for i := 0; i < len(s); {
		end, keep := serialAt(s, i)
		if end < 0 {
			i++
			continue
		}
		dst = append(dst, s[last:i+keep]...)
		dst = append(dst, '?')
		i, last = end, end
	}
	return append(dst, s[last:]...)
}

// serialAt reports whether a DOM serial starts at s[i]: it returns the
// end of the match and the length of its kept prefix ("#", "obj",
// "node"), or -1 when none starts there.
func serialAt(s string, i int) (end, keep int) {
	switch {
	case s[i] == '#':
		keep = 1
	case i > 0 && isWordByte(s[i-1]):
		return -1, 0 // "obj"/"node" must start at a word boundary
	case strings.HasPrefix(s[i:], "obj"):
		keep = 3
	case strings.HasPrefix(s[i:], "node"):
		keep = 4
	default:
		return -1, 0
	}
	end = i + keep
	for end < len(s) && '0' <= s[end] && s[end] <= '9' {
		end++
	}
	if end == i+keep {
		return -1, 0
	}
	if keep > 1 && end < len(s) && isWordByte(s[end]) {
		return -1, 0 // digits run into a word: no boundary after them
	}
	return end, keep
}

// isWordByte is \w in ASCII: [0-9A-Za-z_]. Bytes of multi-byte UTF-8
// sequences are all ≥ 0x80, so they are never word bytes, as \b treats
// every non-ASCII rune.
func isWordByte(c byte) bool {
	return c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// replayDetector builds the detector a class representative's trace is
// replayed through — the same algorithm the live run would have used,
// instantiated over the finished graph. For pairwise-vc that is the
// batch vector-clock oracle (hb.NewClocks), exactly ReplayVC's
// configuration; the replay-equals-live invariant is pinned by the
// differential battery.
func replayDetector(cfg Config, res *Result) race.Detector {
	var ropts []race.Option
	if cfg.Browser.ReportAll {
		ropts = append(ropts, race.ReportAll())
	}
	g := res.Browser.HB
	switch cfg.Detector {
	case DetectorAccessSet:
		return race.NewAccessSet(g, race.OnePerLoc())
	case DetectorPairwiseVC:
		ropts = append(ropts, race.LocHint(len(res.Browser.Trace())/4))
		return race.NewPairwise(hb.NewClocks(g), ropts...)
	default:
		return race.NewPairwise(g, ropts...)
	}
}

// analyzeClass runs the detector pass a cheap-pass result skipped:
// replay the recorded trace through cfg's detector over the final graph,
// then apply the same post-processing runOnce would (filters, counts,
// fault-plan Env stamping), filling res.RawReports/Reports in place.
func analyzeClass(cfg Config, res *Result) {
	res.RawReports = race.Replay(res.Browser.Trace(), replayDetector(cfg, res))
	res.RawCounts = report.Count(res.RawReports)
	res.Reports = res.RawReports
	if cfg.Filters {
		res.Reports = report.Apply(res.RawReports,
			report.FormFilter{}, report.SingleDispatchFilter{})
	}
	res.Counts = report.Count(res.Reports)
	if cfg.Fault != nil {
		env := cfg.Fault.Label()
		for i := range res.RawReports {
			res.RawReports[i].Env = env
		}
		for i := range res.Reports {
			res.Reports[i].Env = env
		}
	}
}

// notePairs folds the class representative's conflicting event pairs
// into the steering index: for every location with two accesses by
// different operations, at least one a write, record which way the pair
// is ordered (unordered pairs are already races — there is nothing left
// to flip). Keys are location plus the two operation labels, so a
// perturbation can be matched to the pairs its delayed URL could flip.
// Only the delay-one sweep reads the index.
func notePairs(cs *explore.ClassSet, res *Result) {
	type access struct {
		loc  string
		op   op.ID
		kind mem.AccessKind
	}
	locKeys := map[mem.Loc]string{}
	byLoc := map[string][]race.Access{}
	seen := map[access]bool{}
	for _, a := range res.Browser.Trace() {
		key, ok := locKeys[a.Loc]
		if !ok {
			key = a.Loc.String()
			locKeys[a.Loc] = key
		}
		if k := (access{key, a.Op, a.Kind}); !seen[k] {
			seen[k] = true
			byLoc[key] = append(byLoc[key], a)
		}
	}
	g := res.Browser.HB
	labels := map[op.ID]string{}
	label := func(id op.ID) string {
		l, ok := labels[id]
		if !ok {
			o := res.Browser.Ops.Get(id)
			l = o.Kind.String() + " " + o.Label
			labels[id] = l
		}
		return l
	}
	for locKey, accs := range byLoc {
		for i := 0; i < len(accs); i++ {
			for j := i + 1; j < len(accs); j++ {
				x, y := accs[i], accs[j]
				if x.Op == y.Op || (x.Kind != mem.Write && y.Kind != mem.Write) {
					continue
				}
				var forward bool
				switch {
				case g.HappensBefore(x.Op, y.Op):
					forward = true
				case g.HappensBefore(y.Op, x.Op):
					x, y = y, x
					forward = true
				default:
					continue // unordered: already racing
				}
				lx, ly := label(x.Op), label(y.Op)
				if lx <= ly {
					cs.NotePair(locKey+"|"+lx+"|"+ly, forward)
				} else {
					cs.NotePair(locKey+"|"+ly+"|"+lx, !forward)
				}
			}
		}
	}
}

// runSeedsPruned is RunSeedsParallel's pruned path: every seed still
// executes (cheaply — trace recorded, no live detector), each execution
// is classified by its canonical fingerprint, and only the first member
// of each class pays the detector pass; repeats reuse the class verdict.
// Because HB-equivalent executions report exactly the same races, the
// folded SeedSweep is byte-identical to the unpruned sweep's at any
// worker count (the differential battery pins this on the sched, fault
// and stress corpora). A seed sweep does no steering, so it builds no
// pair index (notePairs).
func runSeedsPruned(site *loader.Site, cfg Config, n int, p ParallelConfig) (*SeedSweep, error) {
	if err := prunable(cfg); err != nil {
		return nil, err
	}
	type classInfo struct {
		count int
		locs  []string
	}
	cs := explore.NewClassSet()
	classes := map[string]*classInfo{}
	sweep := &SeedSweep{Locations: map[string]int{}, Seeds: n}
	err := pool.Each(p.opts(), n,
		func(i int) classifiedResult {
			c := cheapConfig(cfg)
			c.Seed = cfg.Seed + int64(i)*7919
			res := RunConfig(site, c)
			return classifiedResult{res, fingerprintOf(res)}
		},
		func(i int, cr classifiedResult) error {
			var ci *classInfo
			if cr.res.Interrupted != "" {
				cs.Degraded()
			} else if _, first := cs.Observe(cr.fp); !first {
				ci = classes[cr.fp]
			}
			if ci == nil {
				analyzeClass(cfg, cr.res)
				ci = &classInfo{count: len(cr.res.Reports)}
				seen := map[string]bool{}
				for _, r := range cr.res.Reports {
					key := r.Loc.String()
					if !seen[key] {
						seen[key] = true
						ci.locs = append(ci.locs, key)
					}
				}
				if cr.res.Interrupted == "" {
					classes[cr.fp] = ci
				}
			}
			sweep.PerSeed = append(sweep.PerSeed, ci.count)
			for _, key := range ci.locs {
				sweep.Locations[key]++
			}
			return nil
		})
	if p.Classes != nil {
		*p.Classes = cs.Stats()
	}
	return sweep, err
}

// exploreSchedulesPruned is ExploreSchedulesParallel's pruned path: the
// baseline and each delay-one perturbation run cheaply, classify, and
// pay the detector pass once per class. The fold additionally makes the
// steering decision for each perturbation before its class is absorbed:
// a perturbation whose delayed URL appears in a conflicting pair ordered
// only one way across the classes explored so far is the budget the
// sweep would keep under a cap (ClassStats.Steered counts these
// decisions). The aggregate equals the unpruned sweep's exactly.
func exploreSchedulesPruned(site *loader.Site, cfg Config, p ParallelConfig) (*ScheduleSweep, error) {
	if err := prunable(cfg); err != nil {
		return nil, err
	}
	urls := resourceURLs(site)
	cs := explore.NewClassSet()
	classes := map[string][]race.Report{}
	sweep := &ScheduleSweep{ByLocation: map[string][]string{}}
	seenLoc := map[string]bool{}
	record := func(label string, reports []race.Report) {
		for _, r := range reports {
			key := r.Loc.String()
			sweep.ByLocation[key] = append(sweep.ByLocation[key], label)
			if !seenLoc[key] {
				seenLoc[key] = true
				sweep.Reports = append(sweep.Reports, r)
			}
		}
	}
	err := pool.Each(p.opts(), 1+len(urls),
		func(i int) classifiedResult {
			c := cheapConfig(cfg)
			if i > 0 {
				c.Seed = cfg.Seed + 1 // keep jitter stable; the override is the perturbation
				c.Browser.Latency = slowOne(c.Browser.Latency, urls[i-1])
			}
			res := RunConfig(site, c)
			return classifiedResult{res, fingerprintOf(res)}
		},
		func(i int, cr classifiedResult) error {
			sweep.Runs++
			// Steering decision first, against the classes explored
			// before this unit: would this perturbation's URL flip a
			// pair ordered only one way so far?
			if i > 0 && cs.OneWay(func(key string) bool {
				return strings.Contains(key, urls[i-1])
			}) {
				cs.NoteSteered()
			}
			var reports []race.Report
			if cr.res.Interrupted != "" {
				cs.Degraded()
				analyzeClass(cfg, cr.res)
				reports = cr.res.Reports
			} else if _, first := cs.Observe(cr.fp); first {
				analyzeClass(cfg, cr.res)
				reports = cr.res.Reports
				classes[cr.fp] = reports
				notePairs(cs, cr.res)
			} else {
				reports = classes[cr.fp]
			}
			if i == 0 {
				sweep.Baseline = cr.res
				record("", reports)
			} else {
				record("slow:"+urls[i-1], reports)
			}
			return nil
		})
	finishScheduleSweep(sweep)
	if p.Classes != nil {
		*p.Classes = cs.Stats()
	}
	return sweep, err
}

// resourceURLs returns the site's resource URLs in the sweep's canonical
// (sorted) perturbation order.
func resourceURLs(site *loader.Site) []string {
	urls := make([]string, 0, len(site.Resources))
	for url := range site.Resources {
		urls = append(urls, url)
	}
	sort.Strings(urls)
	return urls
}

// finishScheduleSweep computes NewlyExposed from the folded sweep.
func finishScheduleSweep(sweep *ScheduleSweep) {
	baseline := map[string]bool{}
	if sweep.Baseline != nil {
		for _, r := range sweep.Baseline.Reports {
			baseline[r.Loc.String()] = true
		}
	}
	for loc := range sweep.ByLocation {
		if !baseline[loc] {
			sweep.NewlyExposed = append(sweep.NewlyExposed, loc)
		}
	}
	sort.Strings(sweep.NewlyExposed)
}
