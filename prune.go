package webracer

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"webracer/internal/browser"
	"webracer/internal/canon"
	"webracer/internal/explore"
	"webracer/internal/loader"
	"webracer/internal/mem"
	"webracer/internal/op"
	"webracer/internal/race"
)

// ClassStats is the pruning summary a sweep fills in via
// ParallelConfig.Classes; see explore.ClassStats for the field contract
// and the explore.classes.* counter mapping.
type ClassStats = explore.ClassStats

// fingerprintOf computes the run's trace-class fingerprint: the canon
// hash of the events the §5.1 detectors and the filters consult —
// shared-memory accesses and the dispatch machinery — and of nothing
// else (see DESIGN.md "Schedule pruning"). Each location of the recorded
// trace is one canon stream whose accesses are labeled kind + location
// + context: the exact fields detectors and the §5.3 filters read,
// never the free-form Desc and never the performing operation's
// identity, which varies benignly with timer jitter. Canon orders every
// HB-ordered conflicting pair and chains the accesses up to the final
// write, because the shipped §5.1 pairwise detector keeps only
// last-read/last-write state and its verdict depends on which
// conflicting access was observed last.
//
// Dispatch operations (handler, anchor, join, user) contribute their
// labels. DOM serials ("#74") are normalized out of labels — they
// renumber with parse order across seeds. Over-splitting a class only
// inflates the class count; merging two runs with different verdicts
// would need a SHA-256 collision.
func fingerprintOf(res *Result) string {
	b := res.Browser
	s := getFPScratch(b)
	defer s.release()
	cb := &s.cb
	for id := 1; id <= b.Ops.Len(); id++ {
		o := b.Ops.Get(op.ID(id))
		switch o.Kind {
		case op.KindHandler, op.KindAnchor, op.KindJoin, op.KindUser:
			k := opKey{o.Kind, o.Label}
			l, ok := s.ops[k]
			if !ok {
				l = "op " + o.Kind.String() + " " + canonName(o.Label)
				s.ops[k] = l
			}
			cb.Op(l)
		}
	}
	g := b.HB
	hb := func(x, y int32) bool { return g.HappensBefore(op.ID(x), op.ID(y)) }
	for gi, l := range s.groups {
		acc := s.acc[:0]
		for _, a := range s.stream(gi) {
			acc = append(acc, canon.Access{
				Label: labelFor(&l.labels, a, l.key),
				Write: a.Kind == mem.Write,
				Op:    int32(a.Op),
			})
		}
		s.acc = acc
		cb.Loc(acc, hb)
	}
	return cb.Fingerprint()
}

// fpScratch is the working memory of fingerprintOf and notePairs: the
// trace grouped by location, read in place from the recorder's chunks,
// and the fingerprint's buffers. It is
// pooled; a sweep fingerprints every execution, and the buffers' sizes
// repeat from one execution to the next. Its location table outlives a
// run: the keys and labels it caches are pure functions of the Loc, and
// a sweep's executions touch mostly the same locations.
type fpScratch struct {
	run    uint32
	groups []*locInfo     // this run's locations, in order of first access
	idx    []*race.Access // group g's accesses are idx[g.start:g.end]
	of     []int32        // trace index → group
	byLoc  map[mem.Loc]*locInfo
	byKey  map[string]*locInfo
	ops    map[opKey]string // dispatch labels by kind and raw label
	acc    []canon.Access
	cb     canon.Builder
}

// locInfo is one location key in the table: the key, its label memo,
// and its group in the run that last saw it.
type locInfo struct {
	key        string
	labels     []accessLabel
	run        uint32
	group      int32
	start, end int32
}

// opKey is a dispatch operation's kind and raw label.
type opKey struct {
	kind  op.Kind
	label string
}

// maxLocTable bounds the location and dispatch-label tables; a run that
// finds either larger starts both afresh.
const maxLocTable = 1 << 12

func (s *fpScratch) stream(g int) []*race.Access {
	return s.idx[s.groups[g].start:s.groups[g].end]
}

var fpPool = sync.Pool{New: func() any {
	return &fpScratch{byLoc: map[mem.Loc]*locInfo{}, byKey: map[string]*locInfo{}, ops: map[opKey]string{}}
}}

// getFPScratch takes a scratch from the pool with b's recorded trace
// grouped by Loc.String, each distinct location's key computed once per
// table. The key, not the Loc, is the group: Loc.String is not injective
// (a global named "obj3.x" prints as property x of object 3 does), and
// the fingerprint's encoding is defined over the key. Groups are in order
// of first access.
func getFPScratch(b *browser.Browser) *fpScratch {
	s := fpPool.Get().(*fpScratch)
	s.run++
	if s.run == 0 || len(s.byLoc) > maxLocTable || len(s.ops) > maxLocTable {
		clear(s.byLoc)
		clear(s.byKey)
		clear(s.ops)
		s.run = 1
	}
	s.of = s.of[:0]
	b.EachTraceChunk(func(chunk []race.Access) {
		for i := range chunk {
			l := s.byLoc[chunk[i].Loc]
			if l == nil {
				key := chunk[i].Loc.String()
				if l = s.byKey[key]; l == nil {
					l = &locInfo{key: key}
					s.byKey[key] = l
				}
				s.byLoc[chunk[i].Loc] = l
			}
			if l.run != s.run {
				l.run, l.group, l.end = s.run, int32(len(s.groups)), 0
				s.groups = append(s.groups, l)
			}
			s.of = append(s.of, l.group)
			l.end++
		}
	})
	var off int32
	for _, l := range s.groups {
		l.start, l.end, off = off, off, off+l.end
	}
	s.idx = slices.Grow(s.idx[:0], len(s.of))[:len(s.of)]
	i := 0
	b.EachTraceChunk(func(chunk []race.Access) {
		for j := range chunk {
			l := s.groups[s.of[i]]
			s.idx[l.end] = &chunk[j]
			l.end++
			i++
		}
	})
	return s
}

// release drops the scratch's references into the run and returns it to
// the pool.
func (s *fpScratch) release() {
	clear(s.groups)
	clear(s.idx)
	clear(s.acc)
	s.groups = s.groups[:0]
	s.cb.Reset()
	fpPool.Put(s)
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
// location's memo (a handful of entries: one per kind and context seen
// at the location).
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

// notePairs folds the class representative's conflicting event pairs
// into the steering index: for every location with two accesses by
// different operations, at least one a write, record which way the pair
// is ordered (unordered pairs are already races — there is nothing left
// to flip). Keys are location plus the two operation labels, so a
// perturbation can be matched to the pairs its delayed URL could flip.
// Locations are grouped as the fingerprint groups them. Only the
// delay-one sweep reads the index.
func notePairs(cs *explore.ClassSet, res *Result) {
	s := getFPScratch(res.Browser)
	defer s.release()
	type access struct {
		op   op.ID
		kind mem.AccessKind
	}
	seen := map[access]bool{}
	var accs []access
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
	for gi, l := range s.groups {
		clear(seen)
		accs = accs[:0]
		for _, acc := range s.stream(gi) {
			if a := (access{acc.Op, acc.Kind}); !seen[a] {
				seen[a] = true
				accs = append(accs, a)
			}
		}
		for i := 0; i < len(accs); i++ {
			for j := i + 1; j < len(accs); j++ {
				x, y := accs[i], accs[j]
				if x.op == y.op || (x.kind != mem.Write && y.kind != mem.Write) {
					continue
				}
				var forward bool
				switch {
				case g.HappensBefore(x.op, y.op):
					forward = true
				case g.HappensBefore(y.op, x.op):
					x, y = y, x
					forward = true
				default:
					continue // unordered: already racing
				}
				lx, ly := label(x.op), label(y.op)
				if lx <= ly {
					cs.NotePair(l.key+"|"+lx+"|"+ly, forward)
				} else {
					cs.NotePair(l.key+"|"+ly+"|"+lx, !forward)
				}
			}
		}
	}
}

// containsURL reports whether url occurs in the pair key as a whole
// token: bounded on each side by the key's end, a space, '|', a quote or
// a parenthesis. A plain substring test would let a.js match data.js.
func containsURL(key, url string) bool {
	if url == "" {
		return false
	}
	for i := 0; ; {
		j := strings.Index(key[i:], url)
		if j < 0 {
			return false
		}
		j += i
		end := j + len(url)
		if (j == 0 || urlBoundary(key[j-1])) && (end == len(key) || urlBoundary(key[end])) {
			return true
		}
		i = j + 1
	}
}

// urlBoundary reports whether c may delimit a URL inside a pair key.
func urlBoundary(c byte) bool {
	switch c {
	case ' ', '|', '"', '\'', '(', ')':
		return true
	}
	return false
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
