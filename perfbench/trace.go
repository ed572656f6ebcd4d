package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call, recorded from the benchmark's own code.
type span struct {
	name       string
	start, end time.Duration // offsets from the tracer's origin
	parent     int           // index of the parent span; -1 for a root
	reqID      string        // the X-Webracer-Request-Id of the request it belongs to
	client     int
}

// spans is the in-memory span log of a traced run; both clients append
// to it, and it is written out once, when the run ends.
type spans struct {
	origin time.Time
	mu     sync.Mutex
	log    []span
}

func newSpans() *spans { return &spans{origin: time.Now()} }

// add records a finished span and returns its index.
func (s *spans) add(sp span) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = append(s.log, sp)
	return len(s.log) - 1
}

// open records a span that starts at start and has not ended yet.
func (s *spans) open(name string, start time.Time, parent int, reqID string, client int) int {
	return s.add(span{name: name, start: start.Sub(s.origin), end: -1, parent: parent, reqID: reqID, client: client})
}

// close ends span id now.
func (s *spans) close(id int) {
	now := time.Since(s.origin)
	s.mu.Lock()
	s.log[id].end = now
	s.mu.Unlock()
}

// scope is where new spans attach: a parent span of one request.
type scope struct {
	s      *spans
	parent int
	reqID  string
	client int
}

// span runs fn inside a new child span called name and returns the
// span's duration.
func (sc scope) span(name string, fn func(inner scope)) time.Duration {
	start := time.Now()
	id := sc.s.open(name, start, sc.parent, sc.reqID, sc.client)
	fn(scope{sc.s, id, sc.reqID, sc.client})
	sc.s.close(id)
	return time.Since(start)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover.
func (s *spans) selfTimes() []time.Duration {
	children := make(map[int][]int)
	for i, sp := range s.log {
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], i)
		}
	}
	self := make([]time.Duration, len(s.log))
	for i, sp := range s.log {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return s.log[kids[a]].start < s.log[kids[b]].start })
		covered, reach := time.Duration(0), sp.start
		for _, k := range kids {
			lo, hi := max(s.log[k].start, reach), min(s.log[k].end, sp.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = sp.end - sp.start - covered
	}
	return self
}

// summary prints, per span name, how often it ran and its total and self
// time, largest self time first.
func (s *spans) summary() {
	self := s.selfTimes()
	type row struct {
		name        string
		n           int
		total, self time.Duration
	}
	rows := map[string]*row{}
	for i, sp := range s.log {
		r := rows[sp.name]
		if r == nil {
			r = &row{name: sp.name}
			rows[sp.name] = r
		}
		r.n++
		r.total += sp.end - sp.start
		r.self += self[i]
	}
	var out []*row
	for _, r := range rows {
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].self > out[b].self })
	fmt.Printf("spans: %-26s %7s %12s %12s\n", "name", "count", "total ms", "self ms")
	for _, r := range out {
		fmt.Printf("spans: %-26s %7d %12.3f %12.3f\n", r.name, r.n, ms(r.total), ms(r.self))
	}
}

// writeChrome writes the spans as a Chrome trace_event file (complete
// "X" events on one track per client), each carrying its request id,
// parent and self time.
func (s *spans) writeChrome(path string) error {
	self := s.selfTimes()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(s.log))
	for i, sp := range s.log {
		events[i] = event{
			Name: sp.name, Ph: "X", TS: us(sp.start), Dur: us(sp.end - sp.start), PID: 1, TID: sp.client,
			Args: map[string]any{"request_id": sp.reqID, "parent": sp.parent, "self_us": us(self[i])},
		}
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
