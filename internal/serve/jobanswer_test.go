package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// topoJobs are the topology differential's jobs: every POST endpoint,
// both detect response shapes, and both sweep modes.
var topoJobs = []struct {
	kind jobKind
	body string
}{
	{kindDetect, `{"spec":{"kind":"corpus","index":3},"seed":4}`},
	{kindDetect, `{"site":` + racySite + `,"seed":6,"session":true}`},
	{kindSweep, `{"spec":{"kind":"corpus","index":1},"seeds":2}`},
	{kindSweep, `{"spec":{"kind":"corpus","index":2},"mode":"delay-one"}`},
	{kindFaultSweep, `{"spec":{"kind":"fault","index":1},"plans":2}`},
}

// topoOp is one step of the differential's request sequence.
type topoOp struct {
	what string // "sync" or "async" POST, "get" a posted job, "unknown" GET
	job  int    // index into topoJobs
}

// topoSequence draws the differential's seeded request sequence. A GET
// names only a job the sequence has already posted, so every setup knows
// it; a setup that computed it earlier (the restarted store) must answer
// as if it had not.
func topoSequence(seed int64, n int) []topoOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []topoOp
	var posted []int
	for len(ops) < n {
		op := topoOp{job: rng.Intn(len(topoJobs))}
		switch p := rng.Intn(10); {
		case p < 3:
			op.what = "sync"
		case p < 5:
			op.what = "async"
		case p < 9:
			op.what = "get"
		default:
			op.what = "unknown"
		}
		if op.what == "get" {
			if len(posted) == 0 {
				continue
			}
			op.job = posted[rng.Intn(len(posted))]
		}
		if op.what == "sync" || op.what == "async" {
			posted = append(posted, op.job)
		}
		ops = append(ops, op)
	}
	return ops
}

// topoAnswer is what a client sees of one answer, less the headers that
// may differ between setups: X-Webracer-Cache, -Backend and -Attempts
// name where the answer came from, Date when, and the request id is
// checked on its own.
type topoAnswer struct {
	code   int
	header http.Header
	body   []byte
}

// topoDo sends one request with a fixed request id and captures the
// answer; it fails t unless the id is echoed.
func topoDo(t *testing.T, url, method, path, body, reqID string) topoAnswer {
	t.Helper()
	hr, err := http.NewRequest(method, url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set(HeaderRequestID, reqID)
	if body != "" {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get(HeaderRequestID); got != reqID {
		t.Fatalf("%s %s: request id %q echoed as %q", method, path, reqID, got)
	}
	h := resp.Header.Clone()
	for _, k := range []string{"Date", HeaderCache, HeaderBackend, HeaderAttempts, HeaderRequestID} {
		h.Del(k)
	}
	return topoAnswer{resp.StatusCode, h, b}
}

// topoSame fails t unless got is want.
func topoSame(t *testing.T, what string, got, want topoAnswer) {
	t.Helper()
	if got.code != want.code || !reflect.DeepEqual(got.header, want.header) || !bytes.Equal(got.body, want.body) {
		t.Fatalf("%s: answer differs from a fresh node's:\ngot  %d %v\n%s\nwant %d %v\n%s",
			what, got.code, got.header, got.body, want.code, want.header, want.body)
	}
}

// topoAsync is body with "async": true.
func topoAsync(body string) string {
	return strings.TrimSuffix(body, "}") + `,"async":true}`
}

// topoUnknown is an id no job has.
var topoUnknown = strings.Repeat("0", 64)

// topoRef is a fresh single node's answers: each job's cold sync POST,
// its GET once finished, and the GET of an unknown id.
type topoRef struct {
	keys      []string
	post, get []topoAnswer
	unknown   topoAnswer
}

// topoReference computes the answers every setup must reproduce.
func topoReference(t *testing.T) topoRef {
	t.Helper()
	_, ts := newTestServer(t, Config{Workers: 2})
	var ref topoRef
	for i, j := range topoJobs {
		p := topoDo(t, ts.URL, http.MethodPost, "/v1/"+string(j.kind), j.body, "topo-ref")
		if p.code != http.StatusOK {
			t.Fatalf("reference job %d: %d %s", i, p.code, p.body)
		}
		key := p.header.Get(HeaderJob)
		ref.keys = append(ref.keys, key)
		ref.post = append(ref.post, p)
		ref.get = append(ref.get, topoDo(t, ts.URL, http.MethodGet, "/v1/jobs/"+key, "", "topo-ref"))
	}
	ref.unknown = topoDo(t, ts.URL, http.MethodGet, "/v1/jobs/"+topoUnknown, "", "topo-ref")
	return ref
}

// topoPoll GETs job key until it is no longer queued or running.
func topoPoll(t *testing.T, url, key, reqID string) topoAnswer {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		a := topoDo(t, url, http.MethodGet, "/v1/jobs/"+key, "", reqID)
		var st JobStatus
		if a.code != http.StatusOK || json.Unmarshal(a.body, &st) != nil ||
			(st.Status != "queued" && st.Status != "running") {
			return a
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", key[:8], st.Status)
		}
	}
}

// topoReplay sends seq to url and holds every answer to ref.
func topoReplay(t *testing.T, url string, seq []topoOp, ref topoRef) {
	t.Helper()
	posted := map[int]bool{}
	for i, op := range seq {
		j, key := topoJobs[op.job], ref.keys[op.job]
		reqID := fmt.Sprintf("topo-%d", i)
		what := fmt.Sprintf("op %d (%s %s job %d)", i, op.what, j.kind, op.job)
		switch op.what {
		case "sync":
			posted[op.job] = true
			topoSame(t, what, topoDo(t, url, http.MethodPost, "/v1/"+string(j.kind), j.body, reqID), ref.post[op.job])
		case "async":
			// A known result is a 200 whatever the async flag; otherwise
			// the answer is the job's 202 ticket, whose status depends on
			// timing. Its finished state is checked by the GETs.
			posted[op.job] = true
			a := topoDo(t, url, http.MethodPost, "/v1/"+string(j.kind), topoAsync(j.body), reqID)
			if a.code == http.StatusOK {
				topoSame(t, what, a, ref.post[op.job])
				break
			}
			var st JobStatus
			if a.code != http.StatusAccepted || json.Unmarshal(a.body, &st) != nil ||
				st.ID != key || st.Kind != string(j.kind) || a.header.Get(HeaderJob) != key {
				t.Fatalf("%s: %d %s, want a 202 ticket for %s", what, a.code, a.body, key[:8])
			}
		case "get":
			topoSame(t, what, topoPoll(t, url, key, reqID), ref.get[op.job])
		case "unknown":
			topoSame(t, what, topoDo(t, url, http.MethodGet, "/v1/jobs/"+topoUnknown, "", reqID), ref.unknown)
		}
	}
	// Every job the sequence posted answers its poll, whatever the setup
	// kept of it.
	for idx := range topoJobs {
		if posted[idx] {
			topoSame(t, fmt.Sprintf("final GET of job %d", idx), topoPoll(t, url, ref.keys[idx], "topo-final"), ref.get[idx])
		}
	}
}

// TestJobAnswerTopology is the topology differential: one seeded sequence
// of sync and async POSTs over the three endpoints and GETs of
// /v1/jobs/{id}, replayed against a node without a store, a store node
// that keeps nothing in memory (CacheBytes 1, JobHistory 1), that node
// restarted on its store, and routers over one and three backends (each
// keeping one job record), with and without chaos. Every answer must be a
// fresh single node's, bytes and headers, except the headers that name
// the cache level, the backend and the attempts. Router breakers stay
// shut so a GET walks the same candidates its POST did.
func TestJobAnswerTopology(t *testing.T) {
	ref := topoReference(t)
	seq := topoSequence(26, 40)
	storeDir := t.TempDir()
	storeCfg := Config{Workers: 2, CacheBytes: 1, JobHistory: 1, StoreDir: storeDir}
	chaos := &ChaosPlan{Seed: 26, KillProb: 0.3, CorruptProb: 0.2}

	for _, setup := range []struct {
		name string
		boot func(t *testing.T) *httptest.Server
	}{
		{"node", func(t *testing.T) *httptest.Server {
			_, ts := newTestServer(t, Config{Workers: 2})
			return ts
		}},
		{"store", func(t *testing.T) *httptest.Server {
			_, ts := newTestServer(t, storeCfg)
			return ts
		}},
		{"store-restarted", func(t *testing.T) *httptest.Server {
			_, ts := newTestServer(t, storeCfg)
			return ts
		}},
		{"router-1", func(t *testing.T) *httptest.Server {
			return newCluster(t, 1, Config{Workers: 2, JobHistory: 1}, RouterConfig{BreakerFailures: -1}).rts
		}},
		{"router-3", func(t *testing.T) *httptest.Server {
			return newCluster(t, 3, Config{Workers: 2, JobHistory: 1}, RouterConfig{BreakerFailures: -1}).rts
		}},
		{"router-3-chaos", func(t *testing.T) *httptest.Server {
			rts := newCluster(t, 3, Config{Workers: 2, JobHistory: 1}, RouterConfig{BreakerFailures: -1, Chaos: chaos}).rts
			t.Cleanup(func() {
				if metricQuiet(rts, "serve.router.retries") == 0 {
					t.Error("the chaos plan injected no fault")
				}
			})
			return rts
		}},
	} {
		// The store node shuts down before the restart boots on its
		// directory: subtests run in order.
		t.Run(setup.name, func(t *testing.T) {
			topoReplay(t, setup.boot(t).URL, seq, ref)
		})
	}
}

// heapPerJob is the live heap a finished, cached job may leave behind
// besides its share of the cache's budget. A job keeps no record once
// the cache holds its result, so this is headroom for the runtime's own
// noise; a record that kept a compact corpus-page result would cost
// about 12 KB.
const heapPerJob = 1 << 10

// heapCache is the heap bound's cache budget: room for a few compact
// corpus-page results, so every result enters the cache and is evicted
// by later ones.
const heapCache = 64 << 10

// TestJobAnswerHeapBound: on a node with a small cache and no store, 400
// distinct detect jobs at the default JobHistory grow the live heap by
// less than the cache's budget plus heapPerJob a job. Result bytes live
// in the budgeted cache, not in job records. (A result the cache refuses
// outright stays with its record, bounded by JobHistory:
// TestJobAnswerRefusedResult.)
func TestJobAnswerHeapBound(t *testing.T) {
	const jobs = 400
	s := NewServer(Config{Workers: 1, CacheBytes: heapCache})
	defer s.Close()
	h := s.Handler()
	run := func(i int) {
		r := serveReply(h, "/v1/detect", []byte(fmt.Sprintf(`{"spec":{"kind":"corpus","index":%d},"seed":1}`, i)))
		if r.code != http.StatusOK {
			t.Fatalf("job %d: %d %s", i, r.code, r.body)
		}
	}
	run(jobs) // warm the node's pools and lazily built tables
	before := liveHeap()
	for i := 0; i < jobs; i++ {
		run(i)
	}
	growth := liveHeap() - before
	t.Logf("%d jobs grew the live heap by %d bytes", jobs, growth)
	if s.cache.Len() == 0 {
		t.Fatal("the cache holds no result; the bound shows nothing")
	}
	if growth > heapCache+jobs*heapPerJob {
		t.Fatalf("%d jobs grew the live heap by %d bytes, want at most the cache's %d plus %d a job",
			jobs, growth, heapCache, heapPerJob)
	}
}

// TestJobAnswerRefusedResult: on a node without a store whose cache is
// too small for any result, an async job's record keeps its result, the
// only copy, so its poll answers a fresh node's bytes.
func TestJobAnswerRefusedResult(t *testing.T) {
	ref := topoReference(t)
	s, ts := newTestServer(t, Config{Workers: 1, CacheBytes: 1})
	for i, j := range topoJobs {
		a := topoDo(t, ts.URL, http.MethodPost, "/v1/"+string(j.kind), topoAsync(j.body), "refused")
		if a.code != http.StatusAccepted {
			t.Fatalf("job %d: %d %s, want a 202 ticket", i, a.code, a.body)
		}
		topoSame(t, fmt.Sprintf("poll of job %d", i), topoPoll(t, ts.URL, ref.keys[i], "topo-ref"), ref.get[i])
	}
	if s.cache.Len() != 0 {
		t.Errorf("a cache of one byte holds %d results", s.cache.Len())
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestJobAnswerKind: the kind a poll reads from a result's own members
// (resultKind) is the kind the job's record gave it, for every response
// shape: compact and session detects, both sweep modes and a fault sweep.
// The record's kind is read from the async submission's 202 ticket; the
// poll is answered from the cache once the record has left the table.
func TestJobAnswerKind(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	for _, c := range []struct{ path, body string }{
		{"/v1/detect", `{"site":` + racySite + `,"async":true}`},
		{"/v1/detect", `{"site":` + racySite + `,"session":true,"async":true}`},
		{"/v1/sweep", `{"site":` + racySite + `,"seeds":2,"async":true}`},
		{"/v1/sweep", `{"site":` + racySite + `,"mode":"delay-one","async":true}`},
		{"/v1/faultsweep", `{"site":` + racySite + `,"plans":1,"async":true}`},
	} {
		r := postReply(t, ts, c.path, c.body)
		var ticket JobStatus
		if r.code != http.StatusAccepted || json.Unmarshal(r.body, &ticket) != nil || ticket.Kind == "" {
			t.Fatalf("%s %s: %d %s, want a 202 ticket", c.path, c.body, r.code, r.body)
		}
		waitUntil(t, func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			_, ok := s.jobs[r.job]
			return !ok
		})
		body, ok := s.cache.peek(r.job)
		if !ok {
			t.Fatalf("%s %s: result not cached", c.path, c.body)
		}
		if got := resultKind(body); string(got) != ticket.Kind {
			t.Errorf("%s %s: resultKind = %q, record kind %q", c.path, c.body, got, ticket.Kind)
		}
		if st, ok, _ := s.jobAnswer(r.job); !ok || st.Kind != ticket.Kind || !bytes.Equal(st.Result, body) {
			t.Errorf("%s %s: poll answers kind %q (%v), record kind %q", c.path, c.body, st.Kind, ok, ticket.Kind)
		}
	}
	for _, body := range []string{``, `[]`, `{"id":"x"}`, `{"id":`} {
		if got := resultKind([]byte(body)); got != "" {
			t.Errorf("resultKind(%q) = %q, want none", body, got)
		}
	}
}

// TestJobAnswerHistory: only a job whose result is never cached stays in
// the job table once it finishes. A degraded sweep's record keeps its
// bytes, the only copy, and answers polls until JobHistory prunes it; a
// failed job's record keeps its error and no bytes.
func TestJobAnswerHistory(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, JobHistory: 1})
	run := func(r *resolved) {
		j := &job{id: r.key, kind: r.kind, status: "queued", admitted: time.Now(), done: make(chan struct{})}
		s.mu.Lock()
		s.jobs[r.key] = j
		s.mu.Unlock()
		s.runJob(j, r)
	}
	degraded := budgetSweep(t, "delay-one", false)
	run(degraded)
	st, ok, _ := s.jobAnswer(degraded.key)
	var resp SweepResponse
	if !ok || st.Status != "done" || st.Kind != "sweep" || json.Unmarshal(st.Result, &resp) != nil || len(resp.Degraded) == 0 {
		t.Fatalf("degraded sweep's poll: %v %+v", ok, st)
	}
	if s.cache.Len() != 0 {
		t.Fatal("a degraded sweep was cached")
	}

	failed := &resolved{kind: "bogus", key: "failed"}
	run(failed)
	if _, ok, _ := s.jobAnswer(degraded.key); ok {
		t.Error("the degraded sweep's record outlived JobHistory 1")
	}
	st, ok, _ = s.jobAnswer(failed.key)
	if !ok || st.Status != "failed" || st.Kind != "bogus" || st.Error == "" || st.Result != nil {
		t.Fatalf("failed job's poll: %v %+v", ok, st)
	}
	s.mu.Lock()
	body := s.jobs[failed.key].body
	s.mu.Unlock()
	if body != nil {
		t.Errorf("a failed job's record holds %d result bytes", len(body))
	}

	// A complete result of the same id, cached later, answers before the
	// failed record.
	result := []byte(`{"id":"failed","detector":"vc"}`)
	s.cache.Put(failed.key, result)
	st, ok, record := s.jobAnswer(failed.key)
	if !ok || record || st.Status != "done" || !bytes.Equal(st.Result, result) {
		t.Errorf("a failed record shadows the cached result: %v %v %+v", ok, record, st)
	}
}

// TestJobAnswerRouterShadow: a router answers a poll from its own job
// table only after its backends, as at a node a record answers after the
// cache and the store. A failed local run of a job, as a failover may
// leave, does not shadow the owning backend's result; with the backend
// gone, the local record answers.
func TestJobAnswerRouterShadow(t *testing.T) {
	c := newCluster(t, 1, Config{Workers: 1}, RouterConfig{BreakerFailures: -1})
	p := topoDo(t, c.rts.URL, http.MethodPost, "/v1/detect", topoJobs[0].body, "shadow")
	key := p.header.Get(HeaderJob)
	if p.code != http.StatusOK || key == "" {
		t.Fatalf("POST: %d %s", p.code, p.body)
	}
	want := topoDo(t, c.tss[0].URL, http.MethodGet, "/v1/jobs/"+key, "", "shadow")

	local := c.router.local
	j := &job{id: key, kind: "bogus", status: "queued", admitted: time.Now(), done: make(chan struct{})}
	local.mu.Lock()
	local.jobs[key] = j
	local.mu.Unlock()
	local.runJob(j, &resolved{kind: "bogus", key: key})
	if st, ok, record := local.jobAnswer(key); !ok || !record || st.Status != "failed" {
		t.Fatalf("the router's local failed run: %v %v %+v", ok, record, st)
	}
	topoSame(t, "GET through the router", topoDo(t, c.rts.URL, http.MethodGet, "/v1/jobs/"+key, "", "shadow"), want)

	c.tss[0].Close()
	var st JobStatus
	a := topoDo(t, c.rts.URL, http.MethodGet, "/v1/jobs/"+key, "", "shadow")
	if a.code != http.StatusOK || json.Unmarshal(a.body, &st) != nil || st.Status != "failed" {
		t.Fatalf("GET with the backend gone: %d %s, want the local failed record", a.code, a.body)
	}
}
