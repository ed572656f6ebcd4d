// Package serve implements webracerd, the long-running HTTP detection
// service: race-detection jobs arrive as JSON over REST, run on a shared
// long-lived worker pool behind a bounded queue, and their byte-stable
// results are memoized in a content-addressed cache.
//
// The service leans entirely on the repo's determinism contract: every
// run is a pure function of (site bytes, seed, config) and serializes to
// stable bytes, so a result computed once is the result forever — the
// cache is sound by construction, identical in-flight requests coalesce
// to a single run, and a cache hit is byte-identical to the cold run it
// stands in for (tests assert this). See DESIGN.md "Service architecture"
// and OPERATIONS.md for the operator view.
//
// Request lifecycle:
//
//	POST /v1/{detect,sweep,faultsweep}
//	  → bytes remembered?    → their key, without the two steps below
//	  → resolve (normalize inputs, 400 on bad requests)
//	  → key (SHA-256 over canonical inputs)
//	  → cache hit?           → 200 with cached bytes   (X-Webracer-Cache: hit)
//	  → store hit?           → 200 with stored bytes   (X-Webracer-Cache: store-hit)
//	  → same key in flight?  → attach to that job      (X-Webracer-Cache: coalesced)
//	  → queue full?          → 429 + Retry-After
//	  → enqueue              → run → cache → respond   (X-Webracer-Cache: miss)
//
// GET /v1/jobs/{id} polls any job by its key (async submissions return
// the id immediately); jobAnswer builds every answer, from the job
// table, the cache or the store. /metrics and /progress expose the
// service counters and pool progress on the same mux.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webracer"
	"webracer/internal/fault"
	"webracer/internal/obs"
	"webracer/internal/pool"
	"webracer/internal/race"
	"webracer/internal/report"
	"webracer/internal/store"
)

// Config tunes the service. The zero Config is usable: every field
// defaults to a sensible production value at NewServer.
type Config struct {
	// Workers is the number of long-lived job workers (values < 1 mean
	// runtime.NumCPU()). At most Workers jobs execute concurrently.
	Workers int
	// QueueDepth bounds the number of admitted-but-not-yet-running jobs
	// (default 64). A full queue refuses new work with 429 + Retry-After
	// — the service's backpressure surface.
	QueueDepth int
	// CacheBytes is the result cache's byte budget (default 64 MiB).
	CacheBytes int64
	// SweepWorkers is the per-job parallelism of sweep endpoints
	// (default 1: a job occupies one worker; raise it only when the
	// service runs few, large sweep jobs). Sweep output is byte-identical
	// at any value.
	SweepWorkers int
	// DefaultTimeout is the per-job wall budget applied when a request
	// does not set timeoutMS (default 30s). A tripped budget interrupts
	// the run, which returns partial results and is never cached.
	DefaultTimeout time.Duration
	// MaxTimeout clamps requested budgets (default 2m; 0 disables the
	// clamp).
	MaxTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// RetryAfter is the per-job turnaround estimate, in seconds, that
	// 429 responses derive their Retry-After hint from (default 1). The
	// hint scales with the live queue: estimate × (1 + ⌈waiting/workers⌉),
	// capped at 60 — see OPERATIONS.md "Backpressure" for the formula.
	RetryAfter int
	// StoreDir, when set, backs the in-memory result cache with the
	// crash-safe persistent store (internal/store) rooted there: results
	// are written through on completion, served from disk on an LRU miss,
	// and recovered into the LRU at startup — the cache survives
	// restarts. Empty disables persistence (the pre-PR-8 behavior).
	StoreDir string
	// JobHistory is the number of finished job records kept for
	// GET /v1/jobs (default 4096). Only a job whose result is not cached
	// keeps a record: a failed job (id, kind, status and error), or an
	// interrupted or degraded run or a result too large for CacheBytes
	// on a node without a store, whose record also holds its result
	// bytes because they exist nowhere else. A cacheable result leaves
	// the job table once the cache or the store holds it, so CacheBytes,
	// not JobHistory, bounds the memory results that fit the cache take.
	JobHistory int
	// DefaultDetector names the tier applied to requests that omit
	// "detector" ("" means the library default, pairwise). Operators set
	// "sampled" to route bulk traffic through the cheap tier — sampled
	// jobs escalate to the exact detector on any hit, so reported races
	// are never heuristic. Must be a webracer.ParseDetector spelling;
	// NewServer panics otherwise (a misconfigured service must not boot).
	DefaultDetector string
	// AccessLog, when non-nil, receives one structured JSON line per
	// request (request id, method, path, status, cache state, backend,
	// attempts, job-key prefix, bytes, wall ms). Lines are serialized;
	// cmd/webracerd wires -access-log here. Nil disables.
	AccessLog io.Writer
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.CacheBytes < 1 {
		c.CacheBytes = 64 << 20
	}
	if c.SweepWorkers < 1 {
		c.SweepWorkers = 1
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout < 0 {
		c.MaxTimeout = 0
	}
	if c.MaxBodyBytes < 1 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.RetryAfter < 1 {
		c.RetryAfter = 1
	}
	if c.JobHistory < 1 {
		c.JobHistory = 4096
	}
	return c
}

// Server is the webracerd service: a mux, a job table, a worker pool and
// a result cache. Construct with NewServer, serve via Handler, shut down
// via Drain.
type Server struct {
	cfg     Config
	metrics *obs.Metrics
	cache   *Cache
	store   *store.Store // nil when persistence is disabled
	// memo is the process's request memo: request bytes → the key they
	// resolved to, remembered once a cached or stored result answers
	// them, so a repeat is answered without a decode. A router shares it.
	memo    *routeMemo
	runner  *pool.Runner
	workers int // effective worker count (cfg.Workers resolved)
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the observability middleware
	obsMW   *httpObs

	mu       sync.Mutex
	jobs     map[string]*job // in-flight jobs and the history of never-cached ones
	finished []string        // history job ids, oldest first, for pruning
	draining bool

	cAccepted, cCompleted, cFailed, cInterrupted *obs.Counter
	cCoalesced, cRejected, cEscalated            *obs.Counter
	gDepth                                       *obs.Gauge
	hQueueDepth, hExecOps                        *obs.Histogram // step-unit (stable export)
	hQueueWait, hExecWall                        *obs.Histogram // wall-clock

	// jobGate, when non-nil, is called on the worker goroutine before a
	// job executes — a test hook for holding jobs in flight.
	jobGate func(kind jobKind, key string)
	// decodes counts request bodies decoded and resolved under this
	// server's config — a test hook for telling memo hits from the decode
	// path.
	decodes atomic.Int64
}

// job is the service-side record of one admitted unit of work. Fields
// past done are guarded by Server.mu until done closes, immutable after.
// body is the finished result, which the job's waiters answer with; a
// job whose result the cache or the store took leaves the job table, so
// only a result kept nowhere else stays in history with its record.
type job struct {
	id       string
	kind     jobKind
	status   string // "queued" | "running" | "done" | "failed"
	body     []byte
	errMsg   string
	admitted time.Time // when the job entered the queue (queue-wait histogram)
	done     chan struct{}
}

// finishedState reports whether the job reached a terminal status.
func (j *job) finishedState() bool { return j.status == "done" || j.status == "failed" }

// NewServer builds the service and starts its worker pool. The returned
// server is ready to serve; wire Handler into an http.Server (or
// httptest) and call Drain on shutdown.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if _, err := webracer.ParseDetector(cfg.DefaultDetector); err != nil {
		panic(fmt.Sprintf("serve: bad DefaultDetector: %v", err))
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	m := obs.New()
	s := &Server{
		cfg:          cfg,
		metrics:      m,
		cache:        NewCache(cfg.CacheBytes, m),
		memo:         newRouteMemo(),
		runner:       pool.NewRunner(cfg.Workers, cfg.QueueDepth),
		workers:      workers,
		jobs:         map[string]*job{},
		cAccepted:    m.Counter("serve.jobs.accepted"),
		cCompleted:   m.Counter("serve.jobs.completed"),
		cFailed:      m.Counter("serve.jobs.failed"),
		cInterrupted: m.Counter("serve.jobs.interrupted"),
		cCoalesced:   m.Counter("serve.jobs.coalesced"),
		cRejected:    m.Counter("serve.queue.rejected"),
		cEscalated:   m.Counter("serve.jobs.escalated"),
		gDepth:       m.Gauge("serve.queue.depth"),
		hQueueDepth:  m.Histogram("serve.queue.wait.depth", "jobs", depthBounds),
		hExecOps:     m.Histogram("serve.jobs.exec.ops", "ops", opsBounds),
		hQueueWait:   m.WallHistogram("serve.queue.wait.wall_ms", "ms", wallMSBounds),
		hExecWall:    m.WallHistogram("serve.jobs.exec.wall_ms", "ms", wallMSBounds),
	}
	if cfg.StoreDir != "" {
		// Opening the store replays the disk contents into the LRU: valid
		// entries become immediate memory hits, corrupt ones are
		// quarantined (serve.store.quarantined) instead of served or
		// crashed on. A store that cannot open at all is a deployment
		// error — the service must not boot half-persistent.
		st, err := store.Open(cfg.StoreDir, m, func(key string, body []byte) {
			s.cache.Put(key, body)
		})
		if err != nil {
			panic(fmt.Sprintf("serve: %v", err))
		}
		s.store = st
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/detect", s.post(kindDetect))
	mux.HandleFunc("POST /v1/sweep", s.post(kindSweep))
	mux.HandleFunc("POST /v1/faultsweep", s.post(kindFaultSweep))
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/detectors", s.handleDetectors)
	mux.Handle("GET /metrics", obs.MetricsHandler(m))
	mux.Handle("GET /progress", obs.ProgressHandler(s.progressSnap))
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux = mux
	s.obsMW = newHTTPObs(m, cfg.AccessLog)
	s.handler = s.obsMW.wrap(mux)
	return s
}

// Handler is the service's HTTP surface: the /v1 API plus /metrics,
// /progress and /healthz, wrapped in the request-observability
// middleware (request-id echo, per-endpoint latency/size histograms,
// access log).
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics is the service's live counter registry (the /metrics payload) —
// cmd/webracerd flushes its snapshot on drain.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// Store is the persistent result store, nil when Config.StoreDir was
// empty. Tests and operators use it to inspect recovery/quarantine state.
func (s *Server) Store() *store.Store { return s.store }

// Drain gracefully shuts the service down: new submissions are refused
// with 503 from the moment it is called, every queued and in-flight job
// still runs to completion (or ctx expires), and the cache/counter state
// stays queryable via /metrics until the process exits. The SIGTERM path.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	return s.runner.Drain(ctx)
}

// Close is Drain with no deadline.
func (s *Server) Close() { _ = s.Drain(context.Background()) }

// post builds the handler shared by the three submission endpoints.
// Bytes in the memo are answered by the key they resolved to, without a
// decode, while that key's result is cached or stored; when it is gone,
// they are decoded only to run the job. Any other request is decoded,
// resolved and submitted.
func (s *Server) post(kind jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, hr *http.Request) {
		raw, ok := readRequest(w, hr, s.cfg.MaxBodyBytes)
		if !ok {
			return
		}
		bk := newBodyKey(kind, raw)
		key, async, remembered := s.memo.get(bk)
		if remembered {
			if s.answerKnown(w, key, bk, async) {
				return
			}
			s.mu.Unlock() // decode outside the lock
		}
		r, err := s.resolveBody(bk, raw)
		if err != nil {
			// Never for remembered bytes: they resolved under this config before.
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if !remembered {
			s.submit(w, hr, r)
			return
		}
		s.mu.Lock()
		s.admitLocked(w, hr, r)
	}
}

// answerCached answers a request from a cached result: it writes body as
// a 200 with the job header and cacheH ("hit" or "store-hit") as the
// cache state. Every cached answer goes through it.
// It creates no job record: GET /v1/jobs finds the result where this
// answer found it (jobAnswer).
func answerCached(w http.ResponseWriter, key, cacheH string, body []byte) {
	w.Header().Set(HeaderJob, key)
	w.Header().Set(HeaderCache, cacheH)
	writeBody(w, http.StatusOK, body)
}

// readRequest reads a POST body within limit, writing the 4xx response
// itself on failure: an oversized body is 413 (the body was cut off
// mid-read — nothing was admitted, the request is safely retryable
// smaller), a failed read is 400. The bytes are kept as read: the memo
// digests them, the router forwards them verbatim, and resolveBody
// decodes them.
func readRequest(w http.ResponseWriter, hr *http.Request, limit int64) ([]byte, bool) {
	raw, err := readBody(http.MaxBytesReader(w, hr.Body, limit), hr.ContentLength, limit)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
		} else {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		}
		return nil, false
	}
	return raw, true
}

// resolveBody decodes a request's bytes and resolves them for bk's
// endpoint. Every error is a 400: malformed JSON, unknown fields, data
// after the request object (trailing whitespace is fine), or inputs
// resolve rejects. The resolved request keeps bk, so the memo can
// remember it once a cached or stored result answers it.
func (s *Server) resolveBody(bk bodyKey, raw []byte) (*resolved, error) {
	s.decodes.Add(1)
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %v", err)
	}
	// One object per body: anything after it but whitespace would
	// otherwise be dropped, and the request answered as if it were absent.
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("bad request body: data after the request object")
	}
	r, err := s.resolve(bk.kind, &req)
	if err != nil {
		return nil, err
	}
	r.bk = bk
	return r, nil
}

// readBody reads r to EOF like io.ReadAll. When the declared length n is
// known and at most max, it reads into a buffer of that size instead of
// growing one from 512 bytes; a larger or unknown length grows as
// io.ReadAll does, so a false Content-Length cannot make it allocate more
// than max up front.
func readBody(r io.Reader, n, max int64) ([]byte, error) {
	if n < 0 || n > max {
		return io.ReadAll(r)
	}
	b := make([]byte, 0, n+1) // +1: the read that reports EOF needs room
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// submit routes a resolved request: cache or store hit, coalesce onto an
// in-flight job, or admit a new job (429 when the queue refuses).
func (s *Server) submit(w http.ResponseWriter, hr *http.Request, r *resolved) {
	if !s.answerKnown(w, r.key, r.bk, r.async) {
		s.admitLocked(w, hr, r)
	}
}

// answerKnown answers the request bk, which resolved to key and async,
// when its result is known: 503 while draining, else a cache or store hit
// (lookupLocked), which remembers bk in the memo. It reports whether it
// answered; when it did not, it returns holding s.mu, having written only
// the job header.
func (s *Server) answerKnown(w http.ResponseWriter, key string, bk bodyKey, async bool) bool {
	w.Header().Set(HeaderJob, key)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining")
		return true
	}
	body, cacheH := s.lookupLocked(key)
	if cacheH == "" {
		return false
	}
	s.mu.Unlock()
	s.memo.put(bk, key, async)
	answerCached(w, key, cacheH, body)
	return true
}

// lookupLocked finds key's result: in the LRU (cache state "hit"), else
// in the store ("store-hit"), whose bytes go back into the LRU. cacheH is
// "" when neither holds it. Every POST, routed or not, looks a result up
// here. The caller holds s.mu, so a job finishing under s.mu is either in
// the LRU here or still in the job table to coalesce onto. The disk read
// happens outside the lock, so lookupLocked releases s.mu for it and holds
// it again on return; if an identical job slipped in meanwhile, the bytes
// are identical by contract.
func (s *Server) lookupLocked(key string) (body []byte, cacheH string) {
	if body, ok := s.cache.Get(key); ok {
		return body, "hit"
	}
	if s.store == nil {
		return nil, ""
	}
	s.mu.Unlock()
	defer s.mu.Lock()
	body, ok := s.store.Get(key)
	if !ok {
		return nil, ""
	}
	s.cache.Put(key, body)
	return body, "store-hit"
}

// admitLocked coalesces a request whose result is not known onto its
// in-flight job, or admits a new job (429 when the queue refuses, 503
// while draining). The caller holds s.mu; admitLocked releases it.
func (s *Server) admitLocked(w http.ResponseWriter, hr *http.Request, r *resolved) {
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if j, ok := s.jobs[r.key]; ok && !j.finishedState() {
		s.cCoalesced.Inc()
		s.mu.Unlock()
		s.respond(w, hr, j, r.async, "coalesced")
		return
	}
	// New work — also the re-run path for a finished job whose result
	// left the cache.
	j := &job{id: r.key, kind: r.kind, status: "queued", admitted: time.Now(), done: make(chan struct{})}
	s.jobs[r.key] = j
	// The depth this job sees ahead of it — the step-unit companion to
	// the wall-clock queue-wait histogram.
	s.hQueueDepth.Record(int64(s.runner.QueueDepth()))
	if !s.runner.TrySubmit(func() { s.runJob(j, r) }) {
		delete(s.jobs, r.key)
		s.cRejected.Inc()
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "queue full")
		return
	}
	s.cAccepted.Inc()
	s.gDepth.Set(int64(s.runner.QueueDepth()))
	s.mu.Unlock()
	s.respond(w, hr, j, r.async, "miss")
}

// retryAfterSeconds derives the 429 hint from the live queue rather than
// a constant: with W workers and Q jobs already waiting, a newcomer is
// roughly ⌈Q/W⌉ job-turnarounds from the front, so the hint is
// RetryAfter × (1 + ⌈Q/W⌉), capped at 60 so a deep queue never tells
// clients to go away for minutes (the queue drains in parallel). The
// formula is documented in OPERATIONS.md "Backpressure".
func (s *Server) retryAfterSeconds() int {
	waiting := s.runner.QueueDepth()
	hint := s.cfg.RetryAfter * (1 + (waiting+s.workers-1)/s.workers)
	if hint > 60 {
		hint = 60
	}
	return hint
}

// respond completes a submission: async callers get 202 + the job id,
// sync callers wait for the job (or their own disconnect — the job runs
// on regardless).
func (s *Server) respond(w http.ResponseWriter, hr *http.Request, j *job, async bool, cacheState string) {
	w.Header().Set("X-Webracer-Cache", cacheState)
	if async {
		s.mu.Lock()
		st := s.statusLocked(j)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, st)
		return
	}
	select {
	case <-j.done:
		if j.status == "failed" {
			writeError(w, http.StatusInternalServerError, j.errMsg)
		} else {
			writeBody(w, http.StatusOK, j.body)
		}
	case <-hr.Context().Done():
		// Client gone; nothing to write to. The job still finishes and
		// its result is cached for the retry.
	}
}

// runJob executes one admitted job on a pool worker and publishes its
// terminal state. A cacheable result goes into the cache and the store,
// and once one of them holds it the job leaves the table, so GET /v1/jobs
// reads the result where a repeat POST would. Every other finished job
// stays in the table as history: a failed job, a run that is never
// cached, and a result that neither the cache (it is too large for
// CacheBytes) nor the store took, whose record is then its only copy.
func (s *Server) runJob(j *job, r *resolved) {
	s.mu.Lock()
	j.status = "running"
	gate := s.jobGate
	s.mu.Unlock()
	s.hQueueWait.Record(time.Since(j.admitted).Milliseconds())
	if gate != nil {
		gate(r.kind, r.key)
	}
	execStart := time.Now()
	body, cacheable, err := s.execute(r)
	s.hExecWall.Record(time.Since(execStart).Milliseconds())
	cached := err == nil && cacheable
	kept := false // the cache or the store holds the result
	s.mu.Lock()
	if err != nil {
		j.status = "failed"
		j.errMsg = err.Error()
		s.cFailed.Inc()
	} else {
		j.status = "done"
		j.body = body
		if cached {
			kept = s.cache.put(j.id, body)
		} else {
			s.cInterrupted.Inc()
		}
		s.cCompleted.Inc()
	}
	s.gDepth.Set(int64(s.runner.QueueDepth()))
	if !cached {
		s.keepHistoryLocked(j)
	}
	close(j.done)
	s.mu.Unlock()
	if !cached {
		return
	}
	if s.store != nil {
		// Persist outside the server lock — an fsync must not stall
		// admissions. Best-effort: a failed write costs a recomputation
		// after restart, never correctness (serve.store.errors counts it).
		if s.store.Put(j.id, body) == nil {
			kept = true
		}
	}
	// Until here the record answered polls; now the cache or the store
	// does, unless neither took the result. A newer job for the same key
	// keeps its own record.
	s.mu.Lock()
	if s.jobs[j.id] == j {
		if kept {
			delete(s.jobs, j.id)
		} else {
			s.keepHistoryLocked(j)
		}
	}
	s.mu.Unlock()
}

// keepHistoryLocked records j, finished and never cached, in the history
// GET /v1/jobs reads, and caps the history at cfg.JobHistory records,
// dropping oldest first. In-flight jobs are never pruned. Caller holds
// s.mu.
func (s *Server) keepHistoryLocked(j *job) {
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.JobHistory {
		id := s.finished[0]
		s.finished = s.finished[1:]
		if j, ok := s.jobs[id]; ok && j.finishedState() {
			delete(s.jobs, id)
		}
	}
}

// execute runs the resolved job and serializes its response body. The
// second return reports cacheability: only complete (un-interrupted,
// un-degraded) runs enter the cache, because an interrupted run's bytes
// depend on wall-clock timing rather than the key's inputs alone. Panics
// become errors — one bad job must not take a worker down with it.
func (s *Server) execute(r *resolved) (body []byte, cacheable bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			body, cacheable, err = nil, false, fmt.Errorf("job panicked: %v", v)
		}
	}()
	switch r.kind {
	case kindDetect:
		return s.executeDetect(r)
	case kindSweep:
		return s.executeSweep(r)
	case kindFaultSweep:
		return s.executeFaultSweep(r)
	}
	return nil, false, fmt.Errorf("unknown job kind %q", r.kind)
}

// executeDetect runs one detection and renders the compact report (or the
// full session when the request asked for one).
func (s *Server) executeDetect(r *resolved) ([]byte, bool, error) {
	res := webracer.RunConfig(r.site, r.cfg)
	s.hExecOps.Record(int64(res.Ops))
	var payload any
	if r.session {
		payload = SessionResponse{ID: r.key, Session: webracer.Export(res, r.cfg.Seed, nil, false)}
	} else {
		payload = detectResponse(r, res)
	}
	body, err := marshalBody(payload)
	cacheable := res.Interrupted == ""
	if err == nil && cacheable && !r.session && res.Sampled != nil && res.Sampled.Escalated {
		s.cEscalated.Inc()
		s.crossPopulateExact(r, res)
	}
	return body, cacheable, err
}

// crossPopulateExact stores an escalated sampled run's result under the
// equivalent *exact* request's cache key as well. The escalation already
// computed the exact result — the tier replays the cheap pass's recorded
// run under webracer.EscalationDetector, which reports what a direct
// exact run of the same (site, seed, config) reports — so a later direct
// exact request for this site is a cache hit, byte-identical to what a
// cold exact run would produce (the determinism contract makes the two
// indistinguishable; tests assert the bytes). The Cache is
// internally locked, so this is safe from the worker goroutine.
func (s *Server) crossPopulateExact(r *resolved, res *webracer.Result) {
	r2 := *r
	r2.cfg.Detector = webracer.EscalationDetector
	r2.cfg.SampleRate = 0
	r2.key = r2.computeKey()
	resp := detectResponse(&r2, res)
	// A direct exact run has no sampled-tier accounting.
	resp.SampleRate, resp.SampledHits, resp.Escalated = 0, 0, false
	if body, err := marshalBody(resp); err == nil {
		s.cache.Put(r2.key, body)
		_ = s.store.Put(r2.key, body)
	}
}

// executeSweep runs /v1/sweep in either mode as one library sweep over
// the job's sweep workers, pruned when the request asks. A sweep with
// degraded runs is returned but never cached: a run cut short by the
// wall-clock budget depends on timing, not on the job key's inputs.
func (s *Server) executeSweep(r *resolved) ([]byte, bool, error) {
	resp := SweepResponse{ID: r.key, Site: r.site.Name, Seed: r.cfg.Seed, Mode: r.mode}
	var stats webracer.ClassStats
	p := webracer.ParallelConfig{Workers: s.cfg.SweepWorkers, Prune: r.prune, Classes: &stats}
	switch r.mode {
	case "seeds":
		sweep, err := webracer.RunSeedsParallel(r.site, r.cfg, r.seeds, p)
		if err != nil {
			return nil, false, err
		}
		s.hExecOps.Record(int64(sweep.Ops))
		resp.Seeds = r.seeds
		resp.PerSeed = sweep.PerSeed
		resp.Locations = sweep.Locations
		resp.Stable, resp.Flaky = sweep.Stable()
		resp.Degraded = sweep.Degraded
	case "delay-one":
		sweep, err := webracer.ExploreSchedulesParallel(r.site, r.cfg, p)
		if err != nil {
			return nil, false, err
		}
		resp.Runs = sweep.Runs
		resp.ByLocation = sweep.ByLocation
		resp.NewlyExposed = sweep.NewlyExposed
		resp.Degraded = sweep.Degraded
	}
	if r.prune {
		resp.Classes = &stats
		stats.Fold(s.metrics)
	}
	body, err := marshalBody(resp)
	return body, len(resp.Degraded) == 0, err
}

// executeFaultSweep runs /v1/faultsweep: baseline plus N derived fault
// plans at a fixed schedule seed. Degraded or skipped runs keep the
// response out of the cache.
func (s *Server) executeFaultSweep(r *resolved) ([]byte, bool, error) {
	fc := webracer.FaultSweepConfig{Plans: r.plans}
	if r.fseed != r.cfg.Seed {
		base := r.fseed
		fc.PlanFor = func(i int) fault.Plan { return fault.ForSeed(base, i) }
	}
	sweep, err := webracer.RunFaultSweep(r.site, r.cfg, fc,
		webracer.ParallelConfig{Workers: s.cfg.SweepWorkers})
	if err != nil {
		return nil, false, err
	}
	body, merr := marshalBody(FaultSweepResponse{ID: r.key, Sweep: sweep})
	cacheable := len(sweep.Degraded) == 0 && len(sweep.Skipped) == 0
	return body, cacheable, merr
}

// handleJob answers GET /v1/jobs/{id} with jobAnswer, or 404.
func (s *Server) handleJob(w http.ResponseWriter, hr *http.Request) {
	if st, ok, _ := s.jobAnswer(hr.PathValue("id")); ok {
		writeJSON(w, http.StatusOK, st)
		return
	}
	writeError(w, http.StatusNotFound, "unknown job id")
}

// jobAnswer builds every GET /v1/jobs/{id} answer, a node's and a
// router's local one. It looks for an in-flight job first, then in the
// cache, then in the store, then in the history of finished jobs (failed
// ones and results kept nowhere else), so a complete result is never
// shadowed by a failed or cut-short run of the same id. Ids are
// content-addressed, so a result found in the cache or the store is the
// job's result wherever it was computed; its kind comes from the
// result's own members (resultKind), so the answer's bytes do not depend
// on where it was found. A poll counts no cache hit and leaves the LRU
// order alone. ok is false when none of them knows id; record reports an
// answer from the job table, which a router gives only after its
// backends, as its job table holds only what it ran during a failover.
func (s *Server) jobAnswer(id string) (st JobStatus, ok, record bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	inFlight := ok && !j.finishedState()
	if ok {
		st = s.statusLocked(j)
	}
	s.mu.Unlock()
	if inFlight {
		return st, true, true
	}
	body, found := s.cache.peek(id)
	if !found {
		body, found = s.store.Get(id)
	}
	if found {
		return JobStatus{ID: id, Kind: string(resultKind(body)), Status: "done", Result: body}, true, false
	}
	return st, ok, ok
}

// resultKind names the endpoint family of a result body from its own
// top-level members: "session" (a full-session detect) or "detector" (a
// compact detect), "mode" (a sweep), "sweep" (a fault sweep). A body
// with none of them has no kind ("").
func resultKind(body []byte) jobKind {
	var top map[string]json.RawMessage
	if json.Unmarshal(body, &top) != nil {
		return ""
	}
	switch {
	case top["session"] != nil || top["detector"] != nil:
		return kindDetect
	case top["mode"] != nil:
		return kindSweep
	case top["sweep"] != nil:
		return kindFaultSweep
	}
	return ""
}

// statusLocked renders a job's JobStatus. Caller holds s.mu.
func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{ID: j.id, Kind: string(j.kind), Status: j.status, Error: j.errMsg}
	if j.status == "done" {
		st.Result = j.body
	}
	return st
}

// handleDetectors answers GET /v1/detectors: the capability listing of
// every detector kind the service accepts, which tier each belongs to,
// and which one requests get when they omit "detector". Clients use it
// to discover the sampled tier (and its escalation semantics) without
// hardcoding spellings.
func (s *Server) handleDetectors(w http.ResponseWriter, _ *http.Request) {
	// cfg.DefaultDetector parsed successfully at NewServer.
	def, _ := webracer.ParseDetector(s.cfg.DefaultDetector)
	resp := DetectorsResponse{Default: def.String(), Escalation: webracer.EscalationDetector.String()}
	for _, k := range webracer.DetectorKinds() {
		info := DetectorInfo{Name: k.String(), Tier: "exact", Default: k == def}
		if k == webracer.DetectorSampled {
			info.Tier = "sampled"
		}
		resp.Detectors = append(resp.Detectors, info)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealth reports liveness: 200 while accepting, 503 once draining
// (load balancers stop routing here while in-flight work finishes).
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// progressSnap feeds /progress: the pool's lifetime counters plus the
// queue's current depth.
func (s *Server) progressSnap() map[string]any {
	snap := s.runner.Snapshot()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return map[string]any{
		"total":      snap.Total,
		"done":       snap.Done,
		"inFlight":   snap.InFlight,
		"perSecond":  snap.PerSecond,
		"elapsedMS":  snap.Elapsed.Milliseconds(),
		"queueDepth": s.runner.QueueDepth(),
		"draining":   draining,
	}
}

// ---- response types ----

// RaceJSON is one race in the compact detect response.
type RaceJSON struct {
	// Type classifies the race (HTML, Variable, Function, EventDispatch).
	Type string `json:"type"`
	// Loc is the racing logical memory location.
	Loc string `json:"loc"`
	// Prior and Current describe the two unordered accesses.
	Prior string `json:"prior"`
	// Current is the later access of the reported pair.
	Current string `json:"current"`
	// Env is the fault-plan label the race was found under, if any.
	Env string `json:"env,omitempty"`
}

// DetectResponse is POST /v1/detect's compact body (the default; set
// "session": true for the full exported session instead). All fields are
// pure functions of the request key, so the body is byte-stable.
type DetectResponse struct {
	// ID is the job's content-addressed id (also the cache key).
	ID string `json:"id"`
	// Site is the site's display name.
	Site string `json:"site"`
	// Seed is the schedule seed the run used.
	Seed int64 `json:"seed"`
	// Detector names the algorithm that ran.
	Detector string `json:"detector"`
	// Ops is the number of operations the execution performed.
	Ops int `json:"ops"`
	// Races are the reports surviving the configured filters.
	Races []RaceJSON `json:"races"`
	// RawRaces is the pre-filter report count.
	RawRaces int `json:"rawRaces"`
	// Predicted counts races the predictive detector found beyond the
	// observed schedule (each confirmed by witness replay before it is
	// reported). Zero — and absent — for every other detector.
	Predicted int `json:"predicted,omitempty"`
	// Counts tallies Races by type.
	Counts report.Counts `json:"counts"`
	// Errors are the page errors observed (hidden crashes, failed
	// fetches).
	Errors []string `json:"errors,omitempty"`
	// FaultEvents is the number of fault injections that fired.
	FaultEvents int `json:"faultEvents,omitempty"`
	// Explore summarizes automatic exploration, when it ran.
	Explore map[string]int `json:"explore,omitempty"`
	// SampleRate is the effective location sampling rate (sampled
	// detector only).
	SampleRate float64 `json:"sampleRate,omitempty"`
	// SampledHits is the number of races the cheap tier itself found
	// before escalation (sampled detector only).
	SampledHits int `json:"sampledHits,omitempty"`
	// Escalated reports that the sampled run re-ran under the exact
	// escalation detector and Races holds that pass's output.
	Escalated bool `json:"escalated,omitempty"`
	// Interrupted names why the run stopped early, if it did (such runs
	// are never cached).
	Interrupted string `json:"interrupted,omitempty"`
}

// DetectorInfo is one detector kind in GET /v1/detectors.
type DetectorInfo struct {
	// Name is the spelling Request.Detector accepts.
	Name string `json:"name"`
	// Tier is "exact" (reports are complete for the observed schedule) or
	// "sampled" (cheap pass over a sampled location subset; any hit
	// escalates to the exact tier).
	Tier string `json:"tier"`
	// Default marks the kind requests get when they omit "detector".
	Default bool `json:"default,omitempty"`
}

// DetectorsResponse is GET /v1/detectors' body.
type DetectorsResponse struct {
	// Detectors lists every accepted kind, in the library's declaration
	// order.
	Detectors []DetectorInfo `json:"detectors"`
	// Default is the service's default tier (Config.DefaultDetector).
	Default string `json:"default"`
	// Escalation is the exact detector sampled hits escalate to.
	Escalation string `json:"escalation"`
}

// SessionResponse wraps the full exported session for "session": true
// detect requests.
type SessionResponse struct {
	// ID is the job's content-addressed id.
	ID string `json:"id"`
	// Session is the complete serialized run (ops, edges, races).
	Session *webracer.Session `json:"session"`
}

// SweepResponse is POST /v1/sweep's body, for both modes.
type SweepResponse struct {
	// ID is the job's content-addressed id.
	ID string `json:"id"`
	// Site is the site's display name.
	Site string `json:"site"`
	// Seed is the base schedule seed.
	Seed int64 `json:"seed"`
	// Mode is "seeds" or "delay-one".
	Mode string `json:"mode"`
	// Seeds is the number of schedules run (seeds mode).
	Seeds int `json:"seeds,omitempty"`
	// PerSeed is each run's race count, in seed order (seeds mode).
	PerSeed []int `json:"perSeed,omitempty"`
	// Locations maps each racing location to the number of runs that
	// reported it (seeds mode).
	Locations map[string]int `json:"locations,omitempty"`
	// Stable are locations reported by every seed, sorted (seeds mode).
	Stable []string `json:"stable,omitempty"`
	// Flaky are locations reported by only some seeds, sorted (seeds
	// mode).
	Flaky []string `json:"flaky,omitempty"`
	// Runs is the number of executions (delay-one mode: 1 + resources).
	Runs int `json:"runs,omitempty"`
	// ByLocation maps race locations to the perturbations that exposed
	// them, "" meaning the baseline (delay-one mode).
	ByLocation map[string][]string `json:"byLocation,omitempty"`
	// NewlyExposed are locations found only under some perturbation,
	// sorted (delay-one mode).
	NewlyExposed []string `json:"newlyExposed,omitempty"`
	// Degraded lists the runs that completed partially (wall-clock or
	// virtual-time budget, safety bounds) as "label: reason" in run
	// order: "seed <seed>" in seeds mode, "baseline" or "slow:<url>" in
	// delay-one mode, pruned or not. A degraded sweep is returned but
	// never cached.
	Degraded []string `json:"degraded,omitempty"`
	// Classes is the class summary of a "prune": true sweep — how many
	// executions ran, how many distinct trace classes they fell into,
	// and how many executions fell into a class already explored.
	// Absent on unpruned sweeps.
	Classes *webracer.ClassStats `json:"classes,omitempty"`
}

// FaultSweepResponse is POST /v1/faultsweep's body: the library's
// deterministic FaultSweep, wrapped with the job id.
type FaultSweepResponse struct {
	// ID is the job's content-addressed id.
	ID string `json:"id"`
	// Sweep is the full fault-sweep result (runs, locations,
	// newlyExposed, degraded, skipped).
	Sweep *webracer.FaultSweep `json:"sweep"`
}

// JobStatus is GET /v1/jobs/{id}'s body (and the 202 body of async
// submissions).
type JobStatus struct {
	// ID is the job's content-addressed id.
	ID string `json:"id"`
	// Kind is the endpoint family: detect, sweep or faultsweep.
	Kind string `json:"kind,omitempty"`
	// Status is queued, running, done or failed.
	Status string `json:"status"`
	// Error explains a failed job.
	Error string `json:"error,omitempty"`
	// Result is the finished job's response body, verbatim.
	Result json.RawMessage `json:"result,omitempty"`
}

// detectResponse renders a Result compactly.
func detectResponse(r *resolved, res *webracer.Result) DetectResponse {
	resp := DetectResponse{
		ID:          r.key,
		Site:        res.Site,
		Seed:        r.cfg.Seed,
		Detector:    r.cfg.Detector.String(),
		Ops:         res.Ops,
		Races:       []RaceJSON{},
		RawRaces:    len(res.RawReports),
		Counts:      res.Counts,
		FaultEvents: len(res.FaultEvents),
		Interrupted: res.Interrupted,
	}
	if res.Predictive != nil {
		resp.Predicted = res.Predictive.Stats.Predicted
	}
	if res.Sampled != nil {
		resp.SampleRate = res.Sampled.Rate
		resp.SampledHits = res.Sampled.Hits
		resp.Escalated = res.Sampled.Escalated
	}
	for _, rep := range res.Reports {
		resp.Races = append(resp.Races, RaceJSON{
			Type:    report.Classify(rep).String(),
			Loc:     rep.Loc.String(),
			Prior:   accessLabel(rep.Prior),
			Current: accessLabel(rep.Current),
			Env:     rep.Env,
		})
	}
	for _, e := range res.Errors {
		resp.Errors = append(resp.Errors, e.String())
	}
	if st := res.ExploreStats; st.EventsDispatched+st.LinksClicked+st.FieldsTyped+st.Rounds > 0 {
		resp.Explore = map[string]int{
			"events": st.EventsDispatched,
			"links":  st.LinksClicked,
			"fields": st.FieldsTyped,
			"rounds": st.Rounds,
		}
	}
	return resp
}

// accessLabel renders one access of a race as "<kind> op<N> <context>",
// e.g. "write op12 plain", in one allocation.
func accessLabel(a race.Access) string {
	var buf [48]byte
	b := append(buf[:0], a.Kind.String()...)
	b = append(b, " op"...)
	b = strconv.AppendInt(b, int64(a.Op), 10)
	b = append(b, ' ')
	b = append(b, a.Ctx.String()...)
	return string(b)
}

// ---- encoding helpers ----

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	// Error is the human-readable reason.
	Error string `json:"error"`
}

// marshalBody serializes a response payload the one canonical way:
// indented JSON (json.MarshalIndent's bytes) plus a trailing newline. It
// encodes once, into a pooled buffer, and returns an exact-size copy
// (cap == len), so a body the cache keeps pins no more than it is charged
// for.
func marshalBody(v any) ([]byte, error) {
	e := bodyEncoders.Get().(*bodyEncoder)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		bodyEncoders.Put(e)
		return nil, err
	}
	body := make([]byte, e.buf.Len())
	copy(body, e.buf.Bytes())
	if e.buf.Cap() <= maxPooledBody {
		bodyEncoders.Put(e)
	}
	return body, nil
}

// bodyEncoder is marshalBody's pooled encoder and the buffer it writes.
type bodyEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxPooledBody caps the buffer an encoder may keep in the pool; one
// that grew past it for a large sweep is dropped instead.
const maxPooledBody = 1 << 20

var bodyEncoders = sync.Pool{New: func() any {
	e := &bodyEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

// mustMarshal is marshalBody for shapes that cannot fail.
func mustMarshal(v any) []byte {
	b, err := marshalBody(v)
	if err != nil {
		panic(err)
	}
	return b
}

// writeBody writes a prebuilt JSON body. It declares the length, so
// net/http sends no body chunked and a router reading a backend's answer
// sizes its buffer once.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// writeJSON marshals and writes v.
func writeJSON(w http.ResponseWriter, code int, v any) {
	writeBody(w, code, mustMarshal(v))
}

// writeError writes the canonical error body.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}
