package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webracer/internal/obs"
)

// RouterConfig tunes webracerd's router mode. Backends is the only
// required field; every other zero value defaults to a production
// setting at NewRouter.
type RouterConfig struct {
	// Backends are the base URLs ("http://host:8077") job keys are
	// consistent-hashed across. NewRouter panics on an empty list — a
	// router with nothing to route to must not boot.
	Backends []string
	// BackendNames optionally gives each backend a stable identity on
	// the hash ring (and in chaos decisions and response headers)
	// decoupled from its dial URL. Production deployments leave it empty
	// — the URL is the identity; the chaos battery pins names so its
	// routing and counters are byte-stable while httptest picks ports.
	BackendNames []string
	// RequestTimeout bounds each forward attempt (default 90s — above
	// the service's 2m MaxTimeout would never trip, below the default
	// job budget starves sweeps; operators tune it to their job mix).
	RequestTimeout time.Duration
	// Attempts is the total number of forward attempts per request
	// before degrading to local execution (default 3). Candidates rotate
	// through the key's ring order, so attempt 2 of a request whose
	// primary died lands on the next backend, not the same corpse.
	Attempts int
	// BackoffBase seeds the capped exponential backoff between attempts
	// (default 25ms; attempt n waits base·2ⁿ, capped at 1s and
	// scaled by deterministic jitter).
	BackoffBase time.Duration
	// BreakerFailures is the consecutive-failure count that opens a
	// backend's circuit breaker (default 5; negative disables breakers —
	// the chaos goldens do, so their counters stay order-independent).
	BreakerFailures int
	// BreakerCooldown is how long an open breaker rejects a backend
	// before one half-open probe may close it again (default 5s).
	BreakerCooldown time.Duration
	// HealthInterval is the active /healthz probe period (0 disables
	// active probing; breakers still learn passively from request
	// outcomes). cmd/webracerd defaults it to 2s.
	HealthInterval time.Duration
	// Chaos, when non-nil, deterministically injects kill/stall/corrupt
	// faults into forward attempts — the service-level chaos harness.
	// Test-only: production routers leave it nil.
	Chaos *ChaosPlan
}

const (
	// ringReplicas is the number of virtual nodes per backend on the hash
	// ring. More replicas smooth the key distribution at the cost of a
	// larger ring.
	ringReplicas = 64
	// backoffCap caps the retry backoff's exponential growth.
	backoffCap = time.Second
)

// withDefaults fills zero fields.
func (c RouterConfig) withDefaults() RouterConfig {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 90 * time.Second
	}
	if c.Attempts < 1 {
		c.Attempts = 3
	}
	if c.BackoffBase < 0 {
		c.BackoffBase = 0
	} else if c.BackoffBase == 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BreakerFailures == 0 {
		c.BreakerFailures = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	return c
}

// Router is webracerd's self-healing distribution layer: POSTs resolve
// to their content-addressed key locally (so malformed requests are 400s
// that never touch the cluster; a repeat of remembered bytes skips the
// decode), the key consistent-hashes to a backend,
// and the forward is wrapped in per-request timeouts, bounded retries
// with capped seeded-jitter backoff, response integrity validation, and
// per-backend circuit breakers. A request the cluster cannot serve —
// every candidate dead, stalled, or corrupting — degrades to executing
// on the router's own local Server rather than surfacing a 5xx: the
// cluster absorbs partial failure by construction.
//
// Single-flight is preserved end-to-end: identical requests in flight at
// the router coalesce into one forward (serve.router.coalesced), and the
// backend's own job table coalesces across routers. The router's local
// cache + persistent store sit in front of routing, so a warm key never
// leaves the process.
//
// Byte identity survives all of it: backends compute pure functions of
// the key, the router validates every 2xx body against the key it
// forwarded, and corrupted responses are retried, never relayed — the
// chaos battery asserts a cluster losing a backend mid-sweep returns
// bytes identical to a healthy single node's.
type Router struct {
	cfg     RouterConfig
	local   *Server
	metrics *obs.Metrics
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the observability middleware
	client  *http.Client

	ring     []ringPoint
	backends []*backendState

	mu      sync.Mutex
	flights map[string]*flight

	healthStop chan struct{}
	healthWG   sync.WaitGroup

	cRequests, cForwarded, cRetries, cCorrupt  *obs.Counter
	cFailover, cLocal, cCoalesced              *obs.Counter
	cBreakerSkips, cBreakerOpened, cRouterHits *obs.Counter
	gHealthy                                   *obs.Gauge
	hAttempts                                  *obs.Histogram // step-unit attempts per routed dispatch

	// validations counts bodies put through the full integrity gate
	// (answersFor) — a test hook for telling digest-checked repeats from
	// parsed answers.
	validations atomic.Int64
}

// ringPoint is one virtual node: a hash position owned by a backend.
type ringPoint struct {
	hash uint64
	idx  int
}

// backendState is one backend's live health: its circuit breaker (fed
// passively by request outcomes and actively by /healthz probes) plus
// the last probe verdict for /v1/backends.
type backendState struct {
	url   string
	name  string         // ring/chaos identity; the URL unless BackendNames pinned it
	hWall *obs.Histogram // serve.router.attempt.<name>.wall_ms per-forward latency

	mu        sync.Mutex
	fails     int
	openUntil time.Time
	probed    bool // an active probe has run at least once
	healthy   bool // last active probe verdict
}

// flight is one in-flight routed request; followers of the same key
// replay the leader's response.
type flight struct {
	done     chan struct{}
	code     int
	cacheH   string
	backend  string
	attempts int
	body     []byte
}

// NewRouter builds the router in front of local, which supplies request
// resolution (so router and backends must run the same resolution flags
// — see OPERATIONS.md "Running a cluster"), the request memo, the
// router-side cache and persistent store, the metrics registry, and the
// local-execution fallback. Start active health probing per
// cfg.HealthInterval; stop it with Close.
func NewRouter(local *Server, cfg RouterConfig) *Router {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		panic("serve: router needs at least one backend")
	}
	m := local.Metrics()
	rt := &Router{
		cfg:            cfg,
		local:          local,
		metrics:        m,
		client:         &http.Client{},
		flights:        map[string]*flight{},
		healthStop:     make(chan struct{}),
		cRequests:      m.Counter("serve.router.requests"),
		cForwarded:     m.Counter("serve.router.forwarded"),
		cRetries:       m.Counter("serve.router.retries"),
		cCorrupt:       m.Counter("serve.router.corrupt"),
		cFailover:      m.Counter("serve.router.failover"),
		cLocal:         m.Counter("serve.router.local_fallback"),
		cCoalesced:     m.Counter("serve.router.coalesced"),
		cBreakerSkips:  m.Counter("serve.router.breaker_skips"),
		cBreakerOpened: m.Counter("serve.router.breaker_opened"),
		cRouterHits:    m.Counter("serve.router.cache_hits"),
		gHealthy:       m.Gauge("serve.router.healthy"),
		hAttempts:      m.Histogram("serve.router.attempts", "attempts", attemptBounds),
	}
	for i, url := range cfg.Backends {
		name := url
		if i < len(cfg.BackendNames) && cfg.BackendNames[i] != "" {
			name = cfg.BackendNames[i]
		}
		rt.backends = append(rt.backends, &backendState{
			url:     url,
			name:    name,
			hWall:   m.WallHistogram("serve.router.attempt."+name+".wall_ms", "ms", wallMSBounds),
			healthy: true,
		})
	}
	rt.gHealthy.Set(int64(len(rt.backends)))
	rt.buildRing()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/detect", rt.post(kindDetect))
	mux.HandleFunc("POST /v1/sweep", rt.post(kindSweep))
	mux.HandleFunc("POST /v1/faultsweep", rt.post(kindFaultSweep))
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJob)
	mux.HandleFunc("GET /v1/backends", rt.handleBackends)
	// Capability, metrics, progress and health answer locally: the
	// router shares its registry (and detector policy) with its local
	// server.
	mux.HandleFunc("GET /v1/detectors", local.handleDetectors)
	mux.Handle("GET /metrics", obs.MetricsHandler(m))
	mux.Handle("GET /progress", obs.ProgressHandler(local.progressSnap))
	mux.HandleFunc("GET /healthz", local.handleHealth)
	rt.mux = mux
	// The router wraps its own mux in the observability middleware —
	// request ids are accepted/minted here and propagated on forwards, so
	// one id follows a job router → backend → local fallback. The access
	// log (when configured) is shared with the local server's writer.
	rt.handler = newHTTPObs(m, local.cfg.AccessLog).wrap(mux)

	if cfg.HealthInterval > 0 {
		rt.healthWG.Add(1)
		go rt.healthLoop()
	}
	return rt
}

// Handler is the router's HTTP surface — the same API shape a single
// webracerd serves, so clients cannot tell a router from a node.
func (rt *Router) Handler() http.Handler { return rt.handler }

// Close stops active health probing. The local server is drained
// separately by its owner.
func (rt *Router) Close() {
	close(rt.healthStop)
	rt.healthWG.Wait()
}

// buildRing places ringReplicas virtual nodes per backend on the hash ring,
// sorted by position. FNV-1a over "url#i" — deterministic, so every
// router instance with the same backend list routes identically.
func (rt *Router) buildRing() {
	for i, b := range rt.backends {
		for v := 0; v < ringReplicas; v++ {
			rt.ring = append(rt.ring, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", b.name, v)), idx: i})
		}
	}
	sort.Slice(rt.ring, func(i, j int) bool {
		if rt.ring[i].hash != rt.ring[j].hash {
			return rt.ring[i].hash < rt.ring[j].hash
		}
		return rt.ring[i].idx < rt.ring[j].idx
	})
}

// ringHash positions a string on the ring: FNV-1a followed by a
// splitmix64 finalizer. Raw FNV-1a clusters similar short inputs
// ("b0#0".."b0#63" differ only in low bits), which would leave each
// backend's virtual nodes contiguous — three giant arcs instead of an
// interleaved ring — so the finalizer's avalanche is what actually buys
// the even key distribution virtual nodes promise.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// candidates returns every backend in the key's ring order: the owner
// first, then each distinct successor. Retries walk this list, so a
// request whose primary is down fails over to the backend that would own
// the key if the primary left the ring — the consistent-hashing property
// that keeps cache locality through partial failure.
func (rt *Router) candidates(key string) []*backendState {
	h := ringHash(key)
	start := sort.Search(len(rt.ring), func(i int) bool { return rt.ring[i].hash >= h })
	seen := make([]bool, len(rt.backends))
	out := make([]*backendState, 0, len(rt.backends))
	for i := 0; i < len(rt.ring) && len(out) < len(rt.backends); i++ {
		p := rt.ring[(start+i)%len(rt.ring)]
		if !seen[p.idx] {
			seen[p.idx] = true
			out = append(out, rt.backends[p.idx])
		}
	}
	return out
}

// routedReq is one POST on its way through the router: the bytes it
// forwards verbatim, their body key, and the job key and async flag they
// resolve to.
type routedReq struct {
	bk    bodyKey
	raw   []byte
	key   string
	async bool
}

// post builds the routed handler for one POST endpoint. Bytes in the
// memo are routed by the key they resolved to, without a decode; others
// are resolved by the local server (400s never leave the router) and
// remembered at once, since the router holds no result that could answer
// them first.
func (rt *Router) post(kind jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, hr *http.Request) {
		raw, ok := readRequest(w, hr, rt.local.cfg.MaxBodyBytes)
		if !ok {
			return
		}
		q := &routedReq{bk: newBodyKey(kind, raw), raw: raw}
		if q.key, q.async, ok = rt.local.memo.get(q.bk); !ok {
			r, err := rt.local.resolveBody(q.bk, raw)
			if err != nil {
				writeError(w, http.StatusBadRequest, err.Error())
				return
			}
			q.key, q.async = r.key, r.async
			rt.local.memo.put(q.bk, r.key, r.async)
		}
		rt.cRequests.Inc()
		rt.route(w, hr, q)
	}
}

// route serves one POST by its key: router-local cache, then single-flight
// dispatch across the cluster.
func (rt *Router) route(w http.ResponseWriter, hr *http.Request, q *routedReq) {
	w.Header().Set(HeaderJob, q.key)
	// Two-level router-side cache: a warm key never leaves the process.
	// Only complete runs are ever cached, so serving them here is as
	// sound as serving them on a backend.
	rt.local.mu.Lock()
	body, cacheH := rt.local.lookupLocked(q.key)
	rt.local.mu.Unlock()
	if cacheH != "" {
		rt.cRouterHits.Inc()
		writeRouted(w, http.StatusOK, cacheH, "local", 0, body)
		return
	}

	// Single-flight: identical requests in flight at this router share
	// one dispatch. Sync and async submissions keep separate flights
	// (their response codes differ); the backend's job table still
	// coalesces them into one execution. Followers still echo their own
	// request id (the middleware set it before routing); the forward
	// itself carries the leader's.
	fkey := q.key
	if q.async {
		fkey += "/async"
	}
	rt.mu.Lock()
	if f, ok := rt.flights[fkey]; ok {
		rt.cCoalesced.Inc()
		rt.mu.Unlock()
		select {
		case <-f.done:
			writeRouted(w, f.code, f.cacheH, f.backend, f.attempts, f.body)
		case <-hr.Context().Done():
		}
		return
	}
	f := &flight{done: make(chan struct{})}
	rt.flights[fkey] = f
	rt.mu.Unlock()

	f.code, f.cacheH, f.backend, f.attempts, f.body = rt.dispatch(q, hr.Header.Get(HeaderRequestID))

	rt.mu.Lock()
	delete(rt.flights, fkey)
	rt.mu.Unlock()
	close(f.done)
	writeRouted(w, f.code, f.cacheH, f.backend, f.attempts, f.body)
}

// dispatch pushes one request through the retry ladder: up to Attempts
// forwards across the key's candidate backends with capped seeded
// backoff between failures, then local execution. Detached from the
// client's context deliberately — like Server.respond, a dispatch in
// flight finishes (and caches on the backend) even if the submitting
// client disconnects, so coalesced followers still get their bytes.
func (rt *Router) dispatch(q *routedReq, reqID string) (code int, cacheH, backend string, attempts int, body []byte) {
	cands := rt.candidates(q.key)
	for attempt := 0; attempt < rt.cfg.Attempts; attempt++ {
		b := cands[attempt%len(cands)]
		if !rt.breakerAllow(b) {
			rt.cBreakerSkips.Inc()
			continue
		}
		if attempt > 0 {
			rt.backoff(q.key, attempt)
		}
		attempts++
		res, retryable, err := rt.forwardOnce(b, q, attempt, reqID)
		if err == nil {
			rt.breakerResult(b, true)
			if attempt > 0 {
				rt.cFailover.Inc()
			}
			rt.hAttempts.Record(int64(attempts))
			return res.code, res.cacheH, b.name, attempts, res.body
		}
		rt.breakerResult(b, false)
		if !retryable {
			// A definitive backend verdict (4xx): relaying it is correct,
			// retrying it is not.
			rt.hAttempts.Record(int64(attempts))
			return res.code, "", b.name, attempts, res.body
		}
		rt.cRetries.Inc()
	}
	// The cluster could not serve it — the router can. Local execution
	// reuses the full Server admission path (cache, single-flight,
	// queue), so even total cluster loss degrades to "one node's worth
	// of throughput", never to a 5xx the cluster could have absorbed.
	rt.cLocal.Inc()
	rt.hAttempts.Record(int64(attempts))
	code, cacheH, body = rt.runLocal(q, reqID)
	return code, cacheH, "local", attempts, body
}

// forwardResult is one completed forward attempt.
type forwardResult struct {
	code   int
	cacheH string
	body   []byte
}

// forwardOnce issues one forward attempt of q against b, applying the
// chaos plan's decision for (backend, key, attempt) first, and validating
// any 2xx body against the key it must answer for. The error return means
// "this attempt did not produce a servable response"; retryable says
// whether another backend could do better (transport faults, 5xx, 429,
// corruption — yes; a 4xx verdict — no).
func (rt *Router) forwardOnce(b *backendState, q *routedReq, attempt int, reqID string) (forwardResult, bool, error) {
	rt.cForwarded.Inc()
	key := q.key
	chaos := rt.cfg.Chaos.decide(b.name, key, attempt)
	switch chaos {
	case ChaosKill:
		return forwardResult{}, true, fmt.Errorf("chaos: %s killed", b.name)
	case ChaosStall:
		return forwardResult{}, true, fmt.Errorf("chaos: %s stalled past request timeout", b.name)
	}

	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/"+string(q.bk.kind), bytes.NewReader(q.raw))
	if err != nil {
		return forwardResult{}, true, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(HeaderRequestID, reqID)
	}
	fwdStart := time.Now()
	resp, err := rt.client.Do(req)
	b.hWall.Record(time.Since(fwdStart).Milliseconds())
	if err != nil {
		return forwardResult{}, true, err
	}
	defer resp.Body.Close()
	body, err := readBody(resp.Body, resp.ContentLength, rt.local.cfg.MaxBodyBytes)
	if err != nil {
		return forwardResult{}, true, err
	}
	if chaos == ChaosCorrupt && len(body) > 0 {
		body[0] ^= 0xff
	}

	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted:
		// Integrity gate: every 2xx body must be the JSON answer for the
		// key this router computed. A backend that disagrees (corrupt
		// bytes, or a node booted with different resolution flags) is
		// treated as a failed attempt, never relayed.
		if !rt.accepts(q, resp.StatusCode, body) {
			rt.cCorrupt.Inc()
			return forwardResult{}, true, fmt.Errorf("%s returned a corrupt response for %s", b.name, key[:8])
		}
		return forwardResult{code: resp.StatusCode, cacheH: resp.Header.Get("X-Webracer-Cache"), body: body}, false, nil
	case resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests:
		// 5xx and backend backpressure are cluster-absorbable: another
		// candidate may be healthy or have queue headroom.
		return forwardResult{code: resp.StatusCode, body: body}, true,
			fmt.Errorf("%s answered %d", b.name, resp.StatusCode)
	default:
		// 4xx: a definitive verdict on the request itself.
		return forwardResult{code: resp.StatusCode, body: body}, false,
			fmt.Errorf("%s answered %d", b.name, resp.StatusCode)
	}
}

// accepts is the integrity gate for a 2xx answer to q. A 200 body whose
// SHA-256 is the one remembered as q's answer is the very bytes that
// passed the gate for q's key before, so it is accepted without a parse.
// Any other body takes the full gate (answersFor), and a 200 that passes
// is remembered as q's answer. A 202 body is a job status, which changes
// as the job runs, so it always takes the full gate and is never
// remembered.
func (rt *Router) accepts(q *routedReq, code int, body []byte) bool {
	if code != http.StatusOK {
		return rt.gate(body, q.key)
	}
	sum := sha256.Sum256(body)
	if rt.local.memo.answered(q.bk, sum) {
		return true
	}
	if !rt.gate(body, q.key) {
		return false
	}
	rt.local.memo.noteAnswer(q.bk, sum)
	return true
}

// gate runs the full integrity gate, answersFor, counting it.
func (rt *Router) gate(body []byte, key string) bool {
	rt.validations.Add(1)
	return answersFor(body, key)
}

// answersFor reports whether body is a JSON object whose first member is
// "id": key — every response type leads with its id. One full pass
// validates the whole body, so corruption anywhere fails the gate; the id
// is then read from the leading tokens alone.
func answersFor(body []byte, key string) bool {
	if !json.Valid(body) {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	for _, want := range []json.Token{json.Delim('{'), "id", key} {
		if tok, err := dec.Token(); err != nil || tok != want {
			return false
		}
	}
	return true
}

// runLocal executes the request on the router's own Server through the
// normal submission path, capturing the response. The request is resolved
// here, from its bytes: routing needs only its key, so no resolved
// request is kept for this rare path. The request id rides along so the
// fallback's log lines correlate with the routed request that degraded to
// it.
func (rt *Router) runLocal(q *routedReq, reqID string) (int, string, []byte) {
	r, err := rt.local.resolveBody(q.bk, q.raw)
	if err != nil {
		// Unreachable: these bytes resolved under this config before.
		return http.StatusBadRequest, "", mustMarshal(errorBody{Error: err.Error()})
	}
	hr, _ := http.NewRequest(http.MethodPost, "/", nil)
	if reqID != "" {
		hr.Header.Set(HeaderRequestID, reqID)
	}
	w := &memResponse{code: http.StatusOK}
	rt.local.submit(w, hr, r)
	return w.code, w.header().Get("X-Webracer-Cache"), w.buf.Bytes()
}

// backoff sleeps the capped exponential delay before retry `attempt`,
// scaled by deterministic jitter in [0.5, 1.0) so a thundering herd of
// routers retrying the same lost backend decorrelates without
// randomness: FNV-1a of (key, attempt) after a zero 8-byte seed, the
// internal/fault roll.
func (rt *Router) backoff(key string, attempt int) {
	if rt.cfg.BackoffBase <= 0 {
		return
	}
	d := rt.cfg.BackoffBase << (attempt - 1)
	if d > backoffCap || d <= 0 {
		d = backoffCap
	}
	h := fnv.New64a()
	var b8 [8]byte
	h.Write(b8[:])
	h.Write([]byte(key))
	binary.LittleEndian.PutUint64(b8[:], uint64(attempt))
	h.Write(b8[:])
	jitter := 0.5 + 0.5*float64(h.Sum64()>>11)/(1<<53)
	time.Sleep(time.Duration(float64(d) * jitter))
}

// breakerAllow reports whether b's circuit admits an attempt. Closed
// circuits always do; an open one rejects until its cooldown expires,
// then admits a single half-open probe (claiming the slot by extending
// the cooldown, so concurrent requests don't all probe at once).
func (rt *Router) breakerAllow(b *backendState) bool {
	if rt.cfg.BreakerFailures < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fails < rt.cfg.BreakerFailures {
		return true
	}
	now := time.Now()
	if now.Before(b.openUntil) {
		return false
	}
	b.openUntil = now.Add(rt.cfg.BreakerCooldown)
	return true
}

// breakerResult feeds one attempt outcome into b's circuit: success
// closes it, failure counts toward (or re-opens) it.
func (rt *Router) breakerResult(b *backendState, success bool) {
	if rt.cfg.BreakerFailures < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if success {
		b.fails = 0
		b.openUntil = time.Time{}
		return
	}
	b.fails++
	if b.fails == rt.cfg.BreakerFailures {
		rt.cBreakerOpened.Inc()
	}
	if b.fails >= rt.cfg.BreakerFailures {
		b.openUntil = time.Now().Add(rt.cfg.BreakerCooldown)
	}
}

// healthLoop actively probes every backend's /healthz on the configured
// interval, feeding verdicts into the breakers: a dead node's circuit
// opens without burning client requests to find out, and a recovered
// node closes its circuit before the half-open probe would.
func (rt *Router) healthLoop() {
	defer rt.healthWG.Done()
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.healthStop:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

// probeAll probes every backend once and updates the healthy gauge.
func (rt *Router) probeAll() {
	healthy := int64(0)
	for _, b := range rt.backends {
		ok := rt.probe(b)
		b.mu.Lock()
		b.probed, b.healthy = true, ok
		b.mu.Unlock()
		rt.breakerResult(b, ok)
		if ok {
			healthy++
		}
	}
	rt.gHealthy.Set(healthy)
}

// probe is one active health check: 200 from /healthz within a bounded
// window. A draining backend (503) probes unhealthy, which is exactly
// what drains want — the router stops routing new work there.
func (rt *Router) probe(b *backendState) bool {
	timeout := rt.cfg.HealthInterval
	if timeout <= 0 || timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// handleJob answers GET /v1/jobs/{id} at the router: the local cache or
// store first (jobAnswer; ids are content-addressed, so any node's copy
// is the truth), then the id's backends in ring order, then the local job
// table, which holds only what the router ran itself during a failover —
// a local failed or cut-short run must not shadow a backend's complete
// result. The same absorb-don't-surface policy as POSTs: a dead backend
// costs a failover, not an error, and a 2xx body must pass the same
// integrity gate (a JobStatus leads with its id), or it counts as corrupt
// and the next backend is asked. When nothing knows the job: 404.
func (rt *Router) handleJob(w http.ResponseWriter, hr *http.Request) {
	id := hr.PathValue("id")
	if st, ok, record := rt.local.jobAnswer(id); ok && !record {
		writeJSON(w, http.StatusOK, st)
		return
	}
	for attempt, b := range rt.candidates(id) {
		if !rt.breakerAllow(b) {
			rt.cBreakerSkips.Inc()
			continue
		}
		if rt.cfg.Chaos.decide(b.name, id, attempt) != ChaosNone {
			rt.breakerResult(b, false)
			rt.cRetries.Inc()
			continue
		}
		ctx, cancel := context.WithTimeout(hr.Context(), rt.cfg.RequestTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/v1/jobs/"+id, nil)
		if err != nil {
			cancel()
			continue
		}
		if reqID := hr.Header.Get(HeaderRequestID); reqID != "" {
			req.Header.Set(HeaderRequestID, reqID)
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			cancel()
			rt.breakerResult(b, false)
			rt.cRetries.Inc()
			continue
		}
		body, rerr := readBody(resp.Body, resp.ContentLength, rt.local.cfg.MaxBodyBytes)
		resp.Body.Close()
		cancel()
		if rerr == nil && resp.StatusCode/100 == 2 && !rt.gate(body, id) {
			rt.cCorrupt.Inc()
			rerr = fmt.Errorf("%s returned a corrupt job status for %s", b.name, id)
		}
		if rerr != nil || resp.StatusCode >= 500 {
			rt.breakerResult(b, false)
			rt.cRetries.Inc()
			continue
		}
		rt.breakerResult(b, true)
		if resp.StatusCode == http.StatusNotFound {
			// The owning backend authoritatively does not know the job —
			// but it may have run locally here during a failover window.
			break
		}
		writeBody(w, resp.StatusCode, body)
		return
	}
	if st, ok, _ := rt.local.jobAnswer(id); ok {
		writeJSON(w, http.StatusOK, st)
		return
	}
	writeError(w, http.StatusNotFound, "unknown job id")
}

// BackendStatus is one backend's live state in GET /v1/backends.
type BackendStatus struct {
	// URL is the backend's base URL.
	URL string `json:"url"`
	// Name is the backend's ring identity (the URL unless pinned).
	Name string `json:"name"`
	// Healthy is the last active probe's verdict (true before the first
	// probe when probing is disabled — passive-only routers assume
	// health until requests prove otherwise).
	Healthy bool `json:"healthy"`
	// ConsecutiveFails is the breaker's current failure streak.
	ConsecutiveFails int `json:"consecutiveFails"`
	// BreakerOpen reports an open circuit right now.
	BreakerOpen bool `json:"breakerOpen"`
}

// BackendsResponse is GET /v1/backends' body: the router's live view of
// its cluster.
type BackendsResponse struct {
	// Backends lists every configured backend in flag order.
	Backends []BackendStatus `json:"backends"`
	// Attempts is the router's per-request forward budget.
	Attempts int `json:"attempts"`
	// LocalFallback is always true today: the router degrades to local
	// execution when the cluster cannot serve.
	LocalFallback bool `json:"localFallback"`
}

// handleBackends answers GET /v1/backends — the operator's view of
// breaker and probe state, and what the cluster runbook's health checks
// script against.
func (rt *Router) handleBackends(w http.ResponseWriter, _ *http.Request) {
	resp := BackendsResponse{Attempts: rt.cfg.Attempts, LocalFallback: true}
	now := time.Now()
	for _, b := range rt.backends {
		b.mu.Lock()
		st := BackendStatus{
			URL:              b.url,
			Name:             b.name,
			Healthy:          b.healthy,
			ConsecutiveFails: b.fails,
			BreakerOpen:      rt.cfg.BreakerFailures >= 0 && b.fails >= rt.cfg.BreakerFailures && now.Before(b.openUntil),
		}
		b.mu.Unlock()
		resp.Backends = append(resp.Backends, st)
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeRouted writes a routed response with its provenance headers:
// X-Webracer-Cache when any cache layer answered, X-Webracer-Backend
// naming the node that produced the bytes ("local" for the router
// itself), X-Webracer-Attempts counting the forwards consumed (absent
// on cache hits, which never leave the process).
func writeRouted(w http.ResponseWriter, code int, cacheH, backend string, attempts int, body []byte) {
	if cacheH != "" {
		w.Header().Set(HeaderCache, cacheH)
	}
	if backend != "" {
		w.Header().Set(HeaderBackend, backend)
	}
	if attempts > 0 {
		w.Header().Set(HeaderAttempts, fmt.Sprintf("%d", attempts))
	}
	writeBody(w, code, body)
}

// memResponse captures a handler's response in memory — the router's
// local-execution fallback runs the ordinary Server path against it.
type memResponse struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

// header lazily allocates the header map.
func (m *memResponse) header() http.Header {
	if m.h == nil {
		m.h = http.Header{}
	}
	return m.h
}

// Header implements http.ResponseWriter.
func (m *memResponse) Header() http.Header { return m.header() }

// WriteHeader implements http.ResponseWriter.
func (m *memResponse) WriteHeader(code int) { m.code = code }

// Write implements http.ResponseWriter.
func (m *memResponse) Write(b []byte) (int, error) { return m.buf.Write(b) }
