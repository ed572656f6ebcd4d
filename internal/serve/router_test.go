package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// cluster is an in-process backend fleet plus the router in front of it
// — the topology `make cluster` exercises.
type cluster struct {
	backends []*Server
	tss      []*httptest.Server
	router   *Router
	rts      *httptest.Server
}

// names returns the pinned backend identities b0..bN-1 (stable ring
// placement while httptest picks ports).
func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("b%d", i)
	}
	return out
}

// newCluster boots n backends with cfg each (StoreDir, when set, is
// suffixed per backend) and a router with rcfg in front. rcfg.Backends
// and BackendNames are filled in; BackoffBase is disabled unless the
// test set one, so batteries don't sleep.
func newCluster(t *testing.T, n int, cfg Config, rcfg RouterConfig) *cluster {
	t.Helper()
	c := &cluster{}
	for i := 0; i < n; i++ {
		bcfg := cfg
		if bcfg.StoreDir != "" {
			bcfg.StoreDir = fmt.Sprintf("%s/b%d", bcfg.StoreDir, i)
		}
		s := NewServer(bcfg)
		ts := httptest.NewServer(s.Handler())
		c.backends = append(c.backends, s)
		c.tss = append(c.tss, ts)
		rcfg.Backends = append(rcfg.Backends, ts.URL)
	}
	rcfg.BackendNames = names(n)
	if rcfg.BackoffBase == 0 {
		rcfg.BackoffBase = -1 // no retry sleeps in tests
	}
	// The router's local server runs the same config as the backends —
	// the "same resolution flags" contract from OPERATIONS.md — with its
	// own store directory when persistence is on.
	lcfg := cfg
	if lcfg.StoreDir != "" {
		lcfg.StoreDir = cfg.StoreDir + "/local"
	}
	local := NewServer(lcfg)
	c.router = NewRouter(local, rcfg)
	c.rts = httptest.NewServer(c.router.Handler())
	t.Cleanup(func() {
		c.rts.Close()
		c.router.Close()
		local.Close()
		for i, ts := range c.tss {
			ts.Close()
			c.backends[i].Close()
		}
	})
	return c
}

// detectReq builds a small deterministic detect request body.
func detectReq(idx int, seed int64) string {
	return fmt.Sprintf(`{"spec":{"kind":"corpus","index":%d},"seed":%d}`, idx, seed)
}

// TestRouterRoutesAndRelaysBackendCache: distinct jobs spread across the
// fleet, every response names its backend, and a repeat POST relays the
// backend's cache hit — the router never recomputes what a node already
// knows. Every answer declares its Content-Length, also past net/http's
// 2 KiB response buffer, so the router reads a backend's body into one
// buffer of the right size.
func TestRouterRoutesAndRelaysBackendCache(t *testing.T) {
	c := newCluster(t, 3, Config{Workers: 2}, RouterConfig{})
	used := map[string]bool{}
	longest := 0
	for i := 0; i < 8; i++ {
		resp, body := post(t, c.rts, "/v1/detect", detectReq(i, 1))
		if resp.StatusCode != 200 {
			t.Fatalf("job %d: %d %s", i, resp.StatusCode, body)
		}
		direct, _ := post(t, c.tss[0], "/v1/detect", detectReq(i, 1))
		for _, r := range []*http.Response{resp, direct} {
			if r.ContentLength != int64(len(body)) {
				t.Fatalf("job %d: Content-Length %d, body %d bytes", i, r.ContentLength, len(body))
			}
		}
		longest = max(longest, len(body))
		be := resp.Header.Get("X-Webracer-Backend")
		if !strings.HasPrefix(be, "b") {
			t.Fatalf("job %d: X-Webracer-Backend = %q", i, be)
		}
		used[be] = true

		again, warm := post(t, c.rts, "/v1/detect", detectReq(i, 1))
		if h := again.Header.Get("X-Webracer-Cache"); h != "hit" && h != "store-hit" {
			t.Fatalf("job %d repeat: X-Webracer-Cache = %q, want a cache hit", i, h)
		}
		if again.Header.Get("X-Webracer-Backend") != be {
			t.Fatalf("job %d lost backend affinity: %q then %q", i, be, again.Header.Get("X-Webracer-Backend"))
		}
		if !bytes.Equal(body, warm) {
			t.Fatalf("job %d: repeat differs from first run", i)
		}
	}
	if len(used) < 2 {
		t.Fatalf("8 keys all hashed to one backend: %v", used)
	}
	if longest <= 2048 {
		t.Fatalf("longest answer is %d bytes; the Content-Length check needs one past 2 KiB", longest)
	}
}

// TestRouterSingleFlight: identical requests in flight at the router
// coalesce into one forward and one backend execution — single-flight is
// preserved end-to-end through the distribution layer.
func TestRouterSingleFlight(t *testing.T) {
	c := newCluster(t, 3, Config{Workers: 2}, RouterConfig{})
	release := make(chan struct{})
	started := make(chan string, 8)
	for _, b := range c.backends {
		b.jobGate = func(_ jobKind, key string) {
			started <- key
			<-release
		}
	}

	req := detectReq(3, 77)
	const clients = 4
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, bodies[0] = post(t, c.rts, "/v1/detect", req)
	}()
	<-started // the one backend execution is in flight
	wg.Add(clients - 1)
	for i := 1; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			_, bodies[i] = post(t, c.rts, "/v1/detect", req)
		}(i)
	}
	waitUntil(t, func() bool { return metricQuiet(c.rts, "serve.router.coalesced") >= clients-1 })
	close(release)
	wg.Wait()

	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d got different bytes", i)
		}
	}
	total := int64(0)
	for _, b := range c.backends {
		total += b.Metrics().Counter("serve.jobs.completed").Value()
	}
	if total != 1 {
		t.Fatalf("cluster executed %d jobs for one key, want 1", total)
	}
	if got := metricQuiet(c.rts, "serve.router.forwarded"); got != 1 {
		t.Fatalf("serve.router.forwarded = %d, want 1", got)
	}
}

// TestRouterFailoverOnBackendKilledMidSweep: a real mid-sweep kill — the
// backend's listener closes between jobs — costs retries and failovers,
// never a 5xx, and every body is byte-identical to a healthy single
// node's answer.
func TestRouterFailoverOnBackendKilledMidSweep(t *testing.T) {
	// Reference: a lone healthy node.
	_, ref := newTestServer(t, Config{Workers: 2})
	var want [][]byte
	const jobs = 12
	for i := 0; i < jobs; i++ {
		resp, b := post(t, ref, "/v1/detect", detectReq(i, 5))
		if resp.StatusCode != 200 {
			t.Fatalf("reference job %d: %d", i, resp.StatusCode)
		}
		want = append(want, b)
	}

	c := newCluster(t, 3, Config{Workers: 2}, RouterConfig{})
	for i := 0; i < jobs; i++ {
		if i == jobs/4 {
			c.tss[1].Close() // kill b1 mid-sweep
		}
		resp, b := post(t, c.rts, "/v1/detect", detectReq(i, 5))
		if resp.StatusCode >= 500 {
			t.Fatalf("job %d after kill: %d %s — the cluster must absorb a dead node", i, resp.StatusCode, b)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("job %d: %d %s", i, resp.StatusCode, b)
		}
		if !bytes.Equal(b, want[i]) {
			t.Fatalf("job %d: cluster bytes differ from healthy single node", i)
		}
	}
	if got := metricQuiet(c.rts, "serve.router.retries"); got < 1 {
		t.Fatal("a mid-sweep kill cost no retries — the dead backend was never primary? raise jobs")
	}
	if got := metricQuiet(c.rts, "serve.router.failover"); got < 1 {
		t.Fatal("no failovers recorded")
	}
}

// TestRouterLocalFallback: when every candidate is dead and the attempt
// budget is spent, the router executes locally — total cluster loss
// degrades to one node's throughput, not to errors.
func TestRouterLocalFallback(t *testing.T) {
	c := newCluster(t, 1, Config{Workers: 1}, RouterConfig{Attempts: 2})
	c.tss[0].Close() // the whole "cluster" is down

	resp, body := post(t, c.rts, "/v1/detect", detectReq(2, 9))
	if resp.StatusCode != 200 {
		t.Fatalf("POST with cluster down: %d %s", resp.StatusCode, body)
	}
	if be := resp.Header.Get("X-Webracer-Backend"); be != "local" {
		t.Fatalf("X-Webracer-Backend = %q, want local", be)
	}
	if got := metricQuiet(c.rts, "serve.router.local_fallback"); got != 1 {
		t.Fatalf("serve.router.local_fallback = %d, want 1", got)
	}
	// And the bytes match a healthy node's.
	_, ref := newTestServer(t, Config{Workers: 1})
	_, want := post(t, ref, "/v1/detect", detectReq(2, 9))
	if !bytes.Equal(body, want) {
		t.Fatal("local-fallback bytes differ from a healthy node")
	}
}

// TestRouterBreaker: repeated failures open a backend's circuit (visible
// on /v1/backends), subsequent requests skip the corpse without burning
// an attempt on it, and after the cooldown a half-open probe is allowed
// through.
func TestRouterBreaker(t *testing.T) {
	c := newCluster(t, 1, Config{Workers: 1}, RouterConfig{
		Attempts:        1,
		BreakerFailures: 2,
		BreakerCooldown: 50 * time.Millisecond,
	})
	c.tss[0].Close()

	for i := 0; i < 2; i++ { // two failures trip the breaker
		if resp, _ := post(t, c.rts, "/v1/detect", detectReq(i, 11)); resp.StatusCode != 200 {
			t.Fatalf("job %d: %d", i, resp.StatusCode)
		}
	}
	if got := metricQuiet(c.rts, "serve.router.breaker_opened"); got != 1 {
		t.Fatalf("serve.router.breaker_opened = %d, want 1", got)
	}
	resp, b := get(t, c.rts, "/v1/backends")
	var br BackendsResponse
	if err := json.Unmarshal(b, &br); err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET /v1/backends: %d %v", resp.StatusCode, err)
	}
	if len(br.Backends) != 1 || !br.Backends[0].BreakerOpen || br.Backends[0].ConsecutiveFails < 2 {
		t.Fatalf("backend state: %+v, want open breaker", br.Backends)
	}

	forwardedBefore := metricQuiet(c.rts, "serve.router.forwarded")
	if resp, _ := post(t, c.rts, "/v1/detect", detectReq(2, 11)); resp.StatusCode != 200 {
		t.Fatal("open-breaker request failed")
	}
	if got := metricQuiet(c.rts, "serve.router.forwarded"); got != forwardedBefore {
		t.Fatalf("open breaker still forwarded (%d → %d)", forwardedBefore, got)
	}
	if got := metricQuiet(c.rts, "serve.router.breaker_skips"); got < 1 {
		t.Fatal("no breaker skips counted")
	}

	time.Sleep(60 * time.Millisecond) // past the cooldown: half-open
	post(t, c.rts, "/v1/detect", detectReq(3, 11))
	if got := metricQuiet(c.rts, "serve.router.forwarded"); got <= forwardedBefore {
		t.Fatal("half-open probe never went out after cooldown")
	}
}

// TestRouterRejectsBadRequestsLocally: the router resolves before it
// routes, so malformed and oversized bodies are refused at the edge —
// zero forwards, and the same 400/413 surface a single node has.
func TestRouterRejectsBadRequestsLocally(t *testing.T) {
	c := newCluster(t, 2, Config{Workers: 1, MaxBodyBytes: 512}, RouterConfig{})
	for body, want := range map[string]int{
		`{}`:       400,
		`not json`: 400,
		`{"site":` + racySite + `,"detector":"quantum"}`:                                         400,
		`{"site":{"name":"big","resources":{"index.html":"` + strings.Repeat("x", 2048) + `"}}}`: 413,
	} {
		resp, _ := post(t, c.rts, "/v1/detect", body)
		if resp.StatusCode != want {
			t.Errorf("body %.40q: %d, want %d", body, resp.StatusCode, want)
		}
	}
	if got := metricQuiet(c.rts, "serve.router.forwarded"); got != 0 {
		t.Fatalf("bad requests were forwarded: %d", got)
	}
}

// TestRouterAsyncAndJobPolling: async submissions route, and GET
// /v1/jobs/{id} follows the same consistent hash to find the job's
// backend; the polled result equals the synchronous body.
func TestRouterAsyncAndJobPolling(t *testing.T) {
	c := newCluster(t, 3, Config{Workers: 2}, RouterConfig{})
	resp, b := post(t, c.rts, "/v1/detect", `{"spec":{"kind":"corpus","index":4},"seed":2,"async":true}`)
	if resp.StatusCode != 202 {
		t.Fatalf("async submit: %d %s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil || st.ID == "" {
		t.Fatalf("bad 202 body %s: %v", b, err)
	}
	waitUntil(t, func() bool {
		_, jb := get(t, c.rts, "/v1/jobs/"+st.ID)
		_ = json.Unmarshal(jb, &st)
		return st.Status == "done"
	})
	_, sync := post(t, c.rts, "/v1/detect", `{"spec":{"kind":"corpus","index":4},"seed":2}`)
	var asyncBuf, syncBuf bytes.Buffer
	if err := json.Compact(&asyncBuf, st.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&syncBuf, sync); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(asyncBuf.Bytes(), syncBuf.Bytes()) {
		t.Fatal("polled result differs from sync body")
	}
	if resp, _ := get(t, c.rts, "/v1/jobs/deadbeef"); resp.StatusCode != http.StatusNotFound {
		t.Fatal("unknown job id at the router not 404")
	}
}

// TestRouterHealthProbesDriveBreakers: active health probing marks a
// dead backend unhealthy (visible on /v1/backends) without any client
// request paying to find out.
func TestRouterHealthProbesDriveBreakers(t *testing.T) {
	c := newCluster(t, 2, Config{Workers: 1}, RouterConfig{
		BreakerFailures: 1,
		HealthInterval:  10 * time.Millisecond,
	})
	c.tss[0].Close()
	waitUntil(t, func() bool {
		_, b := get(t, c.rts, "/v1/backends")
		var br BackendsResponse
		if json.Unmarshal(b, &br) != nil || len(br.Backends) != 2 {
			return false
		}
		return !br.Backends[0].Healthy && br.Backends[1].Healthy
	})
	waitUntil(t, func() bool { return metricQuiet(c.rts, "serve.router.healthy") == 1 })
}

// TestRouterSharedStoreServesLocally: a router whose local server mounts
// a warm store answers from disk without touching the cluster — the
// "rsync a store to a new region" path.
func TestRouterSharedStoreServesLocally(t *testing.T) {
	dir := t.TempDir()
	// Warm the store on a standalone node.
	s1 := NewServer(Config{Workers: 1, StoreDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	req := detectReq(6, 13)
	_, want := post(t, ts1, "/v1/detect", req)
	ts1.Close()
	s1.Close()

	// A router in front of an empty cluster, local server on that store.
	backend := NewServer(Config{Workers: 1})
	bts := httptest.NewServer(backend.Handler())
	defer func() { bts.Close(); backend.Close() }()
	local := NewServer(Config{Workers: 1, StoreDir: dir})
	rt := NewRouter(local, RouterConfig{Backends: []string{bts.URL}, BackendNames: []string{"b0"}, BackoffBase: -1})
	rts := httptest.NewServer(rt.Handler())
	defer func() { rts.Close(); rt.Close(); local.Close() }()

	resp, got := post(t, rts, "/v1/detect", req)
	if h := resp.Header.Get("X-Webracer-Cache"); h != "hit" && h != "store-hit" {
		t.Fatalf("X-Webracer-Cache = %q, want a local cache answer", h)
	}
	if be := resp.Header.Get("X-Webracer-Backend"); be != "local" {
		t.Fatalf("X-Webracer-Backend = %q, want local", be)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("store-served bytes differ from the node that wrote them")
	}
	if fw := metricQuiet(rts, "serve.router.forwarded"); fw != 0 {
		t.Fatalf("warm key was forwarded %d times", fw)
	}
}

// TestRouterGateRepeatSkipsParse: the router parses a backend's first 200
// answer for a request in full; a repeat answered with the same bytes is
// checked by its digest alone. Other requests still get the full gate.
func TestRouterGateRepeatSkipsParse(t *testing.T) {
	c := newCluster(t, 1, Config{Workers: 1}, RouterConfig{})
	first := postReply(t, c.rts, "/v1/detect", detectReq(2, 5))
	if first.code != 200 || c.router.validations.Load() != 1 {
		t.Fatalf("first: %d after %d validations, want 200 after 1", first.code, c.router.validations.Load())
	}
	for i := 0; i < 3; i++ {
		again := postReply(t, c.rts, "/v1/detect", detectReq(2, 5))
		if again.cache != "hit" || !bytes.Equal(again.body, first.body) || c.router.validations.Load() != 1 {
			t.Fatalf("repeat %d: %q after %d validations, want the same bytes after 1", i, again.cache, c.router.validations.Load())
		}
	}
	postReply(t, c.rts, "/v1/detect", detectReq(3, 5))
	if c.router.validations.Load() != 2 {
		t.Fatalf("another request: %d validations, want 2", c.router.validations.Load())
	}
}

// TestRouterGateCorruptAfterValidated: once a request's answer is
// remembered, a corrupted copy of it has another digest, so it takes the
// full gate, is rejected and retried on the next backend, whose answer
// (the same bytes) passes by digest.
func TestRouterGateCorruptAfterValidated(t *testing.T) {
	c := newCluster(t, 2, Config{Workers: 1}, RouterConfig{BreakerFailures: -1})
	req := detectReq(2, 5)
	first := postReply(t, c.rts, "/v1/detect", req)
	if first.code != 200 || c.router.validations.Load() != 1 {
		t.Fatalf("first: %d after %d validations", first.code, c.router.validations.Load())
	}
	// A plan that corrupts the owner's first attempt and spares the
	// second backend's.
	cands := c.router.candidates(first.job)
	var plan *ChaosPlan
	for seed := int64(0); plan == nil; seed++ {
		p := &ChaosPlan{Seed: seed, CorruptProb: 0.5}
		if p.decide(cands[0].name, first.job, 0) == ChaosCorrupt && p.decide(cands[1].name, first.job, 1) == ChaosNone {
			plan = p
		}
	}
	c.router.cfg.Chaos = plan

	resp, body := post(t, c.rts, "/v1/detect", req)
	if resp.StatusCode != 200 || !bytes.Equal(body, first.body) || resp.Header.Get(HeaderBackend) != cands[1].name {
		t.Fatalf("under corruption: %d from %q, want the first bytes from %s",
			resp.StatusCode, resp.Header.Get(HeaderBackend), cands[1].name)
	}
	if got := metric(t, c.rts, "serve.router.corrupt"); got != 1 {
		t.Fatalf("serve.router.corrupt = %d, want 1", got)
	}
	if got := metric(t, c.rts, "serve.router.failover"); got != 1 {
		t.Fatalf("serve.router.failover = %d, want 1", got)
	}
	if got := c.router.validations.Load(); got != 2 {
		t.Fatalf("%d validations, want 2: the corrupt body parsed, the retry's bytes matched the digest", got)
	}
}

// TestRouterGate202AlwaysValidated: a 202 job status changes as its job
// runs, so every one takes the full gate and none becomes a request's
// remembered answer; the first 200 for the same bytes is parsed too.
func TestRouterGate202AlwaysValidated(t *testing.T) {
	c := newCluster(t, 1, Config{Workers: 1}, RouterConfig{})
	backend := c.backends[0]
	release := make(chan struct{})
	backend.mu.Lock()
	backend.jobGate = func(jobKind, string) { <-release }
	backend.mu.Unlock()
	async := `{"spec":{"kind":"corpus","index":7},"seed":4,"async":true}`

	for i := 1; i <= 2; i++ {
		if r := postReply(t, c.rts, "/v1/detect", async); r.code != 202 {
			t.Fatalf("async %d: %d %s", i, r.code, r.body)
		}
		if got := c.router.validations.Load(); got != int64(i) {
			t.Fatalf("after %d 202 answers: %d validations", i, got)
		}
	}
	close(release)
	waitUntil(t, func() bool { return metricQuiet(c.tss[0], "serve.jobs.completed") == 1 })
	for i, want := range []int64{3, 3} {
		if r := postReply(t, c.rts, "/v1/detect", async); r.code != 200 {
			t.Fatalf("async once done, %d: %d %s", i, r.code, r.body)
		}
		if got := c.router.validations.Load(); got != want {
			t.Fatalf("async once done, %d: %d validations, want %d", i, got, want)
		}
	}
}

// TestRouterJobStatusGate: the router's GET /v1/jobs/{id} puts a
// backend's 2xx body through the integrity gate. Broken JSON or another
// job's status counts as corrupt and the next backend is asked; when none
// answers soundly, the router's own job table does (404 here).
func TestRouterJobStatusGate(t *testing.T) {
	stub := func(body string) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, body)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	routerFor := func(tss ...*httptest.Server) (*Router, *httptest.Server) {
		var urls []string
		for _, ts := range tss {
			urls = append(urls, ts.URL)
		}
		local := NewServer(Config{Workers: 1})
		rt := NewRouter(local, RouterConfig{Backends: urls, BackendNames: names(len(tss)), BreakerFailures: -1})
		rts := httptest.NewServer(rt.Handler())
		t.Cleanup(func() { rts.Close(); rt.Close(); local.Close() })
		return rt, rts
	}
	// An id whose ring owner is b0 of two backends.
	probe, _ := routerFor(stub(""), stub(""))
	var id string
	for i := 0; id == ""; i++ {
		if k := fmt.Sprintf("%064x", i); probe.candidates(k)[0].name == "b0" {
			id = k
		}
	}
	good := `{"id":"` + id + `","kind":"detect","status":"done","result":{"id":"` + id + `"}}`
	for _, bad := range []struct{ name, body string }{
		{"broken", `{"id":"` + id + `","status":"do`},
		{"foreign", `{"id":"` + strings.Repeat("0", 64) + `","kind":"detect","status":"done"}`},
	} {
		t.Run(bad.name, func(t *testing.T) {
			rt, rts := routerFor(stub(bad.body), stub(good))
			resp, body := get(t, rts, "/v1/jobs/"+id)
			if resp.StatusCode != 200 || string(body) != good {
				t.Fatalf("bad owner, good successor: %d %s", resp.StatusCode, body)
			}
			if got := metric(t, rts, "serve.router.corrupt"); got != 1 || rt.validations.Load() != 2 {
				t.Fatalf("serve.router.corrupt = %d after %d validations, want 1 after 2", got, rt.validations.Load())
			}

			_, rts = routerFor(stub(bad.body), stub(bad.body))
			if resp, body := get(t, rts, "/v1/jobs/"+id); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("no sound backend: %d %s, want the local 404", resp.StatusCode, body)
			}
		})
	}
}
