package serve

import (
	"bytes"
	"context"
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

// racySite is the README quickstart page: one form race, found at any
// seed.
const racySite = `{"name":"quick","resources":{"index.html":"<input type=\"text\" id=\"depart\" /><script>document.getElementById(\"depart\").value = \"hint\";</script>"}}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func metric(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	_, b := get(t, ts, "/metrics")
	// /metrics mixes scalar counters/gauges with histogram objects; raw
	// decode first, then parse only the scalar asked for.
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	var v int64
	if err := json.Unmarshal(m[name], &v); err != nil {
		t.Fatalf("metric %s is not scalar: %s", name, m[name])
	}
	return v
}

// TestDetectCacheHitByteIdentical is the acceptance gate: a repeated
// identical request is served from cache, byte for byte the cold run's
// response, with an observable cache-hit counter increment.
func TestDetectCacheHitByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := `{"site":` + racySite + `,"seed":1}`

	resp1, cold := post(t, ts, "/v1/detect", req)
	if resp1.StatusCode != 200 {
		t.Fatalf("cold POST: %d %s", resp1.StatusCode, cold)
	}
	if h := resp1.Header.Get("X-Webracer-Cache"); h != "miss" {
		t.Fatalf("cold X-Webracer-Cache = %q, want miss", h)
	}
	hitsBefore := metric(t, ts, "serve.cache.hits")

	resp2, warm := post(t, ts, "/v1/detect", req)
	if resp2.StatusCode != 200 {
		t.Fatalf("warm POST: %d", resp2.StatusCode)
	}
	if h := resp2.Header.Get("X-Webracer-Cache"); h != "hit" {
		t.Fatalf("warm X-Webracer-Cache = %q, want hit", h)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cache hit differs from cold run:\ncold: %s\nwarm: %s", cold, warm)
	}
	if hits := metric(t, ts, "serve.cache.hits"); hits != hitsBefore+1 {
		t.Fatalf("serve.cache.hits = %d, want %d", hits, hitsBefore+1)
	}

	// The body is a real report: one form-value race on #depart.
	var dr DetectResponse
	if err := json.Unmarshal(cold, &dr); err != nil {
		t.Fatalf("parse detect response: %v", err)
	}
	if len(dr.Races) != 1 {
		t.Fatalf("races = %+v, want exactly 1", dr.Races)
	}
	if dr.ID == "" || dr.Site != "quick" {
		t.Fatalf("bad response identity: %+v", dr)
	}
}

// TestDefaultSpellingsShareKey: a request with every default spelled out
// resolves to the same job as the bare request — the second is a hit.
func TestDefaultSpellingsShareKey(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, cold := post(t, ts, "/v1/detect", `{"site":`+racySite+`}`)
	resp, warm := post(t, ts, "/v1/detect",
		`{"site":`+racySite+`,"seed":1,"entry":"index.html","explore":true,"detector":"pairwise"}`)
	if h := resp.Header.Get("X-Webracer-Cache"); h != "hit" {
		t.Fatalf("spelled-out defaults missed the cache (%q)", h)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("bodies differ across equivalent requests")
	}
}

// TestDelayOneIgnoresSeeds: a delay-one sweep never reads seeds, so a
// body that sets it is the same job as one that does not — the second is
// a hit with the same bytes.
func TestDelayOneIgnoresSeeds(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, cold := post(t, ts, "/v1/sweep", `{"spec":{"kind":"sched","index":0},"mode":"delay-one"}`)
	resp, warm := post(t, ts, "/v1/sweep", `{"spec":{"kind":"sched","index":0},"mode":"delay-one","seeds":5}`)
	if h := resp.Header.Get("X-Webracer-Cache"); h != "hit" {
		t.Fatalf("seeds split a delay-one job (%q)", h)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("bodies differ:\n%s\n%s", cold, warm)
	}
}

// TestConcurrentIdenticalPostsCoalesce: identical requests in flight at
// once run once — single-flight — and every caller gets the same bytes.
func TestConcurrentIdenticalPostsCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	release := make(chan struct{})
	started := make(chan string, 8)
	s.jobGate = func(_ jobKind, key string) {
		started <- key
		<-release
	}

	req := `{"site":` + racySite + `,"seed":7}`
	const clients = 4
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, bodies[0] = post(t, ts, "/v1/detect", req)
	}()
	<-started // leader is in flight; followers must coalesce
	wg.Add(clients - 1)
	for i := 1; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			resp, b := post(t, ts, "/v1/detect", req)
			bodies[i] = b
			if h := resp.Header.Get("X-Webracer-Cache"); h != "coalesced" && h != "hit" {
				t.Errorf("follower %d X-Webracer-Cache = %q", i, h)
			}
		}(i)
	}
	// Followers attach before the leader finishes.
	waitUntil(t, func() bool { return metricQuiet(ts, "serve.jobs.coalesced") >= 1 })
	close(release)
	wg.Wait()

	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d got different bytes", i)
		}
	}
	if got := metric(t, ts, "serve.jobs.completed"); got != 1 {
		t.Fatalf("serve.jobs.completed = %d, want 1 (single-flight)", got)
	}
}

// TestQueueFullReturns429: with one worker held and the one queue slot
// filled, the next distinct job is refused with 429 + Retry-After.
func TestQueueFullReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	started := make(chan string, 8)
	s.jobGate = func(_ jobKind, key string) {
		started <- key
		<-release
	}
	defer close(release)

	detect := func(seed int) string {
		return fmt.Sprintf(`{"site":%s,"seed":%d,"async":true}`, racySite, seed)
	}
	if resp, b := post(t, ts, "/v1/detect", detect(1)); resp.StatusCode != 202 {
		t.Fatalf("job 1: %d %s", resp.StatusCode, b)
	}
	<-started // worker now held
	if resp, b := post(t, ts, "/v1/detect", detect(2)); resp.StatusCode != 202 {
		t.Fatalf("job 2 (queue slot): %d %s", resp.StatusCode, b)
	}
	resp, b := post(t, ts, "/v1/detect", detect(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: %d %s, want 429", resp.StatusCode, b)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := metric(t, ts, "serve.queue.rejected"); got != 1 {
		t.Fatalf("serve.queue.rejected = %d, want 1", got)
	}
}

// TestDrainFinishesInFlight: drain refuses new work with 503 but the held
// job completes, and its result remains fetchable.
func TestDrainFinishesInFlight(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release := make(chan struct{})
	started := make(chan string, 1)
	s.jobGate = func(_ jobKind, key string) {
		started <- key
		<-release
	}

	req := `{"site":` + racySite + `,"seed":3,"async":true}`
	resp, b := post(t, ts, "/v1/detect", req)
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil || st.ID == "" {
		t.Fatalf("bad 202 body %s: %v", b, err)
	}
	<-started

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitUntil(t, func() bool {
		resp, _ := get(t, ts, "/healthz")
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	if resp, _ := post(t, ts, "/v1/detect", `{"site":`+racySite+`,"seed":99}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: %d, want 503", resp.StatusCode)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) with job still held", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, b = get(t, ts, "/v1/jobs/"+st.ID)
	if resp.StatusCode != 200 {
		t.Fatalf("GET job after drain: %d", resp.StatusCode)
	}
	if err := json.Unmarshal(b, &st); err != nil || st.Status != "done" || len(st.Result) == 0 {
		t.Fatalf("drained job not completed: %s", b)
	}
}

// TestAsyncLifecycle: 202 → poll → done, with the polled result equal to
// the synchronous body for the same request.
func TestAsyncLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, b := post(t, ts, "/v1/detect", `{"site":`+racySite+`,"seed":5,"async":true}`)
	if resp.StatusCode != 202 {
		t.Fatalf("async submit: %d %s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool {
		_, jb := get(t, ts, "/v1/jobs/"+st.ID)
		_ = json.Unmarshal(jb, &st)
		return st.Status == "done"
	})
	resp, sync := post(t, ts, "/v1/detect", `{"site":`+racySite+`,"seed":5}`)
	if h := resp.Header.Get("X-Webracer-Cache"); h != "hit" {
		t.Fatalf("sync repeat after async: X-Webracer-Cache = %q, want hit", h)
	}
	// The polled result rides inside JobStatus, so the outer encoder
	// re-indents it; compare the compacted forms.
	var asyncBuf, syncBuf bytes.Buffer
	if err := json.Compact(&asyncBuf, st.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&syncBuf, sync); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(asyncBuf.Bytes(), syncBuf.Bytes()) {
		t.Fatalf("async result differs from sync body:\nasync: %s\nsync: %s", st.Result, sync)
	}
}

// TestSweepEndpoints: both sweep modes and the fault sweep respond, are
// deterministic (repeat = cache hit with equal bytes), and carry the
// expected aggregate shapes.
func TestSweepEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	cases := []struct {
		path, body string
		check      func(t *testing.T, b []byte)
	}{
		{"/v1/sweep", `{"site":` + racySite + `,"seeds":3}`, func(t *testing.T, b []byte) {
			var sr SweepResponse
			if err := json.Unmarshal(b, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Mode != "seeds" || sr.Seeds != 3 || len(sr.PerSeed) != 3 {
				t.Fatalf("sweep shape: %+v", sr)
			}
			if len(sr.Stable) != 1 {
				t.Fatalf("stable = %v, want the one race at every seed", sr.Stable)
			}
		}},
		{"/v1/sweep", `{"site":` + racySite + `,"mode":"delay-one"}`, func(t *testing.T, b []byte) {
			var sr SweepResponse
			if err := json.Unmarshal(b, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Mode != "delay-one" || sr.Runs != 2 { // baseline + 1 resource
				t.Fatalf("delay-one shape: %+v", sr)
			}
		}},
		{"/v1/faultsweep", `{"spec":{"kind":"fault","index":1},"plans":2}`, func(t *testing.T, b []byte) {
			var fr FaultSweepResponse
			if err := json.Unmarshal(b, &fr); err != nil {
				t.Fatal(err)
			}
			if fr.Sweep == nil || len(fr.Sweep.Runs) != 3 { // baseline + 2 plans
				t.Fatalf("faultsweep shape: %s", b)
			}
		}},
	}
	for i, tc := range cases {
		resp, cold := post(t, ts, tc.path, tc.body)
		if resp.StatusCode != 200 {
			t.Fatalf("case %d: %d %s", i, resp.StatusCode, cold)
		}
		tc.check(t, cold)
		resp, warm := post(t, ts, tc.path, tc.body)
		if h := resp.Header.Get("X-Webracer-Cache"); h != "hit" {
			t.Fatalf("case %d repeat: X-Webracer-Cache = %q", i, h)
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("case %d: repeat differs from cold run", i)
		}
	}
}

// TestSessionResponse: "session": true returns the full exported session
// and does not collide with the compact response's cache entry.
func TestSessionResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, compact := post(t, ts, "/v1/detect", `{"site":`+racySite+`,"seed":1}`)
	resp, full := post(t, ts, "/v1/detect", `{"site":`+racySite+`,"seed":1,"session":true}`)
	if h := resp.Header.Get("X-Webracer-Cache"); h != "miss" {
		t.Fatalf("session request hit the compact entry (%q)", h)
	}
	var sr SessionResponse
	if err := json.Unmarshal(full, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Session == nil || len(sr.Session.Ops) == 0 || len(sr.Session.Races) == 0 {
		t.Fatalf("session response missing ops/races: %s", full[:200])
	}
	if bytes.Equal(compact, full) {
		t.Fatal("session and compact bodies are identical")
	}
}

// TestPredictiveDetect: a "detector":"predictive" request over the
// schedule-dependent sched corpus runs, reports the predicted-race count,
// and caches byte-identically like any other detector — prediction is a
// pure function of (site, seed), so the determinism contract holds.
func TestPredictiveDetect(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := `{"spec":{"kind":"sched","index":0},"detector":"predictive"}`
	resp, cold := post(t, ts, "/v1/detect", req)
	if resp.StatusCode != 200 {
		t.Fatalf("predictive detect: %d %s", resp.StatusCode, cold)
	}
	resp, warm := post(t, ts, "/v1/detect", req)
	if h := resp.Header.Get("X-Webracer-Cache"); h != "hit" {
		t.Fatalf("repeat predictive request: %q, want hit", h)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("predictive repeat differs from cold run")
	}
	var dr DetectResponse
	if err := json.Unmarshal(cold, &dr); err != nil {
		t.Fatalf("parse predictive response: %v", err)
	}
	if dr.Detector != "predictive" {
		t.Errorf("detector = %q, want predictive", dr.Detector)
	}
	if dr.Predicted == 0 {
		t.Error("sched-00 run predicted no races; the corpus lost its point")
	}
	if len(dr.Races) == 0 {
		t.Error("predictive response carries no race reports")
	}

	// Other detectors never set the field — the key space keeps them apart.
	resp, base := post(t, ts, "/v1/detect", `{"spec":{"kind":"sched","index":0}}`)
	if resp.StatusCode != 200 {
		t.Fatalf("baseline detect: %d", resp.StatusCode)
	}
	var br DetectResponse
	if err := json.Unmarshal(base, &br); err != nil {
		t.Fatal(err)
	}
	if br.Predicted != 0 {
		t.Errorf("pairwise response has predicted = %d, want 0", br.Predicted)
	}
}

// TestBadRequests: every invalid shape is refused at the door with 400,
// never enqueued; unknown jobs are 404.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{}`, // no site, no spec
		`{"site":` + racySite + `,"spec":{"index":1}}`,           // both
		`{"site":` + racySite + `,"detector":"quantum"}`,         // bad detector
		`{"site":` + racySite + `,"entry":"missing.html"}`,       // bad entry
		`{"site":` + racySite + `,"tyop":1}`,                     // unknown field
		`{"site":` + racySite + `,"fault":{"perURL":{"x":"?"}}}`, // bad fault kind
		`{"spec":{"index":-1}}`,                                  // negative index
		`not json`,
	} {
		resp, _ := post(t, ts, "/v1/detect", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: %d, want 400", body, resp.StatusCode)
		}
	}
	if resp, _ := post(t, ts, "/v1/sweep", `{"site":`+racySite+`,"mode":"sideways"}`); resp.StatusCode != 400 {
		t.Error("bad sweep mode accepted")
	}
	if resp, _ := get(t, ts, "/v1/jobs/deadbeef"); resp.StatusCode != http.StatusNotFound {
		t.Error("unknown job id not 404")
	}
	if got := metric(t, ts, "serve.jobs.accepted"); got != 0 {
		t.Fatalf("invalid requests were enqueued: accepted = %d", got)
	}
}

// TestGeneratedSiteDetect: spec-generated sites run and cache like inline
// ones.
func TestGeneratedSiteDetect(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := `{"spec":{"kind":"corpus","seed":1,"index":7},"seed":42}`
	resp, cold := post(t, ts, "/v1/detect", req)
	if resp.StatusCode != 200 {
		t.Fatalf("detect: %d %s", resp.StatusCode, cold)
	}
	resp, warm := post(t, ts, "/v1/detect", req)
	if h := resp.Header.Get("X-Webracer-Cache"); h != "hit" {
		t.Fatalf("repeat: %q, want hit", h)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("generated-site repeat differs")
	}
}

// metricQuiet is metric without the test failure path, for polling.
func metricQuiet(ts *httptest.Server, name string) int64 {
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if json.NewDecoder(resp.Body).Decode(&m) != nil {
		return -1
	}
	var v int64
	if json.Unmarshal(m[name], &v) != nil {
		return -1
	}
	return v
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
