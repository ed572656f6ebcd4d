package serve

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"webracer/internal/mem"
	"webracer/internal/op"
	"webracer/internal/race"
)

// memoReply is what a client sees of one POST: everything a memo hit must
// reproduce.
type memoReply struct {
	code       int
	job, cache string
	body       []byte
}

// postReply POSTs body to path on ts and captures the reply.
func postReply(t *testing.T, ts *httptest.Server, path, body string) memoReply {
	t.Helper()
	resp, b := post(t, ts, path, body)
	return memoReply{resp.StatusCode, resp.Header.Get(HeaderJob), resp.Header.Get(HeaderCache), b}
}

// serveReply sends body to h in-process and captures the reply.
func serveReply(h http.Handler, path string, body []byte) memoReply {
	hr := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, hr)
	return memoReply{w.Code, w.Header().Get(HeaderJob), w.Header().Get(HeaderCache), w.Body.Bytes()}
}

// sameReply fails t unless a and b agree in status, job key, cache state
// and bytes.
func sameReply(t *testing.T, what string, a, b memoReply) {
	t.Helper()
	if a.code != b.code || a.job != b.job || a.cache != b.cache || !bytes.Equal(a.body, b.body) {
		t.Fatalf("%s: replies differ:\n%d %s %q %s\n%d %s %q %s", what,
			a.code, a.job, a.cache, a.body, b.code, b.job, b.cache, b.body)
	}
}

// forget empties s's request memo, so the next request of any bytes takes
// the decode path — the reference a memo hit is compared against.
func forget(s *Server) {
	m := s.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ll.Init()
	m.items = map[bodyKey]*list.Element{}
}

// memoLen is the number of requests s remembers.
func memoLen(s *Server) int {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return s.memo.ll.Len()
}

// TestMemoRepeatSkipsDecode: a computed result remembers no request; the
// first repeat of the same bytes decodes and is answered from the cache,
// which remembers them, and every later repeat is answered without a
// decode. Its reply equals the decode path's reply: status,
// X-Webracer-Job, X-Webracer-Cache and bytes.
func TestMemoRepeatSkipsDecode(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	req := `{"site":` + racySite + `,"seed":3}`

	first := postReply(t, ts, "/v1/detect", req)
	if first.code != 200 || first.cache != "miss" {
		t.Fatalf("first: %d %q %s", first.code, first.cache, first.body)
	}
	if got := s.decodes.Load(); got != 1 || memoLen(s) != 0 {
		t.Fatalf("after the first submission: %d decodes, memo %d, want 1 and 0", got, memoLen(s))
	}
	decoded := postReply(t, ts, "/v1/detect", req)
	if got := s.decodes.Load(); got != 2 || memoLen(s) != 1 {
		t.Fatalf("after the first repeat: %d decodes, memo %d, want 2 and 1", got, memoLen(s))
	}
	if decoded.code != first.code || decoded.job != first.job || !bytes.Equal(decoded.body, first.body) {
		t.Fatalf("repeat differs from the first submission:\n%+v\n%+v", decoded, first)
	}
	for i := 0; i < 2; i++ {
		sameReply(t, "memo hit vs decode path", decoded, postReply(t, ts, "/v1/detect", req))
		if got := s.decodes.Load(); got != 2 {
			t.Fatalf("decodes after later repeats = %d, want 2 (memo hits)", got)
		}
	}
	if got := metric(t, ts, "serve.cache.hits"); got != 3 {
		t.Fatalf("serve.cache.hits = %d, want 3 (a memo hit counts as a cache hit)", got)
	}
	// A poll finds the result where the memo hit found it.
	_, st := get(t, ts, "/v1/jobs/"+first.job)
	var js JobStatus
	if err := json.Unmarshal(st, &js); err != nil || js.Status != "done" || js.ID != first.job {
		t.Fatalf("job status after memo hits: %s (%v)", st, err)
	}
}

// TestMemoColdTrafficRemembersNothing: a node whose traffic never repeats
// holds no memo entry, however many results it caches.
func TestMemoColdTrafficRemembersNothing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	const n = 6
	for i := 0; i < n; i++ {
		if r := postReply(t, ts, "/v1/detect", detectReq(i%3+1, int64(i+1))); r.code != 200 || r.cache != "miss" {
			t.Fatalf("job %d: %d %q, want a cold run", i, r.code, r.cache)
		}
	}
	if s.cache.Len() != n || memoLen(s) != 0 {
		t.Fatalf("%d results cached, memo holds %d, want %d and 0", s.cache.Len(), memoLen(s), n)
	}
}

// TestMemoEndpointsDistinct: the same bytes posted to /v1/detect and
// /v1/sweep are two jobs; neither endpoint answers from the other's memo
// entry.
func TestMemoEndpointsDistinct(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	req := `{"spec":{"index":1},"seed":7,"seeds":2}`
	det := postReply(t, ts, "/v1/detect", req)
	postReply(t, ts, "/v1/detect", req) // remembered now
	before := s.decodes.Load()
	sw := postReply(t, ts, "/v1/sweep", req)
	if s.decodes.Load() != before+1 {
		t.Fatal("/v1/sweep answered from /v1/detect's memo entry")
	}
	if sw.code != 200 || sw.cache != "miss" || sw.job == det.job {
		t.Fatalf("sweep: %d %q job %s (detect job %s)", sw.code, sw.cache, sw.job, det.job)
	}
	postReply(t, ts, "/v1/sweep", req) // remembered now
	again := postReply(t, ts, "/v1/sweep", req)
	if s.decodes.Load() != before+2 || again.job != sw.job || !bytes.Equal(again.body, sw.body) {
		t.Fatalf("sweep repeats: job %s, %d decodes", again.job, s.decodes.Load()-before)
	}
	if d := postReply(t, ts, "/v1/detect", req); d.job != det.job || !bytes.Equal(d.body, det.body) {
		t.Fatal("detect repeat lost its job")
	}
}

// TestMemoEquivalentBodySameKey: bytes that differ but mean the same
// request (fields reordered) miss the memo, decode, and reach the same key
// and cached bytes. The cached result answers them, so they are
// remembered; the first spelling, which only computed the result, is
// remembered once it too is answered from the cache.
func TestMemoEquivalentBodySameKey(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	first, reordered := `{"spec":{"index":3},"seed":5}`, `{"seed":5,"spec":{"index":3}}`
	a := postReply(t, ts, "/v1/detect", first)
	b := postReply(t, ts, "/v1/detect", reordered)
	if s.decodes.Load() != 2 {
		t.Fatalf("decodes = %d, want 2: reordered bytes must decode", s.decodes.Load())
	}
	if b.cache != "hit" || b.job != a.job || !bytes.Equal(a.body, b.body) {
		t.Fatalf("reordered body: %q job %s, want a hit on %s", b.cache, b.job, a.job)
	}
	sameReply(t, "reordered memo hit", b, postReply(t, ts, "/v1/detect", reordered))
	if s.decodes.Load() != 2 || memoLen(s) != 1 {
		t.Fatalf("decodes %d, memo %d: the reordered spelling should be remembered", s.decodes.Load(), memoLen(s))
	}
	sameReply(t, "first spelling from the cache", b, postReply(t, ts, "/v1/detect", first))
	if s.decodes.Load() != 3 || memoLen(s) != 2 {
		t.Fatalf("decodes %d, memo %d: the first spelling should decode once more", s.decodes.Load(), memoLen(s))
	}
	sameReply(t, "first spelling's memo hit", b, postReply(t, ts, "/v1/detect", first))
	if s.decodes.Load() != 3 {
		t.Fatalf("decodes %d: both spellings should be remembered", s.decodes.Load())
	}
}

// TestMemoEvictedResult: a remembered request whose result left the LRU
// stays remembered. With a store, its repeat is served as a store hit
// without a decode; with the store off it decodes and is re-run. Both give
// identical bytes.
func TestMemoEvictedResult(t *testing.T) {
	reqA, reqB := storeReqA, storeReqB
	budget, ra := oneResultBudget(t)

	for _, withStore := range []bool{true, false} {
		t.Run(fmt.Sprintf("store=%v", withStore), func(t *testing.T) {
			cfg := Config{Workers: 1, CacheBytes: budget}
			want, decodes := "miss", int64(4)
			if withStore {
				cfg.StoreDir, want, decodes = t.TempDir(), "store-hit", 3
			}
			s, ts := newTestServer(t, cfg)
			postReply(t, ts, "/v1/detect", reqA)
			if r := postReply(t, ts, "/v1/detect", reqA); r.cache != "hit" || s.decodes.Load() != 2 {
				t.Fatalf("first repeat: %q after %d decodes, want a hit after 2", r.cache, s.decodes.Load())
			}
			if r := postReply(t, ts, "/v1/detect", reqA); r.cache != "hit" || s.decodes.Load() != 2 {
				t.Fatalf("second repeat: %q after %d decodes, want a memo hit", r.cache, s.decodes.Load())
			}
			postReply(t, ts, "/v1/detect", reqB) // evicts A
			if withStore {
				waitUntil(t, func() bool { return metricQuiet(ts, "serve.store.puts") >= 2 })
			}
			if memoLen(s) != 1 {
				t.Fatalf("memo holds %d requests after the eviction, want 1 (A)", memoLen(s))
			}
			got := postReply(t, ts, "/v1/detect", reqA)
			if got.cache != want || s.decodes.Load() != decodes {
				t.Fatalf("after eviction: %q after %d decodes, want %q after %d", got.cache, s.decodes.Load(), want, decodes)
			}
			if got.code != 200 || got.job != ra.job || !bytes.Equal(got.body, ra.body) {
				t.Fatal("evicted result came back with different bytes")
			}
		})
	}
}

// TestMemoStoreRestart: on a store node restarted on its directory, whose
// LRU holds one result, a request answered from the LRU is remembered, so
// after a store hit evicts its result its repeat is a store hit without a
// decode.
func TestMemoStoreRestart(t *testing.T) {
	budget, _ := oneResultBudget(t)
	dir := t.TempDir()
	s1 := NewServer(Config{Workers: 1, StoreDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	ra, rb := postReply(t, ts1, "/v1/detect", storeReqA), postReply(t, ts1, "/v1/detect", storeReqB)
	ts1.Close()
	s1.Close()

	s, ts := newTestServer(t, Config{Workers: 1, CacheBytes: budget, StoreDir: dir})
	// Recovery leaves one of the two results in the LRU; call it A.
	reqA, reqB, wantA := storeReqA, storeReqB, ra
	if _, ok := s.cache.peek(ra.job); !ok {
		reqA, reqB, wantA = storeReqB, storeReqA, rb
	}
	if r := postReply(t, ts, "/v1/detect", reqA); r.cache != "hit" || s.decodes.Load() != 1 {
		t.Fatalf("A: %q after %d decodes, want an LRU hit after 1", r.cache, s.decodes.Load())
	}
	if r := postReply(t, ts, "/v1/detect", reqB); r.cache != "store-hit" || s.decodes.Load() != 2 {
		t.Fatalf("B: %q after %d decodes, want a store hit after 2", r.cache, s.decodes.Load())
	}
	got := postReply(t, ts, "/v1/detect", reqA)
	if got.cache != "store-hit" || s.decodes.Load() != 2 {
		t.Fatalf("A again: %q after %d decodes, want a store hit after 2", got.cache, s.decodes.Load())
	}
	if got.code != 200 || got.job != wantA.job || !bytes.Equal(got.body, wantA.body) {
		t.Fatal("A's store hit differs from its first reply")
	}
	if n := metric(t, ts, "serve.jobs.completed"); n != 0 {
		t.Fatalf("restarted node ran %d jobs, want 0", n)
	}
}

// cacheCost is the LRU charge of one reply's result.
func cacheCost(r memoReply) int64 { return int64(len(r.job)+len(r.body)) + entryOverhead }

// storeReqA and storeReqB are the store-memo tests' two jobs; an LRU of
// oneResultBudget holds either result but not both.
const (
	storeReqA = `{"spec":{"index":4},"seed":2}`
	storeReqB = `{"spec":{"index":5},"seed":2}`
)

// oneResultBudget is an LRU budget that holds storeReqA's or storeReqB's
// result but not both, and A's reply from a fresh node.
func oneResultBudget(t *testing.T) (int64, memoReply) {
	t.Helper()
	_, ref := newTestServer(t, Config{Workers: 1})
	ra, rb := postReply(t, ref, "/v1/detect", storeReqA), postReply(t, ref, "/v1/detect", storeReqB)
	return max(cacheCost(ra), cacheCost(rb)), ra
}

// storedNode boots a store node whose LRU holds one result (cfg's other
// fields kept), computes storeReqA and then storeReqB, and waits until
// both are persisted. Then it repeats each once, so a store hit answers
// it and the memo remembers it. A's result is then in the store only. It
// returns A's fresh-node reply.
func storedNode(t *testing.T, cfg Config) (*Server, *httptest.Server, memoReply) {
	t.Helper()
	budget, ra := oneResultBudget(t)
	cfg.Workers, cfg.CacheBytes, cfg.StoreDir = 1, budget, t.TempDir()
	s, ts := newTestServer(t, cfg)
	postReply(t, ts, "/v1/detect", storeReqA)
	postReply(t, ts, "/v1/detect", storeReqB) // evicts A
	waitUntil(t, func() bool { return metricQuiet(ts, "serve.store.puts") == 2 })
	for _, req := range []string{storeReqA, storeReqB} {
		if r := postReply(t, ts, "/v1/detect", req); r.cache != "store-hit" {
			t.Fatalf("repeat: %q, want store-hit", r.cache)
		}
	}
	if memoLen(s) != 2 {
		t.Fatalf("memo holds %d requests, want 2", memoLen(s))
	}
	return s, ts, ra
}

// cacheCounters is s's serve.cache.* and serve.store.* metrics.
func cacheCounters(s *Server) map[string]int64 {
	out := map[string]int64{}
	for k, v := range s.Metrics().Snapshot() {
		if strings.HasPrefix(k, "serve.cache.") || strings.HasPrefix(k, "serve.store.") {
			out[k] = v
		}
	}
	return out
}

// counterDelta is after minus before, name by name, with zero moves left
// out; fmt prints it in name order.
func counterDelta(before, after map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// sameDelta fails t unless two counter moves agree.
func sameDelta(t *testing.T, what string, a, b map[string]int64) {
	t.Helper()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("%s: counters moved differently:\n%v\n%v", what, a, b)
	}
}

// corruptStored flips a byte in the middle of key's store entry.
func corruptStored(t *testing.T, s *Server, key string) {
	t.Helper()
	path := filepath.Join(s.Store().Dir(), key)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMemoStoreSurvivesEviction: a remembered request whose result is in
// the store keeps being answered without a decode however often the LRU
// evicts its result, with the bytes a fresh node computes.
func TestMemoStoreSurvivesEviction(t *testing.T) {
	s, ts, ra := storedNode(t, Config{})
	for i := 0; i < 3; i++ {
		got := postReply(t, ts, "/v1/detect", storeReqA) // evicts B
		if got.code != 200 || got.cache != "store-hit" || got.job != ra.job || !bytes.Equal(got.body, ra.body) {
			t.Fatalf("round %d: %d %q job %s, want A's bytes as a store hit", i, got.code, got.cache, got.job)
		}
		if b := postReply(t, ts, "/v1/detect", storeReqB); b.cache != "store-hit" {
			t.Fatalf("round %d: B answered %q, want store-hit", i, b.cache)
		}
		if s.decodes.Load() != 4 {
			t.Fatalf("round %d: %d decodes, want 4 (the first submissions and repeats only)", i, s.decodes.Load())
		}
	}
	if got := metric(t, ts, "serve.jobs.completed"); got != 2 {
		t.Fatalf("serve.jobs.completed = %d, want 2: store hits never re-run", got)
	}
}

// TestMemoStoreMatchesDecodePath: a memo answer from the store equals
// the decode path's answer for the same state in status, X-Webracer-Job,
// X-Webracer-Cache, bytes, the job's poll answer and every serve.cache.*
// and serve.store.* metric it moves.
func TestMemoStoreMatchesDecodePath(t *testing.T) {
	// One job record kept: each poll for A is answered from the store.
	s, ts, _ := storedNode(t, Config{JobHistory: 1})

	c0, d0 := cacheCounters(s), s.decodes.Load()
	viaMemo := postReply(t, ts, "/v1/detect", storeReqA)
	c1, d1 := cacheCounters(s), s.decodes.Load()
	_, stMemo := get(t, ts, "/v1/jobs/"+viaMemo.job)
	if d1 != d0 || viaMemo.cache != "store-hit" {
		t.Fatalf("store memo: %q after %d decodes, want a store hit after none", viaMemo.cache, d1-d0)
	}

	postReply(t, ts, "/v1/detect", storeReqB) // evicts A and prunes A's record, from the memo
	forget(s)
	c2 := cacheCounters(s)
	viaDecode := postReply(t, ts, "/v1/detect", storeReqA)
	c3 := cacheCounters(s)
	_, stDecode := get(t, ts, "/v1/jobs/"+viaDecode.job)
	if s.decodes.Load() != d1+1 {
		t.Fatalf("decode path: %d decodes, want 1", s.decodes.Load()-d1)
	}
	sameReply(t, "store memo vs decode path", viaMemo, viaDecode)
	sameDelta(t, "store memo vs decode path", counterDelta(c0, c1), counterDelta(c2, c3))
	if !bytes.Equal(stMemo, stDecode) {
		t.Fatalf("job poll answers differ:\n%s\n%s", stMemo, stDecode)
	}
}

// TestMemoStoreQuarantineFallsBack: when the store has lost a remembered
// request's result (its entry is corrupt and gets quarantined), the memo
// path falls back to the decode and re-runs the job, exactly as the decode
// path does for the same state.
func TestMemoStoreQuarantineFallsBack(t *testing.T) {
	s, ts, ra := storedNode(t, Config{})

	corruptStored(t, s, ra.job)
	c0, d0 := cacheCounters(s), s.decodes.Load()
	viaMemo := postReply(t, ts, "/v1/detect", storeReqA)
	waitUntil(t, func() bool { return metricQuiet(ts, "serve.store.puts") == 3 })
	c1 := cacheCounters(s)
	if viaMemo.code != 200 || viaMemo.cache != "miss" || !bytes.Equal(viaMemo.body, ra.body) {
		t.Fatalf("after quarantine: %d %q, want a re-run with A's bytes", viaMemo.code, viaMemo.cache)
	}
	if s.decodes.Load() != d0+1 || c1["serve.store.quarantined"] != 1 {
		t.Fatalf("%d decodes, %d quarantined, want 1 and 1", s.decodes.Load()-d0, c1["serve.store.quarantined"])
	}

	postReply(t, ts, "/v1/detect", storeReqB) // evicts A again
	corruptStored(t, s, ra.job)
	forget(s)
	c2 := cacheCounters(s)
	viaDecode := postReply(t, ts, "/v1/detect", storeReqA)
	waitUntil(t, func() bool { return metricQuiet(ts, "serve.store.puts") == 4 })
	c3 := cacheCounters(s)
	sameReply(t, "quarantine: store memo vs decode path", viaMemo, viaDecode)
	sameDelta(t, "quarantine: store memo vs decode path", counterDelta(c0, c1), counterDelta(c2, c3))
}

// TestMemoStoreBounded: a store node's request memo holds at most
// routeMemoCap requests, forgetting the least recently used first, and
// never a zero body key.
func TestMemoStoreBounded(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, StoreDir: t.TempDir()})
	m := s.memo
	bk := func(i int) bodyKey { return newBodyKey(kindDetect, []byte(fmt.Sprint(i))) }
	for i := 0; i < routeMemoCap+10; i++ {
		m.put(bk(i), fmt.Sprint("k", i), false)
		if n := memoLen(s); n > routeMemoCap {
			t.Fatalf("memo holds %d requests, cap %d", n, routeMemoCap)
		}
	}
	if _, _, ok := m.get(bk(9)); ok {
		t.Fatal("the least recently used request survived past the cap")
	}
	if key, _, ok := m.get(bk(routeMemoCap + 9)); !ok || key != fmt.Sprint("k", routeMemoCap+9) {
		t.Fatal("the latest request was not remembered")
	}
	m.put(bodyKey{}, "k", false) // a request resolved without its bytes
	if _, _, ok := m.get(bodyKey{}); ok {
		t.Fatal("a zero body key was remembered")
	}
}

// TestMemoRouterLRUBound: the memo a router shares with its local server
// holds at most routeMemoCap requests, forgetting the least recently used
// first.
func TestMemoRouterLRUBound(t *testing.T) {
	c := newCluster(t, 1, Config{Workers: 1}, RouterConfig{})
	m := c.router.local.memo
	bk := func(i int) bodyKey { return newBodyKey(kindSweep, []byte(fmt.Sprint(i))) }
	for i := 0; i < routeMemoCap; i++ {
		m.put(bk(i), fmt.Sprint("k", i), i%2 == 0)
	}
	m.get(bk(0)) // most recently used now; bk(1) is the oldest
	for i := routeMemoCap; i < routeMemoCap+10; i++ {
		m.put(bk(i), fmt.Sprint("k", i), false)
	}
	if m.ll.Len() != routeMemoCap || len(m.items) != routeMemoCap {
		t.Fatalf("memo holds %d/%d entries, want %d", m.ll.Len(), len(m.items), routeMemoCap)
	}
	if key, async, ok := m.get(bk(0)); !ok || key != "k0" || !async {
		t.Fatalf("recently used entry lost: %q %v %v", key, async, ok)
	}
	for i := 1; i <= 10; i++ {
		if _, _, ok := m.get(bk(i)); ok {
			t.Fatalf("entry %d survived past the cap", i)
		}
	}
}

// TestMemoDrainingAnswers503: a draining server answers a remembered
// request exactly as it answers any other: 503 with the job's key.
func TestMemoDrainingAnswers503(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	req := detectReq(6, 1)
	first := postReply(t, ts, "/v1/detect", req)
	postReply(t, ts, "/v1/detect", req)
	if memoLen(s) != 1 {
		t.Fatal("request not remembered")
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := postReply(t, ts, "/v1/detect", req)
	if got.code != http.StatusServiceUnavailable || got.job != first.job {
		t.Fatalf("draining: %d job %s, want 503 for %s", got.code, got.job, first.job)
	}
	forget(s)
	sameReply(t, "draining memo vs decode path", got, postReply(t, ts, "/v1/detect", req))
}

// TestMemoRejectedNotRemembered: 400 and 413 bodies are never remembered —
// each repeat of a bad body decodes again (or, oversized, never decodes)
// and gets the same error.
func TestMemoRejectedNotRemembered(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 1 << 10})
	for _, body := range []string{
		`{"spec":`,                               // malformed JSON
		`{"spec":{"index":1},"bogus":1}`,         // unknown field
		`{"spec":{"index":1}} {}`,                // trailing data
		`{"spec":{"index":1},"detector":"nope"}`, // resolve rejects
	} {
		before := s.decodes.Load()
		a, b := postReply(t, ts, "/v1/detect", body), postReply(t, ts, "/v1/detect", body)
		if a.code != 400 || s.decodes.Load() != before+2 {
			t.Fatalf("%s: %d after %d decodes, want 400 after 2", body, a.code, s.decodes.Load()-before)
		}
		sameReply(t, body, a, b)
	}
	before := s.decodes.Load()
	big := `{"pad":"` + strings.Repeat("x", 2<<10) + `"}`
	a, b := postReply(t, ts, "/v1/detect", big), postReply(t, ts, "/v1/detect", big)
	if a.code != http.StatusRequestEntityTooLarge || s.decodes.Load() != before {
		t.Fatalf("oversized: %d after %d decodes, want 413 before any decode", a.code, s.decodes.Load()-before)
	}
	sameReply(t, "oversized", a, b)
	if memoLen(s) != 0 {
		t.Fatalf("memo holds %d rejected requests", memoLen(s))
	}
}

// TestMemoAsyncAndSync: async and sync spellings of one job keep their
// 202/200 behaviour. An async request is 202 while its job is in flight
// (coalesced repeats included) and 200 with the cached bytes once it is
// done — from the memo, without a decode, after its first such answer.
func TestMemoAsyncAndSync(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	s.jobGate = func(jobKind, string) { <-release }
	async := `{"spec":{"index":7},"seed":4,"async":true}`
	syncReq := `{"spec":{"index":7},"seed":4}`

	a1 := postReply(t, ts, "/v1/detect", async)
	a2 := postReply(t, ts, "/v1/detect", async)
	if a1.code != 202 || a1.cache != "miss" || a2.code != 202 || a2.cache != "coalesced" || a2.job != a1.job {
		t.Fatalf("in flight: %d %q, %d %q", a1.code, a1.cache, a2.code, a2.cache)
	}
	close(release)
	waitUntil(t, func() bool { return metricQuiet(ts, "serve.jobs.completed") == 1 })

	decodes := s.decodes.Load()
	a3 := postReply(t, ts, "/v1/detect", async)
	if a3.code != 200 || a3.cache != "hit" || s.decodes.Load() != decodes+1 {
		t.Fatalf("async repeat once done: %d %q after %d decodes, want a 200 hit after 1",
			a3.code, a3.cache, s.decodes.Load()-decodes)
	}
	a4 := postReply(t, ts, "/v1/detect", async)
	if s.decodes.Load() != decodes+1 {
		t.Fatalf("async repeat: %d decodes, want a memo hit", s.decodes.Load()-decodes-1)
	}
	sameReply(t, "async memo hit vs decode path", a3, a4)
	s1 := postReply(t, ts, "/v1/detect", syncReq)
	s2 := postReply(t, ts, "/v1/detect", syncReq)
	if s.decodes.Load() != decodes+2 {
		t.Fatalf("sync spelling: %d decodes, want 1 then a memo hit", s.decodes.Load()-decodes-1)
	}
	sameReply(t, "sync memo hit", s1, s2)
	if s1.job != a1.job || !bytes.Equal(s1.body, a3.body) {
		t.Fatal("sync and async spellings disagree on the job")
	}
}

// TestMemoRouterLocalFallback: the router remembers a request in its local
// server's memo when it first resolves it and routes its repeats without
// a decode; the backend remembers it once its cache answers it. When every
// backend is down the router's local fallback resolves the bytes and
// returns the same bytes the cluster did.
func TestMemoRouterLocalFallback(t *testing.T) {
	c := newCluster(t, 1, Config{Workers: 1}, RouterConfig{Attempts: 2})
	local, backend := c.router.local, c.backends[0]
	req := detectReq(8, 2)

	first := postReply(t, c.rts, "/v1/detect", req)
	if first.code != 200 || local.decodes.Load() != 1 || backend.decodes.Load() != 1 {
		t.Fatalf("first: %d, router %d / backend %d decodes", first.code, local.decodes.Load(), backend.decodes.Load())
	}
	if memoLen(local) != 1 || memoLen(backend) != 0 {
		t.Fatalf("memo: router %d / backend %d, want 1 and 0", memoLen(local), memoLen(backend))
	}
	for i, wantDecodes := range []int64{2, 2} {
		again := postReply(t, c.rts, "/v1/detect", req)
		if again.cache != "hit" || local.decodes.Load() != 1 || backend.decodes.Load() != wantDecodes {
			t.Fatalf("repeat %d: %q, router %d / backend %d decodes, want 1 / %d",
				i, again.cache, local.decodes.Load(), backend.decodes.Load(), wantDecodes)
		}
		if again.job != first.job || !bytes.Equal(again.body, first.body) {
			t.Fatal("routed memo hit differs from the first reply")
		}
	}

	c.tss[0].Close() // the whole cluster is down
	resp, body := post(t, c.rts, "/v1/detect", req)
	if resp.StatusCode != 200 || resp.Header.Get(HeaderBackend) != "local" {
		t.Fatalf("fallback: %d from %q", resp.StatusCode, resp.Header.Get(HeaderBackend))
	}
	if local.decodes.Load() != 2 {
		t.Fatalf("router decodes = %d, want 2: the fallback resolves the bytes once", local.decodes.Load())
	}
	if resp.Header.Get(HeaderJob) != first.job || !bytes.Equal(body, first.body) {
		t.Fatal("local fallback after a memo hit returned different bytes")
	}
}

// TestMemoConcurrentRepeats: clients repeating a few bodies at once,
// through a router whose one backend's LRU holds a single result (so
// results are evicted while others' remembered requests are answered),
// all get the bytes a fresh node computes — with and without a store, so
// store hits and the router's answer digests are read and written from
// several requests at once too. Run it under -race.
func TestMemoConcurrentRepeats(t *testing.T) {
	bodies := []string{detectReq(1, 3), detectReq(2, 3), detectReq(3, 3)}
	_, ref := newTestServer(t, Config{Workers: 2})
	want := make([][]byte, len(bodies))
	var budget int64
	for i, b := range bodies {
		r := postReply(t, ref, "/v1/detect", b)
		want[i] = r.body
		budget = max(budget, cacheCost(r))
	}
	for _, withStore := range []bool{false, true} {
		t.Run(fmt.Sprintf("store=%v", withStore), func(t *testing.T) {
			cfg := Config{Workers: 2, CacheBytes: budget}
			if withStore {
				cfg.StoreDir = t.TempDir()
			}
			c := newCluster(t, 1, cfg, RouterConfig{})
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for n := 0; n < 12; n++ {
						i := (g + n) % len(bodies)
						ts := c.rts
						if n%2 == 1 {
							ts = c.tss[0] // the backend directly, too
						}
						resp, err := http.Post(ts.URL+"/v1/detect", "application/json", strings.NewReader(bodies[i]))
						if err != nil {
							t.Error(err)
							return
						}
						got, err := io.ReadAll(resp.Body)
						resp.Body.Close()
						if err != nil || resp.StatusCode != 200 || !bytes.Equal(got, want[i]) {
							t.Errorf("client %d body %d: %d %v: bytes differ from a fresh node", g, i, resp.StatusCode, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestAccessLabelMatchesSprintf: the compact detect response's prior and
// current strings are the bytes the fmt format "%s op%d %s" gave, for
// every access kind and context and for op ids of every width.
func TestAccessLabelMatchesSprintf(t *testing.T) {
	for _, kind := range []mem.AccessKind{mem.Read, mem.Write} {
		for ctx := mem.Context(0); ctx < 16; ctx++ {
			for _, id := range []op.ID{op.None, 7, 99, 100, 12345, 1<<31 - 1, -3} {
				a := race.Access{Kind: kind, Op: id, Ctx: ctx}
				if got, want := accessLabel(a), fmt.Sprintf("%s op%d %s", a.Kind, a.Op, a.Ctx); got != want {
					t.Fatalf("accessLabel = %q, want %q", got, want)
				}
			}
		}
	}
}

// fuzzKinds are the POST endpoints FuzzServeKey sends bytes to.
var fuzzKinds = []jobKind{kindDetect, kindSweep, kindFaultSweep}

// FuzzServeKey fuzzes the request → key path and its memo. For any bytes
// posted to an endpoint:
//   - a second submission returns what the first did (status, job key and,
//     for a cached result, bytes; an async first answer is the 202, so its
//     repeat is compared once the job is done);
//   - a memo-served reply equals the decode path's reply for the same state;
//   - on a store node whose LRU holds nothing, a memo-served store hit
//     equals the decode path's reply, counters included;
//   - a body that resolves keeps its key after a JSON round trip through
//     Request;
//   - the same bytes sent to another endpoint are decoded there, never
//     answered from the first endpoint's memo entry;
//   - the key is sound: when body and a second body, twin, resolve to one
//     key on the endpoint, both run cold on one fresh node give the same
//     bytes (keySoundnessArm).
//
// The seed corpus (GoldenWorkload's bodies plus small inline sites, most
// with a twin spelled differently that resolves to the same key; two
// twins name another seed or an unpruned sweep, which a key that dropped
// that input would run to different bytes) runs under plain `go test`.
func FuzzServeKey(f *testing.F) {
	twins := map[string]string{
		goldenSteps[0].body: `{"seed":7,"spec":{"index":1,"seed":1,"kind":"corpus"},"explore":true}`,
		goldenSteps[3].body: `{"spec":{"index":1},"seeds":3,"mode":"seeds","seed":1,"async":true}`,
		goldenSteps[4].body: `{"mode":"delay-one","spec":{"kind":"corpus","index":2},"prune":false}`,
		goldenSteps[5].body: `{"spec":{"kind":"fault","index":1},"plans":2,"faultSeed":1}`,
	}
	for _, st := range goldenSteps {
		if st.method == http.MethodPost {
			f.Add(uint8(fuzzKindIndex(strings.TrimPrefix(st.path, "/v1/"))), []byte(st.body), []byte(twins[st.body]))
		}
	}
	for _, s := range []struct {
		kind       uint8
		body, twin string
	}{
		{0, `{"site":` + racySite + `,"seed":2}`, `{"seed":2,"site":` + racySite + `,"entry":"index.html","detector":"pairwise"}`},
		{0, `{"seed":2,"site":` + racySite + `,"async":true}`, `{"site":` + racySite + `,"seed":3}`},
		{0, `{"site":{"resources":{"index.html":"<p id=a></p><script>var x=1;</script>"}},"filters":true}`,
			`{"filters":true,"site":{"name":"site","resources":{"index.html":"<p id=a></p><script>var x=1;</script>"}}}`},
		{0, `{"site":` + racySite + `,"fault":{"seed":3,"drop":0.5}}`, `{"site":` + racySite + `,"fault":{"drop":0.5,"seed":3,"perURL":{}}}`},
		{1, `{"site":` + racySite + `,"seeds":2,"prune":true}`, `{"site":` + racySite + `,"seeds":2}`},
		{1, `{"site":` + racySite + `,"mode":"delay-one"}`, `{"mode":"delay-one","prune":false,"site":` + racySite + `}`},
		{1, `{"site":` + racySite + `,"mode":"delay-one","seeds":5}`, `{"mode":"delay-one","site":` + racySite + `}`},
		{2, `{"site":` + racySite + `,"plans":2,"faultSeed":9}`, `{"plans":2,"faultSeed":9,"site":` + racySite + `,"seed":1}`},
		{0, `{"site":` + racySite + `,"detector":"sampled","sampleRate":0.5}`, `{"site":` + racySite + `,"detector":"sampled","sampleRate":0.50}`},
		{0, `{"site":` + racySite + `} `, `{"site":` + racySite + `,"timeoutMS":30000}`},
		{0, `{"spec":{"index":-1}}`, ``},
	} {
		f.Add(s.kind, []byte(s.body), []byte(s.twin))
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body, twin []byte) {
		kind := fuzzKinds[int(endpoint)%len(fuzzKinds)]
		other := fuzzKinds[(int(endpoint)+1)%len(fuzzKinds)]
		if fuzzTooBig(body) {
			t.Skip("bounded: more work than one fuzz input should ask for")
		}
		if !fuzzTooBig(twin) {
			keySoundnessArm(t, kind, body, twin)
		}
		var req Request
		_ = json.Unmarshal(body, &req)
		s := NewServer(Config{Workers: 1, MaxBodyBytes: 16 << 10,
			DefaultTimeout: 5 * time.Second, MaxTimeout: 5 * time.Second})
		defer s.Close()
		h, path := s.Handler(), "/v1/"+string(kind)

		first := serveReply(h, path, body)
		settle(s, first.job)
		s.cache.mu.Lock()
		_, cached := s.cache.items[first.job]
		s.cache.mu.Unlock()
		second := serveReply(h, path, body)
		if second.job != first.job || (first.code != http.StatusAccepted && second.code != first.code) {
			t.Fatalf("second submission: %d job %q, first: %d job %q", second.code, second.job, first.code, first.job)
		}
		if first.code != http.StatusAccepted && (cached || first.code >= 400) && !bytes.Equal(second.body, first.body) {
			t.Fatalf("second submission's bytes differ:\n%s\n%s", first.body, second.body)
		}
		if first.code >= 400 && memoLen(s) != 0 {
			t.Fatalf("a %d body was remembered", first.code)
		}
		settle(s, second.job)
		d := s.decodes.Load()
		third := serveReply(h, path, body)
		if cached {
			// second decoded and was answered from the cache, which
			// remembered body: third is a memo hit.
			if s.decodes.Load() != d {
				t.Fatalf("a cached result's third submission decoded")
			}
			sameReply(t, "memo hit vs decode path", third, second)
		} else if third.code != second.code || third.job != second.job {
			t.Fatalf("third submission: %d job %q, second: %d job %q", third.code, third.job, second.code, second.job)
		}
		settle(s, third.job)
		if cached {
			storeMemoArm(t, kind, body)
		}

		if first.code != http.StatusOK && first.code != http.StatusAccepted {
			return
		}
		blob, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("re-encode a resolved request: %v", err)
		}
		r, err := s.resolveBody(newBodyKey(kind, blob), blob)
		if err != nil || r.key != first.job {
			t.Fatalf("round trip through Request changed the key: %v\n%s\n%s", err, body, blob)
		}

		before := s.decodes.Load()
		o := serveReply(h, "/v1/"+string(other), body)
		settle(s, o.job)
		if s.decodes.Load() != before+1 {
			t.Fatalf("/v1/%s answered %s's bytes without decoding them", other, kind)
		}
		if o.job != "" && o.job == first.job {
			t.Fatalf("/v1/%s and /v1/%s share job %s", kind, other, o.job)
		}
	})
}

// fuzzTooBig reports whether body asks for more work than one fuzz input
// should: many seeds or plans, or a stress page.
func fuzzTooBig(body []byte) bool {
	var req Request
	return json.Unmarshal(body, &req) == nil && (req.Seeds > 8 || req.Plans > 8 ||
		req.Spec != nil && req.Spec.Kind == "stress")
}

// keySoundnessArm is FuzzServeKey's key-soundness arm: when body and twin
// both resolve on kind's endpoint to one key, it runs both cold on one
// fresh node and requires the same bytes, since a cached answer for one
// is served to the other. A run that failed or that a budget cut short
// is never cached, so a pair with one proves nothing and is skipped.
func keySoundnessArm(t *testing.T, kind jobKind, body, twin []byte) {
	s := NewServer(Config{Workers: 1, DefaultTimeout: 5 * time.Second, MaxTimeout: 5 * time.Second})
	defer s.Close()
	r1, err1 := s.resolveBody(newBodyKey(kind, body), body)
	r2, err2 := s.resolveBody(newBodyKey(kind, twin), twin)
	if err1 != nil || err2 != nil || r1.key != r2.key {
		return
	}
	b1, ok1, err1 := s.execute(r1)
	b2, ok2, err2 := s.execute(r2)
	if err1 != nil || err2 != nil || !ok1 || !ok2 {
		return
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("%s bodies share key %s but run to different bytes:\n%s\n%s\n%s\n%s", kind, r1.key[:8], body, twin, b1, b2)
	}
}

// storeMemoArm is FuzzServeKey's store-backed arm: on a store node whose
// LRU holds nothing (every result leaves it at once), body's job runs
// once, and a repeat is answered from the store, which remembers body.
// Then a repeat answered from the memo must equal the decode path's answer
// for the same state, with the same serve.cache.* and serve.store.* moves
// and no decode. A run the wall budget cut short, or one that failed, is
// never stored, so it is skipped.
func storeMemoArm(t *testing.T, kind jobKind, body []byte) {
	s := NewServer(Config{Workers: 1, MaxBodyBytes: 16 << 10, CacheBytes: 1, StoreDir: t.TempDir(),
		DefaultTimeout: 5 * time.Second, MaxTimeout: 5 * time.Second})
	defer s.Close()
	h, path := s.Handler(), "/v1/"+string(kind)
	first := serveReply(h, path, body)
	settle(s, first.job)
	if s.cInterrupted.Value() != 0 || s.cFailed.Value() != 0 {
		return
	}
	// The job leaves the table once the store holds its result.
	pending := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.jobs[first.job] != nil
	}
	for deadline := time.Now().Add(5 * time.Second); pending(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the result of %s was never stored (%d)", first.job, first.code)
		}
	}
	if r := serveReply(h, path, body); r.cache != "store-hit" || memoLen(s) != 1 {
		t.Fatalf("repeat: %d %q, memo %d, want a store hit that is remembered", r.code, r.cache, memoLen(s))
	}

	c0, d0 := cacheCounters(s), s.decodes.Load()
	viaMemo := serveReply(h, path, body)
	c1 := cacheCounters(s)
	if s.decodes.Load() != d0 || viaMemo.cache != "store-hit" {
		t.Fatalf("store memo: %d %q after %d decodes, want a store hit after none", viaMemo.code, viaMemo.cache, s.decodes.Load()-d0)
	}
	forget(s)
	viaDecode := serveReply(h, path, body)
	sameReply(t, "store memo vs decode path", viaMemo, viaDecode)
	sameDelta(t, "store memo vs decode path", counterDelta(c0, c1), counterDelta(c1, cacheCounters(s)))
}

// fuzzKindIndex is the index of an endpoint name in fuzzKinds.
func fuzzKindIndex(name string) int {
	for i, k := range fuzzKinds {
		if string(k) == name {
			return i
		}
	}
	panic("unknown endpoint " + name)
}

// settle waits until the job under key, if s has one, is finished.
func settle(s *Server, key string) {
	s.mu.Lock()
	j := s.jobs[key]
	s.mu.Unlock()
	if j != nil {
		<-j.done
	}
}
