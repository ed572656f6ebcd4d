package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// TestRequestBodyLimit413: a body over MaxBodyBytes is refused with 413
// before any of it is decoded; the same request under the limit runs.
func TestRequestBodyLimit413(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 1024})

	big := `{"site":{"name":"big","resources":{"index.html":"` + strings.Repeat("x", 4096) + `"}}}`
	resp, b := post(t, ts, "/v1/detect", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s, want 413", resp.StatusCode, b)
	}
	if !bytes.Contains(b, []byte("1024")) {
		t.Fatalf("413 body %s does not name the limit", b)
	}
	if resp, _ := post(t, ts, "/v1/detect", `{"site":`+racySite+`}`); resp.StatusCode != 200 {
		t.Fatal("under-limit request refused")
	}
}

// TestRetryAfterScalesWithQueueDepth: the 429 Retry-After hint is
// estimate × (1 + ⌈waiting/workers⌉) capped at 60 — a full deep queue
// tells clients to come back later than a full shallow one.
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	for _, tc := range []struct {
		estimate int
		want     string
	}{
		{estimate: 2, want: "10"},  // 2 × (1 + 4/1 waiting)
		{estimate: 45, want: "60"}, // 45 × 5 = 225, capped
	} {
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, RetryAfter: tc.estimate})
		release := make(chan struct{})
		started := make(chan string, 8)
		s.jobGate = func(_ jobKind, key string) {
			started <- key
			<-release
		}

		submit := func(seed int) *http.Response {
			resp, _ := post(t, ts, "/v1/detect",
				fmt.Sprintf(`{"site":%s,"seed":%d,"async":true}`, racySite, seed))
			return resp
		}
		if submit(1).StatusCode != 202 {
			t.Fatal("job 1 refused")
		}
		<-started // worker held; the next 4 fill the queue
		for seed := 2; seed <= 5; seed++ {
			if resp := submit(seed); resp.StatusCode != 202 {
				t.Fatalf("queue job seed %d refused: %d", seed, resp.StatusCode)
			}
		}
		resp := submit(6)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("estimate %d: overflow job got %d, want 429", tc.estimate, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != tc.want {
			t.Fatalf("estimate %d with 4 waiting: Retry-After = %q, want %q", tc.estimate, ra, tc.want)
		}
		close(release)
	}
}

// TestStoreHitSecondLevel: with a cache too small to hold the result,
// the persistent store answers the repeat request (X-Webracer-Cache:
// store-hit) without re-running the job.
func TestStoreHitSecondLevel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheBytes: 1, StoreDir: t.TempDir()})
	req := `{"site":` + racySite + `,"seed":1}`
	_, cold := post(t, ts, "/v1/detect", req)
	// The job persists its result after it answers (no fsync under the
	// server lock), so wait for that write before asking again.
	waitUntil(t, func() bool { return metricQuiet(ts, "serve.store.puts") >= 1 })

	resp, warm := post(t, ts, "/v1/detect", req)
	if h := resp.Header.Get("X-Webracer-Cache"); h != "store-hit" {
		t.Fatalf("X-Webracer-Cache = %q, want store-hit (cache budget is 1 byte)", h)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("store bytes differ from the run that wrote them")
	}
	if got := metric(t, ts, "serve.jobs.completed"); got != 1 {
		t.Fatalf("serve.jobs.completed = %d, want 1 — the store hit must not recompute", got)
	}
	if got := metric(t, ts, "serve.store.hits"); got != 1 {
		t.Fatalf("serve.store.hits = %d, want 1", got)
	}
}

// TestStorePersistenceAcrossRestart: results survive a process restart —
// the store recovers them at boot and warms the LRU, so the first repeat
// request on the new process is already an in-memory hit with zero
// executions.
func TestStorePersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	req := `{"site":` + racySite + `,"seed":42}`

	s1 := NewServer(Config{Workers: 1, StoreDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	_, cold := post(t, ts1, "/v1/detect", req)
	ts1.Close()
	s1.Close()
	if ents, err := os.ReadDir(dir); err != nil || len(ents) == 0 {
		t.Fatalf("store dir empty after run: %v %v", ents, err)
	}

	s2 := NewServer(Config{Workers: 1, StoreDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	resp, warm := post(t, ts2, "/v1/detect", req)
	if h := resp.Header.Get("X-Webracer-Cache"); h != "hit" {
		t.Fatalf("X-Webracer-Cache = %q after restart, want hit (recovery warms the LRU)", h)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("restarted server returned different bytes")
	}
	if got := metric(t, ts2, "serve.jobs.completed"); got != 0 {
		t.Fatalf("restarted server ran %d jobs for a recovered key, want 0", got)
	}
	if got := metric(t, ts2, "serve.store.recovered"); got < 1 {
		t.Fatalf("serve.store.recovered = %d, want ≥ 1", got)
	}
}
