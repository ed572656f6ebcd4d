package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHealthzDrainingPin pins the drain contract on /healthz: 200 while
// serving, 503 with a "draining" body once Drain has been requested —
// the signal load balancers and the router's active probes key off.
func TestHealthzDrainingPin(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, b := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy /healthz = %d %s, want 200", resp.StatusCode, b)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, b = get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz = %d %s, want 503", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "draining") {
		t.Fatalf("draining /healthz body %q must say draining", b)
	}
	if resp.Header.Get(HeaderRequestID) == "" {
		t.Fatal("draining 503 must still echo a request id")
	}
}

// TestRequestIDEchoOnErrors: every error response — 400 bad request,
// 413 oversized body, 429 backpressure — echoes the client's
// X-Webracer-Request-Id (and 429 keeps its Retry-After), so a rejected
// request correlates in client and server logs by one grep.
func TestRequestIDEchoOnErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, MaxBodyBytes: 16 << 10})

	postID := func(body, id string) *http.Response {
		t.Helper()
		resp, _, err := postWithID(http.DefaultClient, ts.URL+"/v1/detect", body, id)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// 400: malformed body.
	resp := postID(`{"spec":`, "err-400")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderRequestID); got != "err-400" {
		t.Fatalf("400 request id = %q, want err-400", got)
	}

	// 413: oversized body.
	resp = postID(`{"pad":"`+strings.Repeat("x", 32<<10)+`"}`, "err-413")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderRequestID); got != "err-413" {
		t.Fatalf("413 request id = %q, want err-413", got)
	}

	// 429: hold the one worker, fill the one queue slot, then overflow.
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
	if resp := postID(detect(1), ""); resp.StatusCode != 202 {
		t.Fatalf("job 1: %d", resp.StatusCode)
	}
	<-started
	if resp := postID(detect(2), ""); resp.StatusCode != 202 {
		t.Fatalf("job 2: %d", resp.StatusCode)
	}
	resp = postID(detect(3), "err-429")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderRequestID); got != "err-429" {
		t.Fatalf("429 request id = %q, want err-429", got)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 lost its Retry-After")
	}

	// Unusable client ids (overlong, non-printable) are replaced with a
	// minted wr- id, never truncated or relayed.
	for _, bad := range []string{strings.Repeat("a", 200), "has space"} {
		resp = postID(`{"spec":`, bad)
		got := resp.Header.Get(HeaderRequestID)
		if got == bad || !strings.HasPrefix(got, "wr-") {
			t.Fatalf("unusable id %q came back as %q, want a minted wr- id", bad, got)
		}
	}
}

// TestAccessLogLine: one structured JSON line per request, carrying the
// request id, method, path, status, endpoint family, cache state, job-key
// prefix, and sizes — the operator's per-request audit trail.
func TestAccessLogLine(t *testing.T) {
	var logBuf bytes.Buffer
	s := NewServer(Config{Workers: 1, AccessLog: &logBuf})
	defer s.Close()
	h := s.Handler()

	do := func(body, id string) *httptest.ResponseRecorder {
		hr := httptest.NewRequest(http.MethodPost, "/v1/detect", strings.NewReader(body))
		hr.Header.Set("Content-Type", "application/json")
		hr.Header.Set(HeaderRequestID, id)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, hr)
		return w
	}
	w := do(`{"spec":{"kind":"corpus","index":1},"seed":7}`, "log-1")
	if w.Code != 200 {
		t.Fatalf("detect: %d %s", w.Code, w.Body.String())
	}
	do(`{"spec":{"kind":"corpus","index":1},"seed":7}`, "log-2") // warm repeat

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), logBuf.String())
	}
	for i, wantCache := range []string{"miss", "hit"} {
		var rec map[string]any
		if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, lines[i])
		}
		if rec["reqId"] != fmt.Sprintf("log-%d", i+1) || rec["method"] != "POST" ||
			rec["path"] != "/v1/detect" || rec["endpoint"] != "detect" ||
			rec["status"] != float64(200) || rec["cache"] != wantCache {
			t.Fatalf("line %d fields wrong: %s", i, lines[i])
		}
		key, _ := rec["key"].(string)
		if len(key) != keyPrefixLen {
			t.Fatalf("line %d key prefix %q, want %d hex chars", i, key, keyPrefixLen)
		}
	}
}

// TestBackendsJSONShapeUnderProbes pins GET /v1/backends' JSON shape
// while active health probes are mutating backend state concurrently:
// every poll must parse, list all backends in flag order with the full
// field set, and converge to healthy=true for a healthy fleet.
func TestBackendsJSONShapeUnderProbes(t *testing.T) {
	c := newCluster(t, 3, Config{Workers: 1}, RouterConfig{HealthInterval: 5 * time.Millisecond})

	wantFields := []string{"url", "name", "healthy", "consecutiveFails", "breakerOpen"}
	allHealthy := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !allHealthy {
		resp, body := get(t, c.rts, "/v1/backends")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/backends = %d %s", resp.StatusCode, body)
		}
		var shape struct {
			Backends      []map[string]any `json:"backends"`
			Attempts      int              `json:"attempts"`
			LocalFallback bool             `json:"localFallback"`
		}
		if err := json.Unmarshal(body, &shape); err != nil {
			t.Fatalf("parse /v1/backends: %v\n%s", err, body)
		}
		if len(shape.Backends) != 3 || shape.Attempts != 3 || !shape.LocalFallback {
			t.Fatalf("shape wrong: %s", body)
		}
		allHealthy = true
		for i, b := range shape.Backends {
			if b["name"] != fmt.Sprintf("b%d", i) {
				t.Fatalf("backend %d name = %v, want flag order b%d", i, b["name"], i)
			}
			for _, f := range wantFields {
				if _, ok := b[f]; !ok {
					t.Fatalf("backend %d missing field %q: %s", i, f, body)
				}
			}
			if b["healthy"] != true {
				allHealthy = false
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !allHealthy {
		t.Fatal("fleet never converged to healthy under active probes")
	}
}

// syncBuffer is a mutex-guarded log sink — cluster tests share one
// writer across several servers' access loggers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRouterAttemptsHeaderAndIDPropagation: a routed response reports
// its forward attempts, and the client's request id survives the hop to
// the backend (the backend's access log sees the same id the client
// sent).
func TestRouterAttemptsHeaderAndIDPropagation(t *testing.T) {
	var backendLog syncBuffer
	c := newCluster(t, 2, Config{Workers: 1, AccessLog: &backendLog}, RouterConfig{})

	resp, _, err := postWithID(http.DefaultClient, c.rts.URL+"/v1/detect", detectReq(1, 9), "prop-1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed detect: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderRequestID); got != "prop-1" {
		t.Fatalf("routed response id = %q, want prop-1", got)
	}
	if got := resp.Header.Get(HeaderAttempts); got != "1" {
		t.Fatalf("X-Webracer-Attempts = %q, want 1", got)
	}
	if b := resp.Header.Get(HeaderBackend); b != "b0" && b != "b1" {
		t.Fatalf("X-Webracer-Backend = %q", b)
	}
	// The backend's access line lands after its handler returns, which
	// can trail the router's relay — poll briefly.
	waitUntil(t, func() bool {
		return strings.Contains(backendLog.String(), `"reqId":"prop-1"`)
	})
}
