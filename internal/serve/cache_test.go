package serve

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"webracer/internal/obs"
)

// snap reads a metric from the cache's registry.
func snap(t *testing.T, m *obs.Metrics, name string) int64 {
	t.Helper()
	v, ok := m.Snapshot()[name]
	if !ok {
		t.Fatalf("metric %q not registered", name)
	}
	return v
}

func TestCacheGetPut(t *testing.T) {
	m := obs.New()
	c := NewCache(1<<20, m)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", []byte("alpha"))
	got, ok := c.Get("a")
	if !ok || !bytes.Equal(got, []byte("alpha")) {
		t.Fatalf("Get(a) = %q, %v", got, ok)
	}
	if h, mi := snap(t, m, "serve.cache.hits"), snap(t, m, "serve.cache.misses"); h != 1 || mi != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", h, mi)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	m := obs.New()
	// Budget fits exactly two entries: each costs 1-byte key + 100-byte
	// body + entryOverhead.
	cost := int64(1 + 100 + entryOverhead)
	c := NewCache(2*cost, m)
	body := func(s string) []byte { return bytes.Repeat([]byte(s), 100) }

	c.Put("a", body("a"))
	c.Put("b", body("b"))
	if c.Len() != 2 || c.Bytes() != 2*cost {
		t.Fatalf("len/bytes = %d/%d, want 2/%d", c.Len(), c.Bytes(), 2*cost)
	}
	// Touch "a" so "b" is the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.Put("c", body("c"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction despite being LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite recent touch")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing after insert")
	}
	if ev := snap(t, m, "serve.cache.evictions"); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if g := snap(t, m, "serve.cache.entries"); g != 2 {
		t.Fatalf("entries gauge = %d, want 2", g)
	}
	if g := snap(t, m, "serve.cache.bytes"); g != c.Bytes() {
		t.Fatalf("bytes gauge = %d, cache says %d", g, c.Bytes())
	}
}

func TestCacheTooLargeDropped(t *testing.T) {
	m := obs.New()
	c := NewCache(256, m)
	c.Put("big", make([]byte, 1024))
	if c.Len() != 0 {
		t.Fatal("oversized entry admitted")
	}
	if tl := snap(t, m, "serve.cache.too_large"); tl != 1 {
		t.Fatalf("too_large = %d, want 1", tl)
	}
}

func TestCacheReplaceInPlace(t *testing.T) {
	c := NewCache(1<<20, obs.New())
	c.Put("k", []byte("old"))
	c.Put("k", []byte("newer"))
	got, ok := c.Get("k")
	if !ok || string(got) != "newer" {
		t.Fatalf("Get after replace = %q, %v", got, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len after replace = %d", c.Len())
	}
}

func TestCacheBudgetNeverExceeded(t *testing.T) {
	m := obs.New()
	budget := int64(4096)
	c := NewCache(budget, m)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("key-%03d", i), bytes.Repeat([]byte{byte(i)}, 200))
		if c.Bytes() > budget {
			t.Fatalf("after put %d: bytes %d exceeds budget %d", i, c.Bytes(), budget)
		}
	}
	if c.Len() == 0 {
		t.Fatal("cache empty after inserts under budget")
	}
	if puts := snap(t, m, "serve.cache.puts"); puts != 100 {
		t.Fatalf("puts = %d, want 100", puts)
	}
}

// TestCacheBodiesExactSize holds every body the cache keeps to its
// length: the budget charges len(body), so spare capacity behind a body
// is memory the cache holds but never counts. Detect, sweep and
// fault-sweep results are checked on a store-backed node, and again on a
// node that reloads them from the store.
func TestCacheBodiesExactSize(t *testing.T) {
	dir := t.TempDir()
	jobs := []struct{ path, body string }{
		{"/v1/detect", `{"site":` + racySite + `,"seed":3}`},
		{"/v1/detect", `{"spec":{"index":2},"seed":9}`},
		{"/v1/sweep", `{"site":` + racySite + `,"seeds":3}`},
		{"/v1/sweep", `{"spec":{"kind":"sched","index":0},"mode":"delay-one"}`},
		{"/v1/faultsweep", `{"spec":{"kind":"fault","index":1},"plans":2}`},
	}
	check := func(t *testing.T, s *Server, want int) {
		t.Helper()
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		if s.cache.ll.Len() != want {
			t.Fatalf("cache holds %d bodies, want %d", s.cache.ll.Len(), want)
		}
		for el := s.cache.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*centry)
			if cap(e.body) != len(e.body) {
				t.Errorf("cached body %s: cap %d, len %d", e.key, cap(e.body), len(e.body))
			}
		}
	}
	s, ts := newTestServer(t, Config{StoreDir: dir})
	for _, j := range jobs {
		if resp, b := post(t, ts, j.path, j.body); resp.StatusCode != 200 {
			t.Fatalf("POST %s: %d %s", j.path, resp.StatusCode, b)
		}
	}
	check(t, s, len(jobs))
	// Drain: a job's store write may still be in flight after its answer.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	reloaded := NewServer(Config{StoreDir: dir})
	defer func() { _ = reloaded.Drain(ctx) }()
	check(t, reloaded, len(jobs))
}
