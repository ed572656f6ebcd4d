package serve

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"webracer/internal/obs"
)

// entryOverhead approximates the per-entry bookkeeping cost (map bucket,
// list element, entry struct) charged against the byte budget in addition
// to key and body length, so a cache full of tiny entries cannot blow past
// its budget on overhead alone.
const entryOverhead = 128

// bodyKey names a request by its endpoint and the SHA-256 of its exact
// body bytes: the key of the request memo. Two requests share a bodyKey
// only if they are the same bytes sent to the same endpoint, so they
// resolve to the same job under one server config.
type bodyKey struct {
	kind jobKind
	sum  [sha256.Size]byte
}

// newBodyKey digests one request's bytes for its endpoint.
func newBodyKey(kind jobKind, raw []byte) bodyKey {
	return bodyKey{kind: kind, sum: sha256.Sum256(raw)}
}

// Cache is the content-addressed result cache: stable response bytes
// keyed by the request's canonical identity (see requestKey), bounded by
// a byte budget with least-recently-used eviction.
//
// Soundness rests on the determinism contract (DESIGN.md): every run is a
// pure function of its key's inputs and serializes byte-stably, so a hit
// returns exactly the bytes a cold run would produce. Interrupted runs
// are the one exception — their bytes depend on wall-clock timing — and
// the server never Puts them.
//
// All methods are safe for concurrent use. Hit/miss/eviction traffic is
// counted in the server's obs registry under serve.cache.*.
type Cache struct {
	mu     sync.Mutex
	budget int64
	size   int64
	ll     *list.List // front = most recently used
	items  map[string]*list.Element

	hits, misses, evictions, puts, tooLarge *obs.Counter
	bytes, entries                          *obs.Gauge
}

// centry is one cached response.
type centry struct {
	key  string
	body []byte
}

// cost is the budget charge for one entry.
func (e *centry) cost() int64 {
	return int64(len(e.key)) + int64(len(e.body)) + entryOverhead
}

// NewCache builds a cache holding at most budget bytes of responses
// (values < 1 mean 64 MiB), counting traffic in m under serve.cache.*.
func NewCache(budget int64, m *obs.Metrics) *Cache {
	if budget < 1 {
		budget = 64 << 20
	}
	return &Cache{
		budget:    budget,
		ll:        list.New(),
		items:     map[string]*list.Element{},
		hits:      m.Counter("serve.cache.hits"),
		misses:    m.Counter("serve.cache.misses"),
		evictions: m.Counter("serve.cache.evictions"),
		puts:      m.Counter("serve.cache.puts"),
		tooLarge:  m.Counter("serve.cache.too_large"),
		bytes:     m.Gauge("serve.cache.bytes"),
		entries:   m.Gauge("serve.cache.entries"),
	}
}

// Get returns the cached bytes for key and marks the entry most recently
// used. The returned slice is the cache's own storage — callers must not
// modify it.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*centry).body, true
}

// peek returns the cached bytes for key like Get, but counts neither a
// hit nor a miss and leaves the entry's recency alone: a job poll reads
// a result without keeping it warm.
func (c *Cache) peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*centry).body, true
}

// Put stores body under key, evicting least-recently-used entries until
// the budget holds. A body too large to ever fit is counted
// (serve.cache.too_large) and dropped; a key already present is refreshed
// in place (bodies for one key are identical by construction, but the
// accounting stays exact either way). The budget charges len(body), so
// body should carry no spare capacity: the server's own bodies, from
// marshalBody and the store, have cap == len.
func (c *Cache) Put(key string, body []byte) { c.put(key, body) }

// put is Put, reporting whether the cache took body: false when it is
// too large to ever fit.
func (c *Cache) put(key string, body []byte) bool {
	e := &centry{key: key, body: body}
	if e.cost() > c.budget {
		c.tooLarge.Inc()
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		old := el.Value.(*centry)
		c.size += e.cost() - old.cost()
		el.Value = e
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(e)
		c.size += e.cost()
	}
	c.puts.Inc()
	for c.size > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*centry)
		c.ll.Remove(back)
		delete(c.items, victim.key)
		c.size -= victim.cost()
		c.evictions.Inc()
	}
	c.bytes.Set(c.size)
	c.entries.Set(int64(c.ll.Len()))
	return true
}

// Len is the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes is the budget-charged size of the cache contents.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// routeMemoCap bounds the request memo, one per process (DESIGN.md "The
// request memo" gives its size).
const routeMemoCap = 1024

// routeMemo is the request memo: a fixed-capacity LRU from a request's
// body key to the job key and async flag its bytes resolved to. A node
// answers a repeat by it without a decode; a router routes a repeat by it
// and checks a repeated answer against the digest it keeps. Each Server
// owns one, and a router shares its local server's. Safe for concurrent
// use.
type routeMemo struct {
	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[bodyKey]*list.Element
}

// routeEntry is one remembered request.
type routeEntry struct {
	bk     bodyKey
	key    string
	async  bool
	answer [sha256.Size]byte // SHA-256 of the last 200 body that passed the router's gate; zero if none
}

// newRouteMemo builds an empty request memo.
func newRouteMemo() *routeMemo {
	return &routeMemo{ll: list.New(), items: map[bodyKey]*list.Element{}}
}

// get returns the key and async flag remembered for bk.
func (m *routeMemo) get(bk bodyKey) (key string, async, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[bk]
	if !ok {
		return "", false, false
	}
	m.ll.MoveToFront(el)
	e := el.Value.(*routeEntry)
	return e.key, e.async, true
}

// put remembers that bk resolved to (key, async), forgetting the least
// recently used entry past routeMemoCap. A zero bk — a request resolved
// without its bytes — is never remembered.
func (m *routeMemo) put(bk bodyKey, key string, async bool) {
	if bk.kind == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[bk]; ok {
		m.ll.MoveToFront(el)
		return
	}
	m.items[bk] = m.ll.PushFront(&routeEntry{bk: bk, key: key, async: async})
	if m.ll.Len() > routeMemoCap {
		back := m.ll.Back()
		m.ll.Remove(back)
		delete(m.items, back.Value.(*routeEntry).bk)
	}
}

// answered reports whether sum is the digest remembered as bk's answer
// (see noteAnswer).
func (m *routeMemo) answered(bk bodyKey, sum [sha256.Size]byte) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[bk]
	return ok && el.Value.(*routeEntry).answer == sum
}

// noteAnswer remembers sum, the digest of a 200 body that passed the
// router's integrity gate for bk's key, as bk's answer. A forgotten bk
// remembers nothing.
func (m *routeMemo) noteAnswer(bk bodyKey, sum [sha256.Size]byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[bk]; ok {
		el.Value.(*routeEntry).answer = sum
	}
}
