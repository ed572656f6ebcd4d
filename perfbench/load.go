package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"webracer/internal/serve"
)

// clients is the closed loop's client count: each client sends its next
// request only after the previous one's last body byte arrived, the way
// webracerd's callers (CI gates, sweep drivers) wait for each verdict.
const clients = 2

// client sends requests over at most `clients` connections per host.
type client struct {
	http   *http.Client
	prefix string // request-id prefix: workload and seed
}

func newClient(workload string, seed int64) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
		prefix: fmt.Sprintf("pb-%s-%d-", workload, seed),
	}
}

// close drops the client's idle connections.
func (c *client) close() { c.http.CloseIdleConnections() }

// response is the record a run keeps of every request until it is
// verified, so it holds nothing that can be derived again: the job is
// t.job(i), and the body is kept only as its digest.
type response struct {
	i        int // request index
	code     int
	idOK     bool   // the request id came back unchanged
	cache    string // X-Webracer-Cache
	latency  time.Duration
	sum      [32]byte // SHA-256 of the body
	err      error
	mismatch bool // the bytes differ from a cold recomputation
}

// ok reports a 200 whose request id came back unchanged.
func (r *response) ok() bool { return r.err == nil && r.code == http.StatusOK && r.idOK }

// failed reports a transport error, a non-200, a dropped or altered
// request id, or a byte mismatch.
func (r *response) failed() bool { return !r.ok() || r.mismatch }

// reply is the rest of a response, seen only by per-response hooks.
type reply struct {
	job      *job
	reqID    string
	body     []byte
	backend  string // X-Webracer-Backend (routed responses)
	attempts int    // X-Webracer-Attempts (routed responses)
	jobKey   string // X-Webracer-Job
}

// send posts j to base under request id reqID and times it from send to
// the last body byte.
func (c *client) send(base string, j *job, i int, reqID string) (response, reply) {
	r, rp := response{i: i}, reply{job: j, reqID: reqID}
	hr, err := http.NewRequest(http.MethodPost, base+j.path(), bytes.NewReader(j.body()))
	if err != nil {
		r.err = err
		return r, rp
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(serve.HeaderRequestID, reqID)
	start := time.Now()
	resp, err := c.http.Do(hr)
	if err != nil {
		r.err = err
		return r, rp
	}
	rp.body, err = io.ReadAll(resp.Body)
	r.latency = time.Since(start)
	resp.Body.Close()
	if err != nil {
		r.err = err
		return r, rp
	}
	r.code = resp.StatusCode
	r.idOK = resp.Header.Get(serve.HeaderRequestID) == reqID
	r.cache = resp.Header.Get(serve.HeaderCache)
	r.sum = sha256.Sum256(rp.body)
	rp.backend = resp.Header.Get(serve.HeaderBackend)
	rp.attempts, _ = strconv.Atoi(resp.Header.Get(serve.HeaderAttempts))
	rp.jobKey = resp.Header.Get(serve.HeaderJob)
	return r, rp
}

// loop is one closed-loop run: `clients` goroutines draw request indices
// from first upward until stop says so, each sending its next request
// only after the previous one completed. after, when non-nil, runs on the
// client goroutine after each response — inside the phase, outside the
// latency sample — and may mark the record failed. The records come back
// in request-index order.
func (c *client) loop(t *target, first int, stop func(i int, elapsed time.Duration) bool,
	after func(client int, r *response, rp *reply)) []response {
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	per := make([][]response, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if stop(i, time.Since(start)) {
					return
				}
				r, rp := c.send(t.url, t.job(i), i, c.prefix+strconv.Itoa(i))
				if after != nil {
					after(w, &r, &rp)
				}
				per[w] = append(per[w], r)
			}
		}(w)
	}
	wg.Wait()
	var out []response
	for _, rs := range per {
		out = append(out, rs...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].i < out[b].i })
	return out
}

// forCount stops a loop after n requests.
func forCount(first, n int) func(int, time.Duration) bool {
	return func(i int, _ time.Duration) bool { return i >= first+n }
}

// forTime stops a loop once d has elapsed (requests in flight finish).
func forTime(d time.Duration) func(int, time.Duration) bool {
	return func(_ int, elapsed time.Duration) bool { return elapsed >= d }
}

// phase is one measured stretch of traffic.
type phase struct {
	responses []response
	wall      time.Duration
	cpu       time.Duration // process user+sys
	alloc     uint64        // heap bytes allocated
}

// measure runs fn and accounts its wall time, process CPU time and heap
// allocation. A forced GC first keeps garbage from set-up out of it.
func measure(fn func() []response) phase {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	start := time.Now()
	rs := fn()
	wall := time.Since(start)
	cpu1 := processCPU()
	runtime.ReadMemStats(&m1)
	return phase{responses: rs, wall: wall, cpu: cpu1 - cpu0, alloc: m1.TotalAlloc - m0.TotalAlloc}
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the heap in use after forced collections. The second one
// frees what the first only moved into the sync.Pool victim caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
