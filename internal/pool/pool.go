// Package pool is the parallel sweep engine behind the corpus, seed,
// schedule and harm sweeps: it shards n independent work items over a
// fixed set of workers while keeping the output exactly what the serial
// loop would have produced.
//
// Every unit of webracer work — one (site, seed) simulation — is a
// self-contained deterministic computation, so fan-out is embarrassingly
// parallel. The engine's job is to preserve that determinism at the
// edges:
//
//   - results land at their input index regardless of completion order
//     (Map), or are delivered to the caller strictly in input order
//     (Each), so aggregation code behaves identically at any worker
//     count;
//   - Each bounds in-flight memory with a sliding window: workers may run
//     at most 4 × workers items ahead of the slowest undelivered item, so
//     a sweep over thousands of traces never holds more than O(workers)
//     results at once;
//   - cancellation via context stops dispatching promptly;
//   - per-worker counters expose progress and throughput for the CLIs.
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// PanicError reports a panic recovered from one work item. The sweep is
// not torn down: the remaining items still run, the panicked item's slot
// holds the zero value (Map) or is skipped (Each), and the panic surfaces
// in the returned error so callers can report the run as degraded instead
// of crashing the whole sweep with it.
type PanicError struct {
	// Index is the input index of the item whose fn panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: item %d panicked: %v", e.Index, e.Value)
}

// Panics extracts every PanicError from an error returned by Map or Each
// (walking joined and wrapped errors).
func Panics(err error) []*PanicError {
	var out []*PanicError
	var walk func(error)
	walk = func(err error) {
		if err == nil {
			return
		}
		if pe, ok := err.(*PanicError); ok {
			out = append(out, pe)
			return
		}
		switch u := err.(type) {
		case interface{ Unwrap() []error }:
			for _, e := range u.Unwrap() {
				walk(e)
			}
		case interface{ Unwrap() error }:
			walk(u.Unwrap())
		}
	}
	walk(err)
	return out
}

// guard runs fn(i), converting a panic into a PanicError (and a zero T).
func guard[T any](i int, fn func(i int) T) (v T, pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = &PanicError{Index: i, Value: r, Stack: string(debug.Stack())}
		}
	}()
	return fn(i), nil
}

// runItem is the one place an item executes: counter accounting is
// defer-paired around the guarded call, so a panicking fn (recovered by
// guard) still decrements inFlight and counts as done.
func runItem[T any](c *Counters, worker, i int, fn func(i int) T) (T, *PanicError) {
	defer c.track(worker)()
	return guard(i, fn)
}

// Options configures one sweep.
type Options struct {
	// Workers is the number of concurrent workers; values < 1 mean
	// runtime.NumCPU(). Workers == 1 runs inline on the calling
	// goroutine (no goroutines spawned), which is the serial path.
	Workers int
	// Ctx cancels the sweep; nil means context.Background(). Items
	// already dispatched finish; no further items start.
	Ctx context.Context
	// Counters, when non-nil, is updated as items complete.
	Counters *Counters
}

func (o Options) workers() int {
	if o.Workers < 1 {
		return runtime.NumCPU()
	}
	return o.Workers
}

func (o Options) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// Counters tracks sweep progress. All methods are safe for concurrent
// use; a zero Counters is ready (Begin is called by the pool).
type Counters struct {
	total     atomic.Int64
	done      atomic.Int64
	inFlight  atomic.Int64
	start     atomic.Int64 // unix nanos
	perWorker []atomic.Int64
	mu        sync.Mutex
}

// Begin (re)arms the counters for a sweep of n items over w workers.
func (c *Counters) Begin(n, w int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total.Store(int64(n))
	c.done.Store(0)
	c.inFlight.Store(0)
	c.start.Store(time.Now().UnixNano())
	c.perWorker = make([]atomic.Int64, w)
}

// AddTotal grows the total by n. Sweeps size their total once via Begin;
// a long-lived Runner's work arrives over time, one admission at a time,
// so its accounting grows the total as tasks are accepted.
func (c *Counters) AddTotal(n int) {
	c.total.Add(int64(n))
}

// track registers an item as in-flight and returns the matching
// completion func. Call it as `defer c.track(worker)()` so the decrement
// is bound to the increment by defer: every exit path — including the
// panic-recovery path in guard — balances the accounting, and inFlight
// can never leak a slot. A nil receiver returns a no-op.
func (c *Counters) track(worker int) func() {
	if c == nil {
		return func() {}
	}
	c.inFlight.Add(1)
	return func() { c.item(worker, 1) }
}

func (c *Counters) item(worker int, delta int64) {
	c.inFlight.Add(-delta)
	c.done.Add(delta)
	c.mu.Lock()
	if worker < len(c.perWorker) {
		c.perWorker[worker].Add(delta)
	}
	c.mu.Unlock()
}

// Snapshot is a point-in-time view of a sweep's progress.
type Snapshot struct {
	Total    int
	Done     int
	InFlight int
	// PerWorker[i] is the number of items worker i has completed.
	PerWorker []int
	Elapsed   time.Duration
	// PerSecond is the completion throughput so far.
	PerSecond float64
}

// Snapshot reads the current progress.
func (c *Counters) Snapshot() Snapshot {
	s := Snapshot{
		Total:    int(c.total.Load()),
		Done:     int(c.done.Load()),
		InFlight: int(c.inFlight.Load()),
	}
	if t0 := c.start.Load(); t0 != 0 {
		s.Elapsed = time.Duration(time.Now().UnixNano() - t0)
	}
	c.mu.Lock()
	s.PerWorker = make([]int, len(c.perWorker))
	for i := range c.perWorker {
		s.PerWorker[i] = int(c.perWorker[i].Load())
	}
	c.mu.Unlock()
	if secs := s.Elapsed.Seconds(); secs > 0 {
		s.PerSecond = float64(s.Done) / secs
	}
	return s
}

// Map computes fn(0..n-1) over the configured workers and returns the
// results indexed by input position: out[i] == fn(i) no matter which
// worker ran it or when it finished. fn must be safe for concurrent
// invocation when Workers > 1 (webracer runs are: each builds its own
// browser, loader and RNG).
//
// On cancellation Map returns the context error; out is still n long and
// holds the results of the items that completed (zero values elsewhere).
//
// A panic in fn does not crash the sweep: the item's slot keeps its zero
// value, every other item still runs, and the panics are returned joined
// into the error (extract them with Panics).
func Map[T any](opts Options, n int, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	w := opts.workers()
	ctx := opts.ctx()
	if opts.Counters != nil {
		opts.Counters.Begin(n, w)
	}
	var mu sync.Mutex
	var panics []error
	run := func(worker, i int) {
		v, pe := runItem(opts.Counters, worker, i, fn)
		out[i] = v
		if pe != nil {
			mu.Lock()
			panics = append(panics, pe)
			mu.Unlock()
		}
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return out, errors.Join(append(panics, err)...)
			}
			run(0, i)
		}
		return out, errors.Join(panics...)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				run(worker, i)
			}
		}(wi)
	}
	wg.Wait()
	return out, errors.Join(append(panics, ctx.Err())...)
}

// Each computes fn(0..n-1) over the configured workers and delivers each
// result to sink strictly in input order, buffering at most 4 × workers
// undelivered results: workers stall rather than run more than that many
// items ahead of the delivery point, bounding memory for sweeps whose
// results are large (recorded traces, full sessions) or whose n is
// unbounded. A non-nil error from sink stops the sweep and is returned.
//
// A panic in fn does not crash the sweep: the panicked item is skipped —
// sink never sees it — the remaining items still run and are delivered in
// order, and the panics are joined into the returned error (extract them
// with Panics).
func Each[T any](opts Options, n int, fn func(i int) T, sink func(i int, v T) error) error {
	w := opts.workers()
	ctx := opts.ctx()
	if opts.Counters != nil {
		opts.Counters.Begin(n, w)
	}
	var panicsMu sync.Mutex
	var panics []error
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return errors.Join(append(panics, err)...)
			}
			v, pe := runItem(opts.Counters, 0, i, fn)
			if pe != nil {
				panics = append(panics, pe)
				continue
			}
			if err := sink(i, v); err != nil {
				return errors.Join(append(panics, err)...)
			}
		}
		return errors.Join(panics...)
	}

	window := 4 * w
	type slot struct {
		i  int
		v  T
		pe *PanicError
	}
	// tickets admits an item only once the delivery point is within
	// `window` of it; results carries finished items to the collector.
	tickets := make(chan int)
	results := make(chan slot, window)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range tickets {
				if cctx.Err() != nil {
					return
				}
				v, pe := runItem(opts.Counters, worker, i, fn)
				if pe != nil {
					panicsMu.Lock()
					panics = append(panics, pe)
					panicsMu.Unlock()
				}
				select {
				case results <- slot{i, v, pe}:
				case <-cctx.Done():
					return
				}
			}
		}(wi)
	}

	// Dispatcher: issues index i only after index i-window was delivered.
	delivered := make(chan struct{}, window)
	go func() {
		defer close(tickets)
		for i := 0; i < n; i++ {
			if i >= window {
				select {
				case <-delivered:
				case <-cctx.Done():
					return
				}
			}
			select {
			case tickets <- i:
			case <-cctx.Done():
				return
			}
		}
	}()

	// Collector: reorders into input order and feeds sink. The token
	// accounting never blocks: undelivered issued items ≤ window, so
	// `results` holds ≤ window slots and `delivered` ≤ window tokens.
	// Panicked slots still occupy their position — they advance the
	// delivery point like any result — but are never handed to sink.
	buf := make(map[int]slot, window)
	next := 0
	var sinkErr error
	for next < n && sinkErr == nil && cctx.Err() == nil {
		if s, ok := buf[next]; ok {
			delete(buf, next)
			if s.pe == nil {
				if err := sink(next, s.v); err != nil {
					sinkErr = err
					break
				}
			}
			next++
			select {
			case delivered <- struct{}{}:
			case <-cctx.Done():
			}
			continue
		}
		select {
		case s := <-results:
			buf[s.i] = s
		case <-cctx.Done():
		}
	}
	cancel()
	wg.Wait()
	panicsMu.Lock()
	defer panicsMu.Unlock()
	if sinkErr != nil {
		return errors.Join(append(panics, sinkErr)...)
	}
	return errors.Join(append(panics, ctx.Err())...)
}
