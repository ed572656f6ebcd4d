package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrdering: results land at their input index at every worker
// count, including worker counts far above the item count.
func TestMapOrdering(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8, 32} {
		out, err := Map(Options{Workers: w}, 100, func(i int) int { return i * i })
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

// TestMapEmpty: n == 0 is a no-op at any worker count.
func TestMapEmpty(t *testing.T) {
	out, err := Map(Options{Workers: 4}, 0, func(i int) int { return i })
	if err != nil || len(out) != 0 {
		t.Fatalf("got %v, %v", out, err)
	}
}

// TestEachOrdering: sink sees items strictly in input order.
func TestEachOrdering(t *testing.T) {
	for _, w := range []int{1, 3, 8} {
		var got []int
		err := Each(Options{Workers: w},
			50,
			func(i int) int { return i + 1000 },
			func(i, v int) error {
				if v != i+1000 {
					t.Fatalf("workers=%d: sink(%d) got %d", w, i, v)
				}
				got = append(got, i)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: delivered %d of 50", w, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: delivery order broken at %d: %v", w, i, v)
			}
		}
	}
}

// TestEachWindowBound: with w workers, no item may start while the
// delivery point trails it by more than the window, 4 × w.
func TestEachWindowBound(t *testing.T) {
	const workers = 4
	const window = 4 * workers
	var delivered atomic.Int64
	err := Each(Options{Workers: workers},
		60,
		func(i int) int {
			if d := int(delivered.Load()); i > d+window {
				t.Errorf("item %d started with only %d delivered (window %d)", i, d, window)
			}
			return i
		},
		func(i, v int) error {
			delivered.Add(1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEachSinkError: a sink error stops the sweep and is returned.
func TestEachSinkError(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	err := Each(Options{Workers: 4}, 1000,
		func(i int) int { return i },
		func(i, v int) error {
			ran++
			if i == 5 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran != 6 {
		t.Fatalf("sink ran %d times, want 6", ran)
	}
}

// TestMapCancel: cancellation stops dispatch promptly and is reported.
func TestMapCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	_, err := Map(Options{Workers: 2, Ctx: ctx}, 10_000, func(i int) int {
		if started.Add(1) == 3 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return i
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if n := started.Load(); n > 100 {
		t.Fatalf("%d items started after cancel", n)
	}
}

// TestEachCancel: same for the streaming path.
func TestEachCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	err := Each(Options{Workers: 4, Ctx: ctx}, 10_000,
		func(i int) int { time.Sleep(100 * time.Microsecond); return i },
		func(i, v int) error {
			if seen.Add(1) == 5 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
}

// TestCounters: totals add up and throughput is populated.
func TestCounters(t *testing.T) {
	var c Counters
	_, err := Map(Options{Workers: 4, Counters: &c}, 200, func(i int) int { return i })
	if err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.Done != 200 || s.Total != 200 || s.InFlight != 0 {
		t.Fatalf("snapshot %+v", s)
	}
	sum := 0
	for _, n := range s.PerWorker {
		sum += n
	}
	if sum != 200 {
		t.Fatalf("per-worker sum %d, want 200", sum)
	}
	if s.PerSecond <= 0 {
		t.Fatalf("throughput %v", s.PerSecond)
	}
}

// TestMapPanicRecovered: a panicking item does not take down the sweep —
// every other item completes, the panicked slot holds the zero value, and
// the panic surfaces as a PanicError carrying the failing index.
func TestMapPanicRecovered(t *testing.T) {
	for _, w := range []int{1, 4} {
		out, err := Map(Options{Workers: w}, 20, func(i int) int {
			if i == 7 {
				panic("injected worker crash")
			}
			return i + 1
		})
		if err == nil {
			t.Fatalf("workers=%d: panic not reported", w)
		}
		pes := Panics(err)
		if len(pes) != 1 || pes[0].Index != 7 {
			t.Fatalf("workers=%d: Panics = %+v", w, pes)
		}
		if pes[0].Value != "injected worker crash" || pes[0].Stack == "" {
			t.Fatalf("workers=%d: panic detail %+v", w, pes[0])
		}
		for i, v := range out {
			want := i + 1
			if i == 7 {
				want = 0 // zero value at the panicked slot
			}
			if v != want {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, want)
			}
		}
	}
}

// TestEachPanicSkipsSink: the panicked item is skipped — sink never sees
// it — but in-order delivery of everything else is preserved.
func TestEachPanicSkipsSink(t *testing.T) {
	for _, w := range []int{1, 4} {
		var got []int
		err := Each(Options{Workers: w}, 30,
			func(i int) int {
				if i == 11 {
					panic(i)
				}
				return i
			},
			func(i, v int) error {
				got = append(got, i)
				return nil
			})
		pes := Panics(err)
		if len(pes) != 1 || pes[0].Index != 11 {
			t.Fatalf("workers=%d: Panics = %+v (err %v)", w, pes, err)
		}
		if len(got) != 29 {
			t.Fatalf("workers=%d: delivered %d of 29", w, len(got))
		}
		want := 0
		for _, i := range got {
			if i == 11 {
				t.Fatalf("workers=%d: sink saw the panicked item", w)
			}
			if want == 11 {
				want++
			}
			if i != want {
				t.Fatalf("workers=%d: delivery order broken: %v", w, got)
			}
			want++
		}
	}
}

// TestPanicsNil: no panics, no extraction.
func TestPanicsNil(t *testing.T) {
	if pes := Panics(nil); pes != nil {
		t.Fatalf("Panics(nil) = %v", pes)
	}
	if pes := Panics(errors.New("plain")); len(pes) != 0 {
		t.Fatalf("Panics(plain) = %v", pes)
	}
}

// TestSerialInline: Workers == 1 must run on the calling goroutine so the
// serial entry points keep their exact execution profile.
func TestSerialInline(t *testing.T) {
	var c Counters
	order := []int{}
	_, err := Map(Options{Workers: 1, Counters: &c}, 5, func(i int) int {
		order = append(order, i) // safe: inline, single goroutine
		return i
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order broken: %v", order)
		}
	}
}
