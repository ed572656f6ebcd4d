package webracer

import (
	"runtime"
	"testing"
)

// coldRunBytesCeiling bounds the mean bytes one cold RunConfig allocates
// over corpus pages 0–99 (corpus seed 1, run seeds 1000+k, the
// DetectorRunCorpusCold set). It is the highest mean of the runs measured
// when it was last set, plus 5%: 15 runs (10 of this test alone, 5 inside
// the full package) read 417 288–430 029 bytes per run on an Intel Xeon
// with 2 vCPUs and go1.24. The figure is process-wide TotalAlloc, so it
// also counts whatever other goroutines allocate meanwhile. Lower it when
// a change cuts allocation; `make allocs` shows which layer a rise comes
// from.
const coldRunBytesCeiling = 452_000

// TestColdRunBytes fails when a cold run allocates more than
// coldRunBytesCeiling bytes on average: allocation per run is gated like
// any other output, not left to a benchmark nobody reruns.
func TestColdRunBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops items, so bytes per run are not comparable")
	}
	const pages = 100
	gen := corpusGen(1)
	for k := 0; k < 2; k++ { // warm the process-wide pools and memos
		RunConfig(gen(k), DefaultConfig(int64(1000+k)))
	}
	runtime.GC() // start every measurement from the same pool and heap state
	var total uint64
	var before, after runtime.MemStats
	for k := 0; k < pages; k++ {
		site := gen(k)
		runtime.ReadMemStats(&before)
		RunConfig(site, DefaultConfig(int64(1000+k)))
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	mean := total / pages
	t.Logf("cold run: %d bytes per run (ceiling %d)", mean, coldRunBytesCeiling)
	if mean > coldRunBytesCeiling {
		t.Errorf("a cold run allocates %d bytes on average, over the %d-byte ceiling", mean, coldRunBytesCeiling)
	}
}
