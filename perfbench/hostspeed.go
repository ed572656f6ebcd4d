package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"
)

// The benchmark's time metrics are reported at a reference host speed.
//
// On a host that shares its cores with other machines' work, the speed of
// webracer's code drifts by tens of percent over minutes, and every time
// metric of a run moves with it: on the 2-vCPU VM this benchmark was
// defined on, detect-cold's CPU time per request ranged over 1.40–2.28 ms
// within ten minutes, and ten runs of it spread by up to 34% between
// quartiles. A run therefore also times a fixed compute kernel at its
// start and right before and after every stretch of the timed phase, and
// multiplies its times by refKernelMS over the kernel's median block time
// (throughput it divides by that factor). The kernel is the benchmark's
// own code and calls none of webracer's, so a change to webracer moves the
// scaled figures exactly as much as the raw ones.
//
// The kernel is integer work on a buffer that stays in the core's caches.
// An allocation-heavy kernel (a tree of records in maps, encoded to JSON
// and back) was tried first and dropped: at times the host slowed it twice
// as much as it slowed webracer, so scaling by it made the figures
// noisier, not steadier. Every run prints its raw figures and the factor.

// refKernelMS is the time of one kernel block on the reference host: the
// 2-vCPU VM this benchmark was defined on, at a quiet time.
const refKernelMS = 22.5

// kernelPasses is the number of FNV-1a passes over kernelBuf in a block.
const kernelPasses = 256

var kernelBuf = make([]byte, 64<<10)

// hostClock collects kernel block times over a run.
type hostClock struct {
	blocks []float64 // ms
	sink   uint64    // keeps the kernel's result alive
}

// sample times one kernel block, after a collection so that no collection
// of the run's own garbage runs beside it.
func (h *hostClock) sample() {
	runtime.GC()
	start := time.Now()
	for k := 0; k < kernelPasses; k++ {
		f := fnv.New64a()
		f.Write(kernelBuf)
		h.sink += f.Sum64()
	}
	h.blocks = append(h.blocks, ms(time.Since(start)))
}

// scale is the factor that turns a time measured in this run into the
// same time at the reference host speed.
func (h *hostClock) scale() float64 { return ratio(refKernelMS, median(h.blocks)) }

// String reports the block time and the factor.
func (h *hostClock) String() string {
	return fmt.Sprintf("kernel %.3f ms per block (median of %d; %.1f on the reference host), times scaled by %.4f",
		median(h.blocks), len(h.blocks), refKernelMS, h.scale())
}
