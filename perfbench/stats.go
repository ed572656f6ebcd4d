package main

import (
	"sort"
	"time"
)

// nearestRank returns the pct-th percentile (1 ≤ pct ≤ 100) of the
// samples by the nearest-rank method: the smallest sample such that at
// least pct% of all samples are less than or equal to it. The rank is
// computed in integers, so p95 of 20 samples is exactly the 19th value
// rather than whatever 0.95·20 rounds to in floating point. The input is
// not modified; an empty input yields 0.
func nearestRank(samples []float64, pct int) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := (pct*n + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(samples []float64) float64 { return nearestRank(samples, 50) }

// mean is the arithmetic mean; 0 for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms and us convert a duration to fractional milliseconds/microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
