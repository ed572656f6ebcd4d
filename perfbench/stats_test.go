package main

import "testing"

// TestNearestRankHandComputed checks the quantile code against values
// worked out by hand with the nearest-rank definition
// (rank = ⌈pct/100 · n⌉, 1-based, over the sorted samples).
func TestNearestRankHandComputed(t *testing.T) {
	// Unsorted on purpose: sorted it is 15 20 35 40 50.
	five := []float64{40, 15, 50, 35, 20}
	for _, tc := range []struct {
		pct  int
		want float64
	}{
		{1, 15},   // ⌈0.05⌉ = 1
		{20, 15},  // ⌈1.0⌉  = 1
		{30, 20},  // ⌈1.5⌉  = 2
		{40, 20},  // ⌈2.0⌉  = 2
		{50, 35},  // ⌈2.5⌉  = 3
		{95, 50},  // ⌈4.75⌉ = 5
		{100, 50}, // ⌈5.0⌉  = 5
	} {
		if got := nearestRank(five, tc.pct); got != tc.want {
			t.Errorf("p%d of %v = %v, want %v", tc.pct, five, got, tc.want)
		}
	}
	if five[0] != 40 {
		t.Errorf("nearestRank sorted its input in place: %v", five)
	}

	// 1..20: p95 is rank ⌈19.0⌉ = 19 exactly; a rank computed in floating
	// point can land a hair off the integer and take a neighbour instead.
	twenty := make([]float64, 20)
	for i := range twenty {
		twenty[i] = float64(20 - i)
	}
	if got := nearestRank(twenty, 95); got != 19 {
		t.Errorf("p95 of 1..20 = %v, want 19", got)
	}
	if got := median(twenty); got != 10 {
		t.Errorf("p50 of 1..20 = %v, want 10", got)
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %v, want 0", got)
	}
}
