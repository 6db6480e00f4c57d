package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles the tail latency is chosen
// from, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie above a reported percentile
// for it to be trusted.
const minBeyond = 10

// beyond is the number of samples strictly above the p-th percentile
// of n samples under the nearest-rank definition.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples: the smallest k with k >= p/100*n.
func rank(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n) - 1e-9)) // tolerate 99.9/100 rounding up
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailPercentile picks the highest ladder percentile with at least
// minBeyond samples beyond it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// sortedMS converts durations to sorted milliseconds.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// median returns the median of vs (mean of the middle pair for an even
// count) without reordering the caller's slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
