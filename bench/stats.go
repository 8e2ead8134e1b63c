package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the guide's rule for tail percentiles: a percentile is
// reported only when at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of an ascending
// slice. Above the median it refuses when fewer than minBeyond samples
// lie beyond the returned one, so a tail is never read off a handful of
// outliers.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g out of (0,100)", p)
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; p > 50 && beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sorted[idx], nil
}

// tailPercentile is percentile for a run that must always print a
// number: when p is refused it returns the highest percentile the
// sample does support (the one with exactly minBeyond samples beyond
// it, never below the median).
func tailPercentile(sorted []float64, p float64) float64 {
	if v, err := percentile(sorted, p); err == nil {
		return v
	}
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := n - 1 - minBeyond
	if mid := (n+1)/2 - 1; idx < mid {
		idx = mid
	}
	return sorted[idx]
}

// median returns the nearest-rank median without reordering values.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s[(len(s)+1)/2-1]
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// ratio is a/b with 0 for an empty base, so a counter that never fired
// reads 0 instead of NaN in the JSON.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
