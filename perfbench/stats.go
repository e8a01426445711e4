package main

import (
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, the percentile itself, and the sample count. With ten
// samples or fewer there is no such percentile; the maximum is returned at
// percentile 100.
func tail(xs []float64) (v, pct float64, n int) {
	s := sorted(xs)
	n = len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n <= 10 {
		return s[n-1], 100, n
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n), n
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func secs(d time.Duration) float64 { return d.Seconds() }
