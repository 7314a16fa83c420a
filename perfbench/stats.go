package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs, up to p95, that has at
// least ten samples above it, and the percentile used. With fewer than
// eleven samples no percentile qualifies and the maximum is returned
// (percentile 100).
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 11 {
		return s[n-1], 100
	}
	// Index i has n-1-i samples above it.
	i := n - 11
	if p95 := int(math.Ceil(0.95*float64(n))) - 1; p95 < i {
		i = p95
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mix64 is the splitmix64 output permutation.
func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// deriveSeed gives the i-th seed of a named stream under the benchmark
// seed. Distinct (stream, i) pairs give independent seeds, and changing
// the benchmark seed changes every one of them.
func deriveSeed(base uint64, stream string, i int) uint64 {
	h := uint64(14695981039346656037)
	for j := 0; j < len(stream); j++ {
		h = (h ^ uint64(stream[j])) * 1099511628211
	}
	return mix64(mix64(base+0x9e3779b97f4a7c15) ^ mix64(h+uint64(i)*0x9e3779b97f4a7c15))
}

// allocMB returns the bytes allocated since before, in MB.
func allocMB(before runtime.MemStats) float64 {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return float64(now.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
