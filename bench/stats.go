package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method), so
// compare reports the same spread a reader computes from the raw values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle value of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapAllocs returns the bytes the process has allocated on the heap so
// far; differences between two reads measure a call's allocation.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
