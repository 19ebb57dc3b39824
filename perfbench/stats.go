package main

import (
	"math"
	"sort"
	"syscall"
)

// nearestRank returns the q-th percentile of xs by the nearest-rank
// rule: the value at 1-based rank ceil(q/100 · n) of the sorted samples;
// 0 when there are none.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(len(s), q)-1]
}

func rankOf(n int, q float64) int {
	r := int(math.Ceil(q / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

func median(xs []float64) float64 { return nearestRank(xs, 50) }

// tailLadder lists the percentiles latency_ms_tail may report, highest
// first: the conventional ones.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest ladder percentile that leaves at
// least ten samples above it at n samples, and how many it leaves.
func tailPercentile(n int) (q float64, above int) {
	for _, q := range tailLadder {
		if above := n - rankOf(n, q); above >= 10 {
			return q, above
		}
	}
	q = tailLadder[len(tailLadder)-1]
	return q, n - rankOf(n, q)
}

// ratio returns a/b, or 0 when b is 0 (a layer the sample never
// reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size (getrusage maxrss,
// which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}
