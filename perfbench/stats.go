package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailFloor is the number of samples that must lie beyond a tail
// percentile: with fewer, the "percentile" is one or two unlucky samples.
const tailFloor = 10

// Tail percentiles in per mille. Each workload fixes its tail percentile
// to the highest of p90, p99 and p99.9 that keeps tailFloor samples beyond
// it at the workload's smallest sample count. Choosing it per run instead
// would switch percentiles whenever a run's count crossed 100, 1,000 or
// 10,000 samples, and the figure would jump with it.
const (
	p90 = 900
	p99 = 990
)

// tail returns the nearest-rank percentile (in per mille) of xs, and
// whether at least tailFloor samples lie beyond it; below that floor there
// is no tail.
func tail(xs []float64, permille int) (float64, bool) {
	n := len(xs)
	rank := (permille*n + 999) / 1000 // ⌈permille·n/1000⌉
	if rank < 1 || n-rank < tailFloor {
		return 0, false
	}
	return sorted(xs)[rank-1], true
}

// tailOrMax is tail, falling back to the maximum below the sample floor;
// label names what was reported.
func tailOrMax(xs []float64, permille int) (v float64, label string) {
	if v, ok := tail(xs, permille); ok {
		return v, fmt.Sprintf("p%g", float64(permille)/10)
	}
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN(), "none"
	}
	return s[len(s)-1], "max"
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }
