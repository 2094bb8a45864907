package main

import "sort"

// tailLadder lists the percentiles, in tenths of a percent, a tail may be
// reported at, highest first.
var tailLadder = []int{999, 990, 980, 970, 950, 900, 750, 500}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values when
// len(xs) is even), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank percentile of xs at perMille tenths
// of a percent: the smallest sample with at least that share of samples at
// or below it. It returns 0 for no samples. xs is not modified.
func percentile(xs []float64, perMille int) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(len(xs), perMille)-1]
}

// tailPerMille returns the highest ladder percentile of n samples that has
// at least minBeyond samples beyond it; ok is false when no ladder entry
// has, so the tail is omitted.
func tailPerMille(n int) (perMille int, ok bool) {
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// rank is the 1-based nearest-rank position of the perMille percentile of
// n samples, in integer arithmetic so 90% of 100 is exactly rank 90.
func rank(n, perMille int) int {
	r := (n*perMille + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartileSpread returns the distance between the first and third quartiles
// of xs as a share of its median, with quartiles computed as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method). It returns 0
// for fewer than two samples or a zero median.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := sorted(xs)
	q := func(i int) float64 {
		// CPython's exclusive method, clamp and extrapolation included.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	d := (q(3) - q(1)) / m
	if d < 0 {
		d = -d
	}
	return d
}
