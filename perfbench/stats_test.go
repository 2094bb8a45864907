package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{1, 3, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		n, perMille int
		want        float64
	}{
		{100, 900, 90},
		{100, 500, 50},
		{120, 900, 108},
		{504, 980, 494},
		{1000, 999, 999},
		{1, 900, 1},
	} {
		if got := percentile(seq(c.n), c.perMille); got != c.want {
			t.Errorf("percentile(1..%d, %d‰) = %v, want %v", c.n, c.perMille, got, c.want)
		}
	}
}

func TestTailPerMille(t *testing.T) {
	for n := 0; n < 11; n++ {
		if p, ok := tailPerMille(n); ok {
			t.Errorf("n=%d: tail p%s reported, want it omitted", n, perMilleString(p))
		}
	}
	for _, c := range []struct{ n, want int }{
		{20, 500}, {100, 900}, {120, 900}, {446, 970}, {504, 980}, {1000, 990}, {10000, 999},
	} {
		p, ok := tailPerMille(c.n)
		if !ok || p != c.want {
			t.Errorf("n=%d: tail p%s (ok=%v), want p%s", c.n, perMilleString(p), ok, perMilleString(c.want))
			continue
		}
		if beyond := c.n - rank(c.n, p); beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%s", c.n, beyond, perMilleString(p))
		}
	}
}

// The expected spreads are what statistics.quantiles(xs, n=4) gives in
// CPython, as (q3 - q1) / median.
func TestQuartileSpread(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{seq(10), (8.25 - 2.75) / 5.5},
		{[]float64{1, 2}, (2.25 - 0.75) / 1.5},
		{[]float64{10, 10, 10, 11, 12}, (11.5 - 10) / 10},
		{[]float64{5}, 0},
	} {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
