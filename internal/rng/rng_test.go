package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds matched %d/1000 draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 17, 256, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const n, draws = 8, 80000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want ≈%.0f", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ≈0.5", mean)
	}
}

func TestBernoulli(t *testing.T) {
	r := New(5)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	if p := float64(hits) / draws; math.Abs(p-0.25) > 0.01 {
		t.Fatalf("Bernoulli(0.25) rate = %v", p)
	}
}

func TestPerm(t *testing.T) {
	r := New(9)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

// TestFractalDistanceDistribution verifies the 2^(1-d) law of Fig 10:
// distance 2 with probability 1/2, distance 3 with 1/4, etc.
func TestFractalDistanceDistribution(t *testing.T) {
	r := New(1234)
	const draws = 1 << 20
	counts := map[int]int{}
	for i := 0; i < draws; i++ {
		d := FractalDistance(r.Uint16())
		if d < 2 || d > 18 {
			t.Fatalf("FractalDistance = %d out of [2,18]", d)
		}
		counts[d]++
	}
	for d := 2; d <= 8; d++ {
		want := float64(draws) * math.Pow(2, float64(1-d))
		got := float64(counts[d])
		if math.Abs(got-want) > 6*math.Sqrt(want) {
			t.Errorf("distance %d: %v draws, want ≈%v", d, got, want)
		}
	}
}

func TestFractalDistanceEdges(t *testing.T) {
	if d := FractalDistance(0x8000); d != 2 {
		t.Errorf("FractalDistance(0x8000) = %d, want 2", d)
	}
	if d := FractalDistance(0x4000); d != 3 {
		t.Errorf("FractalDistance(0x4000) = %d, want 3", d)
	}
	if d := FractalDistance(0x0001); d != 17 {
		t.Errorf("FractalDistance(0x0001) = %d, want 17", d)
	}
	if d := FractalDistance(0); d != 18 {
		t.Errorf("FractalDistance(0) = %d, want 18", d)
	}
}

// Property: Intn output is always within range for arbitrary seeds/bounds.
func TestIntnProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 32; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint16Coverage(t *testing.T) {
	r := New(77)
	var hi, lo bool
	for i := 0; i < 10000; i++ {
		v := r.Uint16()
		if v >= 0x8000 {
			hi = true
		} else {
			lo = true
		}
	}
	if !hi || !lo {
		t.Fatal("Uint16 not covering both halves of its range")
	}
}

func TestUint32AndInt63n(t *testing.T) {
	r := New(21)
	var hi, lo bool
	for i := 0; i < 10000; i++ {
		if v := r.Uint32(); v >= 1<<31 {
			hi = true
		} else {
			lo = true
		}
	}
	if !hi || !lo {
		t.Fatal("Uint32 not covering range")
	}
	for _, n := range []int64{1, 7, 1 << 40} {
		for i := 0; i < 100; i++ {
			if v := r.Int63n(n); v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d", n, v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Int63n(0) did not panic")
		}
	}()
	r.Int63n(0)
}

// TestSeedMatchesNew: reseeding a Source in place, even one that has
// already drawn, gives exactly New's stream for that seed.
func TestSeedMatchesNew(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		r.Uint64()
	}
	for _, seed := range []uint64{0, 7, 1 << 63, ^uint64(0)} {
		r.Seed(seed)
		want := New(seed)
		for i := 0; i < 1000; i++ {
			if got, w := r.Uint64(), want.Uint64(); got != w {
				t.Fatalf("seed %d draw %d: Seed gives %#x, New %#x", seed, i, got, w)
			}
		}
	}
}
