package rng

import "math/bits"

// Source is a deterministic xoshiro256** pseudo-random generator.
// The zero value is invalid; construct with New or Seed. The state lives in
// four scalar fields (not an array) to keep Uint64 within the compiler's
// mid-stack inlining budget — the per-draw call overhead is visible in both
// the event loop's per-activation draws and the prewarm's two-draws-per-line
// loop.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed via splitmix64, so that nearby seeds
// give uncorrelated streams.
func New(seed uint64) *Source {
	r := new(Source)
	r.Seed(seed)
	return r
}

// Seed resets r to the stream New(seed) returns, in place: a Source held
// by value (a DRAM bank's) is reseeded without allocating a new one.
func (r *Source) Seed(seed uint64) {
	var state [4]uint64
	sm := seed
	for i := range state {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		state[i] = z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = state[0], state[1], state[2], state[3]
	// A handful of warm-up draws to diffuse low-entropy seeds.
	for i := 0; i < 8; i++ {
		r.Uint64()
	}
}

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Uint32 returns 32 uniformly random bits.
func (r *Source) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Uint16 returns 16 uniformly random bits, the width of the register the
// paper's Fractal Mitigation hardware samples.
func (r *Source) Uint16() uint16 { return uint16(r.Uint64() >> 48) }

// Intn returns a uniformly random integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Int63n returns a uniformly random int64 in [0, n).
func (r *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int64(hi)
		}
	}
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// FractalDistance implements the Fractal Mitigation distance sampler of
// Fig 10(b): draw a 16-bit random number; the distance of the probabilistic
// victim-refresh pair is 2 plus the number of leading zeros. Distance 2 has
// probability 1/2, distance 3 probability 1/4, and so on (2^(1-d)); an
// all-zero draw (probability 2^-16) maps to the maximum distance 18, which
// the paper notes receives less than one refresh per 32ms even under
// continuous hammering.
func FractalDistance(rand16 uint16) int {
	return 2 + LeadingZeros16(rand16)
}

// LeadingZeros16 counts leading zeros in a 16-bit value (16 for zero).
func LeadingZeros16(v uint16) int { return bits.LeadingZeros16(v) }
