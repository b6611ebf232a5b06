// Package rng provides the deterministic pseudo-random number generator used
// by every randomized component in this repository.
//
// The generator is xoshiro256** (Blackman & Vigna) seeded through SplitMix64.
// We deliberately do not use math/rand: simulation results must be
// bit-reproducible across Go releases given a seed, and the experiment
// harness relies on deriving independent streams for parallel trials
// (see Split and NewStream) so that results are independent of GOMAXPROCS
// and goroutine scheduling.
//
// A Source is NOT safe for concurrent use; give each goroutine its own
// stream.
package rng

import (
	"errors"
	"math"
	"math/bits"
)

// Source is a xoshiro256** generator. The zero value is not usable; obtain
// one from New, NewStream or Split.
type Source struct {
	s [4]uint64
}

// golden is the SplitMix64 increment (2^64 / phi, odd).
const golden = 0x9E3779B97F4A7C15

// splitmix64 advances *x and returns the next SplitMix64 output. It is used
// for seeding and stream derivation only, never for simulation draws.
func splitmix64(x *uint64) uint64 {
	*x += golden
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds yield (with
// overwhelming probability) non-overlapping sequences: the 256-bit state is
// filled by four SplitMix64 outputs, as recommended by the xoshiro authors.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// NewStream returns a Source for a (seed, stream) pair. It is the canonical
// way to give each parallel trial its own independent generator: streams
// derived from the same seed but different stream indices are statistically
// independent.
func NewStream(seed, stream uint64) *Source {
	// Mix the stream index through SplitMix64 so that consecutive stream
	// indices land far apart in seed space.
	x := seed
	a := splitmix64(&x)
	x ^= stream * golden
	b := splitmix64(&x)
	return New(a ^ bits.RotateLeft64(b, 31))
}

// Reseed resets the generator state from seed, as New does.
func (r *Source) Reseed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// A state of all zeros is the single invalid xoshiro state; SplitMix64
	// cannot produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = golden
	}
}

// Split derives a new independent Source from r, advancing r. Successive
// calls yield distinct streams. This is used when a component needs to hand
// private generators to sub-components deterministically.
func (r *Source) Split() *Source {
	return NewStream(r.Uint64(), r.Uint64())
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// jumpPoly is the polynomial for Jump (advances 2^128 steps).
var jumpPoly = [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}

// Jump advances the generator by 2^128 steps, equivalent to 2^128 calls of
// Uint64. It can be used to partition one seed into up to 2^128
// non-overlapping subsequences of length 2^128 each.
func (r *Source) Jump() {
	var s [4]uint64
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				s[0] ^= r.s[0]
				s[1] ^= r.s[1]
				s[2] ^= r.s[2]
				s[3] ^= r.s[3]
			}
			r.Uint64()
		}
	}
	r.s = s
}

// State returns a copy of the raw 256-bit state, for checkpointing.
func (r *Source) State() [4]uint64 { return r.s }

// SetState restores a state captured with State. It returns an error if the
// state is all zeros (the single invalid xoshiro state).
func (r *Source) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return errors.New("rng: all-zero state is invalid")
	}
	r.s = s
	return nil
}

// Uint64n returns a uniform value in [0, n) using Lemire's nearly divisionless
// method; it is unbiased for every n ≥ 1. It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n // == (2^64 - n) mod n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Fill32n sets dst[i] to a uniform value in [0, n) for every i, in index
// order: the values, and the final state, of len(dst) successive
// Uint64n(n) calls. It is the bulk form the stepping layers draw
// destinations with — the generator state and Lemire's rejection threshold
// stay in locals for the whole batch instead of round-tripping through
// memory and two calls per draw. The threshold -n % n is below n, so
// rejecting iff lo < thresh is exactly Uint64n's test. It panics unless
// 1 ≤ n ≤ 2³¹, so that every value fits an int32.
func (r *Source) Fill32n(dst []int32, n uint64) {
	if n == 0 || n > 1<<31 {
		panic("rng: Fill32n bound outside [1, 2^31]")
	}
	thresh := -n % n
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		for {
			x := bits.RotateLeft64(s1*5, 7) * 9
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = bits.RotateLeft64(s3, 45)
			hi, lo := bits.Mul64(x, n)
			if lo >= thresh {
				dst[i] = int32(hi)
				break
			}
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int32n returns a uniform int32 in [0, n). It panics if n <= 0.
func (r *Source) Int32n(n int32) int32 {
	if n <= 0 {
		panic("rng: Int32n with n <= 0")
	}
	return int32(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ExpFloat64 returns an exponentially distributed value with rate 1
// (mean 1), by inversion.
func (r *Source) ExpFloat64() float64 {
	// 1 - Float64() is in (0, 1], so the log is finite.
	return -math.Log(1 - r.Float64())
}

// NormFloat64 returns a standard normal value using the Marsaglia polar
// method.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap, with the
// Fisher–Yates algorithm.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rng: Shuffle with n < 0")
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Geometric returns the number of failures before the first success in
// Bernoulli(p) trials (support {0, 1, 2, ...}), by inversion. p must be in
// (0, 1].
func (r *Source) Geometric(p float64) int64 {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs p in (0,1]")
	}
	if p == 1 {
		return 0
	}
	// floor(log(U) / log(1-p)) with U in (0,1].
	u := 1 - r.Float64()
	return int64(math.Log(u) / math.Log1p(-p))
}
