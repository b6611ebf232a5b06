// Package config generates initial load configurations (the "arbitrary"
// starting assignments of the paper) and provides the legitimacy predicate.
//
// A configuration is a vector q of n bin loads with Σq = m. The paper takes
// m = n; the generators accept general m for the §5 open-question
// experiments (E13). A configuration is legitimate when its maximum load is
// at most Beta·ln(n) (Theorem 1's O(log n) with an explicit constant; Beta
// is exported so experiments can report sensitivity to it).
//
// # Range form
//
// A Start serves a configuration a bin range at a time (Start.Fill), so a
// sharded run builds each shard from its own range and never holds the
// whole start as an []int32. one-per-bin and all-in-one compute any range
// in closed form. uniform and zipf draw their one global sequence from the
// caller's source — the whole run's draws, in the order Make has always
// made them — into one whole-run vector when the Start is made, and serve
// ranges from it: that draw order is the seed contract, so a range never
// depends on how the run is partitioned.
package config

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/rng"
)

// Beta is the default legitimacy constant: a configuration is legitimate
// when max load ≤ Beta·ln n. The paper's Theorem 1 shows stability holds
// with some absolute constant; empirically the window maximum over long
// polynomial windows reaches ≈ 4·ln n (its stationary tail exponent is
// ≈ 0.54, see E07/E11), so Beta = 6 gives a legitimate set the process
// provably-in-practice stays inside while still being Θ(log n).
const Beta = 6.0

// LegitimateThreshold returns the maximum load allowed for a legitimate
// configuration of n bins: ceil(beta * ln n), and at least 1.
func LegitimateThreshold(n int, beta float64) int32 {
	if n < 2 {
		return 1
	}
	t := int32(math.Ceil(beta * math.Log(float64(n))))
	if t < 1 {
		t = 1
	}
	return t
}

// IsLegitimate reports whether loads has maximum load ≤ Beta·ln n with the
// default constant.
func IsLegitimate(loads []int32) bool {
	return MaxLoad(loads) <= LegitimateThreshold(len(loads), Beta)
}

// MaxLoad returns the maximum entry of loads (0 for an empty slice).
func MaxLoad(loads []int32) int32 {
	var max int32
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}

// OnePerBin returns the perfectly balanced configuration of n balls in n
// bins — the canonical legitimate start for the stability experiments.
func OnePerBin(n int) []int32 {
	loads := make([]int32, n)
	for i := range loads {
		loads[i] = 1
	}
	return loads
}

// AllInOne returns the worst-case configuration: all m balls in bin 0.
// This is the adversarial start for the convergence experiments (Theorem
// 1(b), Lemma 4).
func AllInOne(n, m int) []int32 {
	loads := make([]int32, n)
	if n > 0 {
		loads[0] = int32(m)
	}
	return loads
}

// UniformRandom throws m balls independently and uniformly at random into n
// bins — the classical one-shot balls-into-bins configuration, whose max
// load is Θ(log n / log log n) w.h.p. for m = n.
func UniformRandom(n, m int, r *rng.Source) []int32 {
	loads := make([]int32, n)
	for i := 0; i < m; i++ {
		loads[r.Intn(n)]++
	}
	return loads
}

// Zipf throws m balls into n bins with bin popularity following a Zipf(s)
// law over a random permutation of the bins: a skewed but not degenerate
// illegitimate start.
func Zipf(n, m int, s float64, r *rng.Source) ([]int32, error) {
	z, err := dist.NewZipf(n, s)
	if err != nil {
		return nil, err
	}
	perm := r.Perm(n)
	loads := make([]int32, n)
	for i := 0; i < m; i++ {
		loads[perm[z.Sample(r)]]++
	}
	return loads, nil
}

// Generator names a configuration family; used by CLI flags and the
// experiment definitions.
type Generator string

// Supported generators.
const (
	GenOnePerBin Generator = "one-per-bin"
	GenAllInOne  Generator = "all-in-one"
	GenUniform   Generator = "uniform"
	GenZipf      Generator = "zipf"
)

// Generators lists the supported generator names.
func Generators() []Generator {
	return []Generator{GenOnePerBin, GenAllInOne, GenUniform, GenZipf}
}

// Start is a named generator's configuration of m balls in n bins, served
// a bin range at a time by Fill. Make one with NewStart.
type Start struct {
	gen   Generator
	m     int
	loads []int32 // the drawn vector of uniform and zipf; nil for the closed forms
}

// NewStart validates a generator's parameters and, for uniform and zipf,
// draws the whole configuration from r (see the package doc). r may be nil
// for the deterministic generators.
func NewStart(g Generator, n, m int, r *rng.Source) (*Start, error) {
	if n < 1 {
		return nil, fmt.Errorf("config: n = %d < 1", n)
	}
	if m < 0 {
		return nil, fmt.Errorf("config: m = %d < 0", m)
	}
	// A bin's load is an int32, and every generator but one-per-bin (one
	// ball a bin, m = n) can put all m balls in one bin.
	if m > math.MaxInt32 && g != GenOnePerBin {
		return nil, fmt.Errorf("config: m = %d > %d, the most balls one bin can hold", m, math.MaxInt32)
	}
	st := &Start{gen: g, m: m}
	switch g {
	case GenOnePerBin:
		if m != n {
			return nil, fmt.Errorf("config: %s requires m == n (got m=%d n=%d)", g, m, n)
		}
	case GenAllInOne:
	case GenUniform:
		if r == nil {
			return nil, fmt.Errorf("config: %s requires a random source", g)
		}
		st.loads = UniformRandom(n, m, r)
	case GenZipf:
		if r == nil {
			return nil, fmt.Errorf("config: %s requires a random source", g)
		}
		loads, err := Zipf(n, m, 1.2, r)
		if err != nil {
			return nil, err
		}
		st.loads = loads
	default:
		return nil, fmt.Errorf("config: unknown generator %q", g)
	}
	return st, nil
}

// Fill writes the loads of bins [lo, lo+len(dst)) into dst; the range
// must lie inside the start's n bins.
func (st *Start) Fill(lo int, dst []int32) {
	switch {
	case st.loads != nil:
		copy(dst, st.loads[lo:lo+len(dst)])
	case st.gen == GenOnePerBin:
		for i := range dst {
			dst[i] = 1
		}
	default: // all-in-one
		clear(dst)
		if lo == 0 && len(dst) > 0 {
			dst[0] = int32(st.m)
		}
	}
}

// Make builds a configuration of m balls in n bins from a named generator:
// the whole range of NewStart(g, n, m, r). r may be nil for the
// deterministic generators.
func Make(g Generator, n, m int, r *rng.Source) ([]int32, error) {
	st, err := NewStart(g, n, m, r)
	if err != nil {
		return nil, err
	}
	if st.loads != nil {
		return st.loads, nil
	}
	loads := make([]int32, n)
	st.Fill(0, loads)
	return loads, nil
}
