// Package markov implements the one-dimensional drift chain of Lemma 5:
//
//	Z_t = 0                    if Z_{t−1} = 0   (absorbing)
//	Z_t = Z_{t−1} − 1 + X_t    if Z_{t−1} ≥ 1
//
// with X_t i.i.d. Binomial(⌈3n/4⌉, 1/n). This is exactly the law of a
// single bin's load in the Tetris process until it first empties. The paper
// proves P_k(τ > t) ≤ e^{−t/144} for all t ≥ 8k, where τ is the absorption
// time from Z_0 = k.
//
// The package offers both Monte-Carlo absorption-time sampling and an exact
// tail computation by dynamic programming over the (truncated) state
// distribution, so the experiment harness can put the simulated, exact and
// bound curves side by side (experiment E6).
package markov

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/rng"
)

// Chain is the Lemma 5 chain for a given n. Create with NewChain.
type Chain struct {
	n      int
	trials int
	p      float64
	binom  *dist.Binomial
}

// NewChain builds the chain whose increment is X − 1 with
// X ~ Binomial(⌈3n/4⌉, 1/n).
func NewChain(n int) (*Chain, error) {
	if n < 2 {
		return nil, fmt.Errorf("markov: NewChain n = %d < 2", n)
	}
	trials := (3*n + 3) / 4
	p := 1.0 / float64(n)
	b, err := dist.NewBinomial(trials, p)
	if err != nil {
		return nil, err
	}
	return &Chain{n: n, trials: trials, p: p, binom: b}, nil
}

// N returns the bin-count parameter n.
func (c *Chain) N() int { return c.n }

// Drift returns E[X] − 1 = 3/4 − 1 + O(1/n), the per-step expected change
// while above zero (≈ −1/4, the negative balance of §3.1 step (i)).
func (c *Chain) Drift() float64 { return c.binom.Mean() - 1 }

// AbsorptionTime simulates the chain from state k and returns the first
// time it hits 0, capped at maxT (in which case ok is false).
func (c *Chain) AbsorptionTime(k int, maxT int64, r *rng.Source) (t int64, ok bool) {
	if k <= 0 {
		return 0, true
	}
	z := int64(k)
	for t = 1; t <= maxT; t++ {
		z += int64(c.binom.Sample(r)) - 1
		if z == 0 {
			return t, true
		}
	}
	return maxT, false
}

// TailMC estimates P_k(τ > t) for each t in ts by Monte Carlo with the
// given number of trials. ts must be sorted ascending.
func (c *Chain) TailMC(k int, ts []int64, trials int, r *rng.Source) ([]float64, error) {
	if trials < 1 {
		return nil, errors.New("markov: TailMC needs at least one trial")
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			return nil, errors.New("markov: TailMC times must be ascending")
		}
	}
	if len(ts) == 0 {
		return nil, nil
	}
	maxT := ts[len(ts)-1]
	surviving := make([]int64, len(ts))
	for i := 0; i < trials; i++ {
		tau, ok := c.AbsorptionTime(k, maxT, r)
		if !ok {
			tau = maxT + 1
		}
		for j, t := range ts {
			if tau > t {
				surviving[j]++
			}
		}
	}
	out := make([]float64, len(ts))
	for j, s := range surviving {
		out[j] = float64(s) / float64(trials)
	}
	return out, nil
}

// ExactTail computes P_k(τ > t) for t = 0..tmax by evolving the exact state
// distribution, truncated at state cap (mass escaping past cap is counted
// as surviving, so the result is an upper bound on the true tail and exact
// whenever escape mass is negligible). Choose cap ≳ k + 10·√tmax for
// 1e-12-level accuracy.
func (c *Chain) ExactTail(k, tmax, cap int) ([]float64, error) {
	if k < 0 {
		return nil, fmt.Errorf("markov: ExactTail k = %d < 0", k)
	}
	if cap < k+1 {
		return nil, fmt.Errorf("markov: ExactTail cap %d too small for k = %d", cap, k)
	}
	if tmax < 0 {
		return nil, fmt.Errorf("markov: ExactTail tmax = %d < 0", tmax)
	}
	// Increment PMF: P(X = j) for j = 0..support. The binomial has mean
	// ≈ 3/4, so all but ~1e-18 of its mass sits below j ≈ 30; trim the
	// support there (the discarded mass is re-normalized onto the retained
	// entries, keeping each step stochastic and the DP exact to float
	// precision).
	support := c.trials
	for support > 1 && c.binom.PMF(support) < 1e-18 {
		support--
	}
	inc := make([]float64, support+1)
	var incSum float64
	for j := 0; j <= support; j++ {
		inc[j] = c.binom.PMF(j)
		incSum += inc[j]
	}
	for j := range inc {
		inc[j] /= incSum
	}
	// p[s] = P(Z_t = s, not yet absorbed), states 1..cap; absorbed mass
	// accumulates separately.
	p := make([]float64, cap+1)
	q := make([]float64, cap+1)
	var absorbed float64
	if k == 0 {
		absorbed = 1
	} else {
		p[k] = 1
	}
	tails := make([]float64, tmax+1)
	tails[0] = 1 - absorbed
	for t := 1; t <= tmax; t++ {
		for i := range q {
			q[i] = 0
		}
		for s := 1; s <= cap; s++ {
			ps := p[s]
			if ps == 0 {
				continue
			}
			// Z moves to s − 1 + j.
			for j := 0; j <= support; j++ {
				ns := s - 1 + j
				if ns == 0 {
					absorbed += ps * inc[j]
					continue
				}
				if ns > cap {
					// Truncation: park escaping mass at cap (it stays
					// unabsorbed, keeping the tail an upper bound).
					q[cap] += ps * inc[j]
					continue
				}
				q[ns] += ps * inc[j]
			}
		}
		p, q = q, p
		tails[t] = 1 - absorbed
		if tails[t] < 0 {
			tails[t] = 0
		}
	}
	return tails, nil
}

// PaperBound returns the Lemma 5 bound e^{−t/144}, valid for t ≥ 8k.
func PaperBound(t int64) float64 {
	return math.Exp(-float64(t) / 144)
}

// HittingTimeMean estimates E_k[τ] by Monte Carlo. With drift −1/4 the
// walk's mean absorption time from k is ≈ 4k; the E6 table reports this
// next to the tail bounds.
func (c *Chain) HittingTimeMean(k int, trials int, maxT int64, r *rng.Source) (mean float64, completed int) {
	var sum float64
	for i := 0; i < trials; i++ {
		t, ok := c.AbsorptionTime(k, maxT, r)
		if ok {
			sum += float64(t)
			completed++
		}
	}
	if completed == 0 {
		return 0, 0
	}
	return sum / float64(completed), completed
}
