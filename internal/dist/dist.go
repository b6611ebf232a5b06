// Package dist provides the discrete distributions used by the simulation
// engines and experiment harness: Binomial and Poisson samplers (backing the
// Tetris batched-arrival laws and the Lemma 5 drift chain) and a Zipf
// generator (backing the skewed initial configurations).
//
// All samplers draw exclusively from a caller-supplied *rng.Source, so every
// sample sequence is a deterministic function of the source state: replaying
// a seeded source replays the samples bit for bit, which the golden and
// law-equivalence tests rely on.
//
// Sampling uses Walker/Vose alias tables built once at construction over the
// distribution's effective support (entries below 1e-18 of mass are trimmed
// and the table renormalized; the trimmed mass is far below the resolution
// of any experiment in this repository). Each Sample consumes exactly two
// draws from the source: one bounded integer for the column and one float
// for the alias coin.
package dist

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// pmfTrim is the per-entry mass below which the alias table trims support.
const pmfTrim = 1e-18

// alias is a Walker/Vose alias table over {0, .., len(prob)-1}.
type alias struct {
	prob  []float64 // acceptance probability of the column itself
	alias []int32   // fallback outcome of the column
}

// newAlias builds an alias table from non-negative weights (renormalized;
// their sum must be positive and finite).
func newAlias(weights []float64) (*alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("dist: alias table with empty support")
	}
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("dist: alias weight %d = %v", i, w)
		}
		sum += w
	}
	if sum <= 0 || math.IsInf(sum, 0) {
		return nil, fmt.Errorf("dist: alias weights sum to %v", sum)
	}
	a := &alias{
		prob:  make([]float64, n),
		alias: make([]int32, n),
	}
	// Scaled weights: mean 1 per column.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Numerical leftovers are full columns.
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a, nil
}

// sample draws one outcome, consuming exactly two draws from r.
func (a *alias) sample(r *rng.Source) int {
	i := int(r.Uint64n(uint64(len(a.prob))))
	if r.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// logChoose returns log C(n, k) via lgamma.
func logChoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n) + 1)
	b, _ := math.Lgamma(float64(k) + 1)
	c, _ := math.Lgamma(float64(n-k) + 1)
	return a - b - c
}

// BinomialPMF returns P(X = k) for X ~ Binomial(n, p), computed in log
// space for numerical stability at large n.
func BinomialPMF(n int, p float64, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	return math.Exp(logChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
}

// PoissonPMF returns P(X = k) for X ~ Poisson(mean).
func PoissonPMF(mean float64, k int) float64 {
	if k < 0 {
		return 0
	}
	if mean == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(mean) - mean - lg)
}

// Binomial samples X ~ Binomial(trials, p) in O(1) per draw from a
// precomputed alias table. Create with NewBinomial; safe for concurrent use
// after construction (the table is read-only; the *rng.Source is not).
type Binomial struct {
	trials int
	p      float64
	table  *alias
}

// NewBinomial builds a Binomial(trials, p) sampler. It returns an error for
// trials < 0 or p outside [0, 1].
func NewBinomial(trials int, p float64) (*Binomial, error) {
	if trials < 0 {
		return nil, fmt.Errorf("dist: NewBinomial trials = %d < 0", trials)
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return nil, fmt.Errorf("dist: NewBinomial p = %v outside [0, 1]", p)
	}
	// Effective support: contiguous run of k with PMF >= pmfTrim, always
	// including the mode so degenerate cases keep one entry.
	weights := supportWeights(trials, func(k int) float64 { return BinomialPMF(trials, p, k) }, p*float64(trials))
	table, err := newAlias(weights)
	if err != nil {
		return nil, err
	}
	return &Binomial{trials: trials, p: p, table: table}, nil
}

// supportWeights evaluates pmf(0..max) and trims the negligible tail above
// the last entry >= pmfTrim (keeping at least the entry nearest mode).
func supportWeights(max int, pmf func(int) float64, mode float64) []float64 {
	hi := max
	for hi > 0 && pmf(hi) < pmfTrim && float64(hi) > mode {
		hi--
	}
	weights := make([]float64, hi+1)
	for k := 0; k <= hi; k++ {
		weights[k] = pmf(k)
	}
	return weights
}

// Mean returns n·p.
func (b *Binomial) Mean() float64 { return float64(b.trials) * b.p }

// PMF returns the exact P(X = k) (not the trimmed table weight).
func (b *Binomial) PMF(k int) float64 { return BinomialPMF(b.trials, b.p, k) }

// Sample draws one value, consuming exactly two draws from r.
func (b *Binomial) Sample(r *rng.Source) int { return b.table.sample(r) }

// Poisson samples X ~ Poisson(mean) in O(1) per draw from a precomputed
// alias table over the effective support [0, mean + O(√mean)]. Create with
// NewPoisson.
type Poisson struct {
	table *alias
}

// NewPoisson builds a Poisson(mean) sampler. It returns an error for a
// negative, NaN or infinite mean.
func NewPoisson(mean float64) (*Poisson, error) {
	if math.IsNaN(mean) || math.IsInf(mean, 0) || mean < 0 {
		return nil, fmt.Errorf("dist: NewPoisson mean = %v", mean)
	}
	// Support cap: mean + 16√mean + 32 keeps the trimmed tail below 1e-18
	// for any mean while bounding the table size at O(mean).
	cap := int(mean + 16*math.Sqrt(mean) + 32)
	weights := supportWeights(cap, func(k int) float64 { return PoissonPMF(mean, k) }, mean)
	table, err := newAlias(weights)
	if err != nil {
		return nil, err
	}
	return &Poisson{table: table}, nil
}

// Sample draws one value, consuming exactly two draws from r.
func (p *Poisson) Sample(r *rng.Source) int { return p.table.sample(r) }

// Zipf samples ranks 0..n−1 with P(k) ∝ (k+1)^−s — the skewed popularity
// law used by the Zipf initial-configuration generator. Create with NewZipf.
type Zipf struct {
	table *alias
}

// NewZipf builds a Zipf sampler over n ranks with exponent s ≥ 0 (s = 0 is
// uniform). It returns an error for n < 1 or a NaN/negative/infinite s.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: NewZipf n = %d < 1", n)
	}
	if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
		return nil, fmt.Errorf("dist: NewZipf s = %v", s)
	}
	weights := make([]float64, n)
	for k := 0; k < n; k++ {
		weights[k] = math.Pow(float64(k+1), -s)
	}
	table, err := newAlias(weights)
	if err != nil {
		return nil, err
	}
	return &Zipf{table: table}, nil
}

// Sample draws one rank in [0, n), consuming exactly two draws from r.
func (z *Zipf) Sample(r *rng.Source) int { return z.table.sample(r) }
