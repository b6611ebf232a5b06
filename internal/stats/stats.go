// Package stats provides the statistical machinery the experiment harness
// uses to summarize trials and check the paper's predicted shapes: streaming
// moments (Welford), exact sample quantiles, standard errors, least-squares
// fits through the origin (for the T_conv/n slope), and the chi-square
// tail built on the regularized incomplete gamma function.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Stream accumulates count, mean and variance (Welford) in O(1) memory.
// The zero value is ready to use.
type Stream struct {
	n        int64
	mean, m2 float64
}

// Add accumulates one observation.
func (s *Stream) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Mean returns the sample mean (0 for an empty stream).
func (s *Stream) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 points).
func (s *Stream) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Stream) Std() float64 { return math.Sqrt(s.Var()) }

// SE returns the standard error of the mean.
func (s *Stream) SE() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(s.n))
}

// Summary is a batch summary of a sample: moments plus exact quantiles.
type Summary struct {
	N                  int
	Mean, Std, SE      float64
	Min, Max           float64
	P50, P90, P95, P99 float64
}

// Summarize computes a Summary from the sample xs (which it does not
// modify). An empty sample yields the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var st Stream
	for _, x := range xs {
		st.Add(x)
	}
	return Summary{
		N:    len(xs),
		Mean: st.Mean(),
		Std:  st.Std(),
		SE:   st.SE(),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		P50:  Quantile(sorted, 0.50),
		P90:  Quantile(sorted, 0.90),
		P95:  Quantile(sorted, 0.95),
		P99:  Quantile(sorted, 0.99),
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of an already-sorted sample
// using linear interpolation between order statistics. It panics if sorted
// is empty.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Fit is a least-squares line y = Slope*x + Intercept with goodness R2.
type Fit struct {
	Slope, Intercept, R2 float64
}

// FitThroughOrigin fits y = Slope*x (no intercept), the natural model when
// the theory predicts exact proportionality (e.g. convergence time vs n).
func FitThroughOrigin(x, y []float64) (Fit, error) {
	if len(x) != len(y) {
		return Fit{}, fmt.Errorf("stats: FitThroughOrigin length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 1 {
		return Fit{}, errors.New("stats: FitThroughOrigin needs at least 1 point")
	}
	var sxx, sxy float64
	for i := range x {
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	if sxx == 0 {
		return Fit{}, errors.New("stats: FitThroughOrigin with all-zero x")
	}
	slope := sxy / sxx
	// R² relative to the zero function.
	var ssRes, ssTot float64
	for i := range x {
		r := y[i] - slope*x[i]
		ssRes += r * r
		ssTot += y[i] * y[i]
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{Slope: slope, R2: r2}, nil
}

// ChiSquareSurvival returns P(X > x) for X ~ chi-square with df degrees of
// freedom, via the regularized upper incomplete gamma function.
func ChiSquareSurvival(x, df float64) float64 {
	if x <= 0 {
		return 1
	}
	return 1 - GammaP(df/2, x/2)
}

// GammaP returns the regularized lower incomplete gamma function P(a, x),
// using the series expansion for x < a+1 and the continued fraction
// otherwise (Numerical Recipes style).
func GammaP(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaCF(a, x)
}

func gammaSeries(a, x float64) float64 {
	const itmax = 500
	const eps = 1e-14
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < itmax; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaCF(a, x float64) float64 {
	const itmax = 500
	const eps = 1e-14
	const fpmin = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= itmax; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
