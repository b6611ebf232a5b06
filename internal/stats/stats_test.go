package stats

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestStreamMoments(t *testing.T) {
	var s Stream
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		s.Add(x)
	}
	if s.n != 8 {
		t.Fatalf("n = %d", s.n)
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", s.Mean())
	}
	// Unbiased variance of this classic sample is 32/7.
	if math.Abs(s.Var()-32.0/7) > 1e-12 {
		t.Errorf("var = %v, want %v", s.Var(), 32.0/7)
	}
}

func TestStreamEmpty(t *testing.T) {
	var s Stream
	if s.Mean() != 0 || s.Var() != 0 || s.SE() != 0 {
		t.Fatal("empty stream should return zeros")
	}
}

// Merge folds other into s (parallel reduction).
func (s *Stream) Merge(other *Stream) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	n1, n2 := float64(s.n), float64(other.n)
	d := other.mean - s.mean
	tot := n1 + n2
	s.m2 += other.m2 + d*d*n1*n2/tot
	s.mean += d * n2 / tot
	s.n += other.n
}

func TestStreamMergeMatchesSequential(t *testing.T) {
	if err := quick.Check(func(seed uint32, split uint8) bool {
		r := rng.New(uint64(seed))
		n := 50 + int(split)
		k := int(split) % n
		var all, a, b Stream
		for i := 0; i < n; i++ {
			x := r.NormFloat64()*3 + 1
			all.Add(x)
			if i < k {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(&b)
		return a.n == all.n &&
			math.Abs(a.Mean()-all.Mean()) < 1e-9 &&
			math.Abs(a.Var()-all.Var()) < 1e-9
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamMergeEmpty(t *testing.T) {
	var a, b Stream
	a.Add(1)
	a.Add(3)
	a.Merge(&b) // merging empty is a no-op
	if a.n != 2 || a.Mean() != 2 {
		t.Fatal("merge with empty changed stats")
	}
	b.Merge(&a) // merging into empty copies
	if b.n != 2 || b.Mean() != 2 {
		t.Fatal("merge into empty failed")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.N != 101 || s.Min != 0 || s.Max != 100 {
		t.Fatalf("bad summary %+v", s)
	}
	if s.P50 != 50 {
		t.Errorf("P50 = %v", s.P50)
	}
	if s.P90 != 90 {
		t.Errorf("P90 = %v", s.P90)
	}
	if math.Abs(s.Mean-50) > 1e-12 {
		t.Errorf("mean = %v", s.Mean)
	}
	if Summarize(nil).N != 0 {
		t.Error("empty summarize should be zero")
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Summarize mutated input")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if q := Quantile(sorted, 0.5); math.Abs(q-25) > 1e-12 {
		t.Errorf("median = %v, want 25", q)
	}
	if Quantile(sorted, 0) != 10 || Quantile(sorted, 1) != 40 {
		t.Error("extreme quantiles wrong")
	}
	if Quantile(sorted, -0.5) != 10 || Quantile(sorted, 1.5) != 40 {
		t.Error("clamping wrong")
	}
}

func TestQuantileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Quantile(nil, 0.5)
}

// LinearFit fits y against x by ordinary least squares. It returns an error
// if the inputs differ in length, have fewer than 2 points, or x is
// constant.
func LinearFit(x, y []float64) (Fit, error) {
	if len(x) != len(y) {
		return Fit{}, fmt.Errorf("stats: LinearFit length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return Fit{}, errors.New("stats: LinearFit needs at least 2 points")
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, errors.New("stats: LinearFit with constant x")
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	r2 := 1.0
	if syy > 0 {
		r2 = sxy * sxy / (sxx * syy)
	}
	return Fit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 3*v - 7
	}
	f, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-3) > 1e-12 || math.Abs(f.Intercept+7) > 1e-12 || math.Abs(f.R2-1) > 1e-12 {
		t.Fatalf("fit = %+v", f)
	}
}

func TestLinearFitNoise(t *testing.T) {
	r := rng.New(4)
	n := 500
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
		y[i] = 2*x[i] + 5 + r.NormFloat64()*3
	}
	f, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-2) > 0.01 {
		t.Errorf("slope = %v", f.Slope)
	}
	if f.R2 < 0.99 {
		t.Errorf("R2 = %v", f.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("constant x should error")
	}
}

func TestFitThroughOrigin(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{2.5, 5, 7.5}
	f, err := FitThroughOrigin(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-2.5) > 1e-12 || math.Abs(f.R2-1) > 1e-12 {
		t.Fatalf("fit = %+v", f)
	}
	if _, err := FitThroughOrigin([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("all-zero x should error")
	}
}

// ChiSquareUniform returns the Pearson statistic and p-value for the null
// hypothesis that counts are uniform draws over len(counts) cells.
func ChiSquareUniform(counts []int) (chi2, p float64, err error) {
	k := len(counts)
	if k < 2 {
		return 0, 0, errors.New("stats: ChiSquareUniform needs >= 2 cells")
	}
	total := 0
	for _, c := range counts {
		if c < 0 {
			return 0, 0, errors.New("stats: negative count")
		}
		total += c
	}
	if total == 0 {
		return 0, 0, errors.New("stats: no observations")
	}
	expected := float64(total) / float64(k)
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	p = ChiSquareSurvival(chi2, float64(k-1))
	return chi2, p, nil
}

func TestChiSquareUniformAccepts(t *testing.T) {
	r := rng.New(8)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[r.Intn(10)]++
	}
	chi2, p, err := ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("uniform data rejected: chi2=%v p=%v", chi2, p)
	}
}

func TestChiSquareUniformRejects(t *testing.T) {
	counts := []int{1000, 10, 10, 10}
	_, p, err := ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 {
		t.Fatalf("blatantly non-uniform data accepted: p=%v", p)
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, _, err := ChiSquareUniform([]int{5}); err == nil {
		t.Error("single cell should error")
	}
	if _, _, err := ChiSquareUniform([]int{1, -1}); err == nil {
		t.Error("negative count should error")
	}
	if _, _, err := ChiSquareUniform([]int{0, 0}); err == nil {
		t.Error("no observations should error")
	}
}

func TestGammaPKnownValues(t *testing.T) {
	// P(1, x) = 1 - e^-x (chi-square df=2 CDF at 2x).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x)
		if got := GammaP(1, x); math.Abs(got-want) > 1e-10 {
			t.Errorf("GammaP(1,%v) = %v, want %v", x, got, want)
		}
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.25, 1, 4} {
		want := math.Erf(math.Sqrt(x))
		if got := GammaP(0.5, x); math.Abs(got-want) > 1e-10 {
			t.Errorf("GammaP(0.5,%v) = %v, want %v", x, got, want)
		}
	}
	if GammaP(1, 0) != 0 {
		t.Error("GammaP(a,0) should be 0")
	}
	if !math.IsNaN(GammaP(-1, 1)) {
		t.Error("GammaP with a<=0 should be NaN")
	}
}

func TestChiSquareSurvivalBounds(t *testing.T) {
	if ChiSquareSurvival(0, 5) != 1 {
		t.Error("survival at 0 should be 1")
	}
	if s := ChiSquareSurvival(1000, 5); s > 1e-10 {
		t.Errorf("far tail survival = %v", s)
	}
	// Median of chi-square(2) is 2 ln 2.
	if s := ChiSquareSurvival(2*math.Ln2, 2); math.Abs(s-0.5) > 1e-10 {
		t.Errorf("median survival = %v", s)
	}
}

func BenchmarkStreamAdd(b *testing.B) {
	var s Stream
	for i := 0; i < b.N; i++ {
		s.Add(float64(i & 1023))
	}
}
