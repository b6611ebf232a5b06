package stats

import (
	"math"
	"testing"
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
