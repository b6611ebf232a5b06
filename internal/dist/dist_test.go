package dist

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestBinomialPMFNormalization checks Σ_k P(X=k) = 1 and the closed-form
// mean Σ k·P(X=k) = np across parameter corners.
func TestBinomialPMFNormalization(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{
		{1, 0.5}, {10, 0.1}, {64, 1.0 / 64}, {768, 1.0 / 1024}, {1000, 0.75}, {5000, 0.999},
	} {
		var sum, mean float64
		for k := 0; k <= tc.n; k++ {
			pk := BinomialPMF(tc.n, tc.p, k)
			if pk < 0 {
				t.Fatalf("n=%d p=%v k=%d: negative PMF %v", tc.n, tc.p, k, pk)
			}
			sum += pk
			mean += float64(k) * pk
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("n=%d p=%v: PMF sums to %v", tc.n, tc.p, sum)
		}
		if want := float64(tc.n) * tc.p; math.Abs(mean-want) > 1e-6*(1+want) {
			t.Errorf("n=%d p=%v: PMF mean %v, want %v", tc.n, tc.p, mean, want)
		}
	}
	if BinomialPMF(10, 0.3, -1) != 0 || BinomialPMF(10, 0.3, 11) != 0 {
		t.Error("PMF outside support not zero")
	}
	if BinomialPMF(10, 0, 0) != 1 || BinomialPMF(10, 1, 10) != 1 {
		t.Error("degenerate PMFs wrong")
	}
}

// TestPoissonPMFNormalization checks the Poisson PMF sums to 1 over the
// effective support.
func TestPoissonPMFNormalization(t *testing.T) {
	for _, mean := range []float64{0.1, 1, 7.5, 100, 768} {
		var sum float64
		hi := int(mean + 20*math.Sqrt(mean) + 40)
		for k := 0; k <= hi; k++ {
			sum += PoissonPMF(mean, k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("mean=%v: PMF sums to %v", mean, sum)
		}
	}
	if PoissonPMF(0, 0) != 1 || PoissonPMF(0, 1) != 0 {
		t.Error("Poisson(0) PMF wrong")
	}
}

// TestBinomialSampleMoments checks the sampler's empirical mean and
// variance against np and np(1−p); tolerances are ~6 standard errors.
func TestBinomialSampleMoments(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{
		{768, 1.0 / 1024}, {64, 1.0 / 64}, {100, 0.3}, {10, 0.9},
	} {
		b, err := NewBinomial(tc.n, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		const samples = 200000
		r := rng.New(uint64(42 + tc.n))
		var sum, sumSq float64
		for i := 0; i < samples; i++ {
			x := float64(b.Sample(r))
			sum += x
			sumSq += x * x
		}
		mean := sum / samples
		variance := sumSq/samples - mean*mean
		wantVar := float64(tc.n) * tc.p * (1 - tc.p)
		se := math.Sqrt(wantVar / samples)
		if math.Abs(mean-b.Mean()) > 6*se+1e-9 {
			t.Errorf("Binomial(%d, %v): mean %v, want %v", tc.n, tc.p, mean, b.Mean())
		}
		if relErr := math.Abs(variance-wantVar) / wantVar; relErr > 0.05 {
			t.Errorf("Binomial(%d, %v): variance %v, want %v", tc.n, tc.p, variance, wantVar)
		}
	}
}

// TestPoissonSampleMoments checks the Poisson sampler's mean and variance
// against λ.
func TestPoissonSampleMoments(t *testing.T) {
	for _, mean := range []float64{0.75, 7.5, 921.6} {
		p, err := NewPoisson(mean)
		if err != nil {
			t.Fatal(err)
		}
		const samples = 100000
		r := rng.New(uint64(1000 * mean))
		var sum, sumSq float64
		for i := 0; i < samples; i++ {
			x := float64(p.Sample(r))
			sum += x
			sumSq += x * x
		}
		m := sum / samples
		v := sumSq/samples - m*m
		se := math.Sqrt(mean / samples)
		if math.Abs(m-mean) > 6*se {
			t.Errorf("Poisson(%v): mean %v", mean, m)
		}
		if relErr := math.Abs(v-mean) / mean; relErr > 0.05 {
			t.Errorf("Poisson(%v): variance %v", mean, v)
		}
	}
}

// TestZipfFrequencies checks the sampled rank frequencies track the
// (k+1)^−s law, and that s = 0 degenerates to uniform.
func TestZipfFrequencies(t *testing.T) {
	const n = 16
	const s = 1.2
	z, err := NewZipf(n, s)
	if err != nil {
		t.Fatal(err)
	}
	var norm float64
	for k := 1; k <= n; k++ {
		norm += math.Pow(float64(k), -s)
	}
	const samples = 400000
	r := rng.New(7)
	counts := make([]int, n)
	for i := 0; i < samples; i++ {
		counts[z.Sample(r)]++
	}
	for k := 0; k < n; k++ {
		want := math.Pow(float64(k+1), -s) / norm
		got := float64(counts[k]) / samples
		se := math.Sqrt(want * (1 - want) / samples)
		if math.Abs(got-want) > 6*se {
			t.Errorf("rank %d: frequency %v, want %v", k, got, want)
		}
	}

	u, err := NewZipf(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	uc := make([]int, 4)
	for i := 0; i < 40000; i++ {
		uc[u.Sample(r)]++
	}
	for k, c := range uc {
		if c < 9000 || c > 11000 {
			t.Errorf("s=0 rank %d count %d not ≈ uniform", k, c)
		}
	}
}

// TestDeterministicReplay pins the draw protocol: reseeding the source
// replays the identical sample sequence (each Sample consumes exactly two
// draws), which the golden trajectory tests depend on.
func TestDeterministicReplay(t *testing.T) {
	b, err := NewBinomial(768, 1.0/1024)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPoisson(48)
	if err != nil {
		t.Fatal(err)
	}
	z, err := NewZipf(100, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	draw := func(r *rng.Source) []int {
		out := make([]int, 0, 300)
		for i := 0; i < 100; i++ {
			out = append(out, b.Sample(r), p.Sample(r), z.Sample(r))
		}
		return out
	}
	a := draw(rng.New(12345))
	c := draw(rng.New(12345))
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("replay diverged at draw %d: %d vs %d", i, a[i], c[i])
		}
	}
	// Two draws per sample: interleaving with a raw source must stay in
	// lockstep with a manually advanced twin.
	r1, r2 := rng.New(9), rng.New(9)
	_ = b.Sample(r1)
	r2.Uint64n(1)
	r2.Float64()
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("Sample did not consume exactly two draws")
	}
}

// TestConstructorErrors checks parameter validation.
func TestConstructorErrors(t *testing.T) {
	if _, err := NewBinomial(-1, 0.5); err == nil {
		t.Error("NewBinomial accepted trials < 0")
	}
	if _, err := NewBinomial(10, -0.1); err == nil {
		t.Error("NewBinomial accepted p < 0")
	}
	if _, err := NewBinomial(10, 1.1); err == nil {
		t.Error("NewBinomial accepted p > 1")
	}
	if _, err := NewBinomial(10, math.NaN()); err == nil {
		t.Error("NewBinomial accepted NaN")
	}
	if _, err := NewPoisson(-1); err == nil {
		t.Error("NewPoisson accepted negative mean")
	}
	if _, err := NewPoisson(math.Inf(1)); err == nil {
		t.Error("NewPoisson accepted +Inf")
	}
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("NewZipf accepted n = 0")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Error("NewZipf accepted s < 0")
	}
}

// TestDegenerateSamplers checks the p = 0, p = 1 and mean = 0 corners.
func TestDegenerateSamplers(t *testing.T) {
	r := rng.New(3)
	b0, err := NewBinomial(20, 0)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := NewBinomial(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := NewPoisson(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if v := b0.Sample(r); v != 0 {
			t.Fatalf("Binomial(20, 0) sampled %d", v)
		}
		if v := b1.Sample(r); v != 20 {
			t.Fatalf("Binomial(20, 1) sampled %d", v)
		}
		if v := p0.Sample(r); v != 0 {
			t.Fatalf("Poisson(0) sampled %d", v)
		}
	}
}
