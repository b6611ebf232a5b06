package markov

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestNewChainValidation(t *testing.T) {
	if _, err := NewChain(1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewChain(0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestDriftIsMinusQuarter(t *testing.T) {
	c, err := NewChain(1024)
	if err != nil {
		t.Fatal(err)
	}
	if d := c.Drift(); math.Abs(d-(-0.25)) > 0.001 {
		t.Fatalf("drift = %v, want ≈ -1/4", d)
	}
	if c.N() != 1024 {
		t.Fatal("N accessor wrong")
	}
}

func TestAbsorptionFromZero(t *testing.T) {
	c, err := NewChain(64)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	tau, ok := c.AbsorptionTime(0, 100, r)
	if !ok || tau != 0 {
		t.Fatalf("absorption from 0 = (%d, %v), want (0, true)", tau, ok)
	}
}

func TestAbsorptionMeanApprox4k(t *testing.T) {
	// With drift −1/4, E_k[τ] ≈ 4k by Wald.
	c, err := NewChain(256)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	for _, k := range []int{4, 16} {
		mean, done := c.HittingTimeMean(k, 4000, 100000, r)
		if done != 4000 {
			t.Fatalf("k=%d: %d walks did not absorb", k, 4000-done)
		}
		want := 4 * float64(k)
		if math.Abs(mean-want) > 0.25*want+2 {
			t.Errorf("k=%d: mean absorption %v, want ≈ %v", k, mean, want)
		}
	}
}

func TestExactTailValidation(t *testing.T) {
	c, err := NewChain(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExactTail(-1, 10, 50); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := c.ExactTail(5, 10, 4); err == nil {
		t.Error("cap < k accepted")
	}
	if _, err := c.ExactTail(5, -1, 50); err == nil {
		t.Error("negative tmax accepted")
	}
}

func TestExactTailFromZero(t *testing.T) {
	c, err := NewChain(64)
	if err != nil {
		t.Fatal(err)
	}
	tails, err := c.ExactTail(0, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range tails {
		if v != 0 {
			t.Fatalf("tail[%d] = %v from k=0, want 0", i, v)
		}
	}
}

func TestExactTailMonotone(t *testing.T) {
	c, err := NewChain(128)
	if err != nil {
		t.Fatal(err)
	}
	tails, err := c.ExactTail(8, 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	if tails[0] != 1 {
		t.Fatalf("tail[0] = %v, want 1", tails[0])
	}
	for i := 1; i < len(tails); i++ {
		if tails[i] > tails[i-1]+1e-12 {
			t.Fatalf("tail not monotone at t=%d", i)
		}
	}
	// Minimum absorption time from k=8 is 8 steps (one down-step per round).
	for i := 1; i < 8; i++ {
		if tails[i] != 1 {
			t.Fatalf("tail[%d] = %v, but absorption before t=8 is impossible from k=8", i, tails[i])
		}
	}
	// Empirical decay is ≈ e^{−t/22}, far below the paper's e^{−t/144}.
	if tails[200] > 1e-3 {
		t.Fatalf("tail[200] = %v, chain should be (nearly) absorbed", tails[200])
	}
}

func TestLemma5BoundHolds(t *testing.T) {
	// The paper's bound P_k(τ > t) ≤ e^{−t/144} for t ≥ 8k, checked against
	// the exact tail for several k.
	c, err := NewChain(256)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 4, 8, 16} {
		tmax := 8*k + 400
		tails, err := c.ExactTail(k, tmax, k+600)
		if err != nil {
			t.Fatal(err)
		}
		for tt := 8 * k; tt <= tmax; tt++ {
			if !BoundApplies(k, int64(tt)) {
				t.Fatalf("BoundApplies(%d, %d) false", k, tt)
			}
			if tails[tt] > PaperBound(int64(tt))+1e-12 {
				t.Fatalf("k=%d t=%d: exact tail %v exceeds bound %v",
					k, tt, tails[tt], PaperBound(int64(tt)))
			}
		}
	}
}

// BoundApplies reports whether the Lemma 5 bound is claimed at (k, t),
// i.e. t ≥ 8k.
func BoundApplies(k int, t int64) bool {
	return t >= int64(8*k)
}

func TestBoundApplies(t *testing.T) {
	if BoundApplies(10, 79) {
		t.Error("t=79 < 8k=80 should not apply")
	}
	if !BoundApplies(10, 80) {
		t.Error("t=80 = 8k should apply")
	}
}

func TestTailMCMatchesExact(t *testing.T) {
	c, err := NewChain(128)
	if err != nil {
		t.Fatal(err)
	}
	k := 6
	ts := []int64{10, 24, 48, 96}
	r := rng.New(7)
	mc, err := c.TailMC(k, ts, 40000, r)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := c.ExactTail(k, int(ts[len(ts)-1]), k+400)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		want := exact[tt]
		if math.Abs(mc[i]-want) > 0.01 {
			t.Errorf("t=%d: MC %v vs exact %v", tt, mc[i], want)
		}
	}
}

func TestTailMCValidation(t *testing.T) {
	c, err := NewChain(64)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	if _, err := c.TailMC(3, []int64{5, 2}, 10, r); err == nil {
		t.Error("descending times accepted")
	}
	if _, err := c.TailMC(3, []int64{5}, 0, r); err == nil {
		t.Error("zero trials accepted")
	}
	out, err := c.TailMC(3, nil, 10, r)
	if err != nil || out != nil {
		t.Error("empty times should return nil, nil")
	}
}

func TestPaperBound(t *testing.T) {
	if PaperBound(0) != 1 {
		t.Error("bound at 0 should be 1")
	}
	if math.Abs(PaperBound(144)-math.Exp(-1)) > 1e-12 {
		t.Error("bound at 144 should be 1/e")
	}
}

func BenchmarkAbsorptionTime(b *testing.B) {
	c, err := NewChain(1024)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AbsorptionTime(16, 100000, r)
	}
}

func BenchmarkExactTail(b *testing.B) {
	c, err := NewChain(256)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ExactTail(8, 200, 300); err != nil {
			b.Fatal(err)
		}
	}
}
