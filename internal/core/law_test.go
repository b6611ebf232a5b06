package core

// Law-level validation: statistical checks that the engine implements the
// paper's process exactly, beyond trajectory invariants.

import (
	"testing"

	"repro/internal/config"
	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/stats"
)

// TestArrivalLawBinomial verifies that, conditioned on |W(t)| = w, the
// number of balls arriving at a fixed bin in one round is exactly
// Binomial(w, 1/n): each of the w released balls picks the bin
// independently with probability 1/n. Checked by chi-square against the
// exact PMF.
func TestArrivalLawBinomial(t *testing.T) {
	const n = 64
	const trials = 200000
	// One-per-bin start: |W| = n deterministically in round 1. One
	// process, reset to the start before each trial.
	start := config.OnePerBin(n)
	p, err := shard.NewSequential(start, rng.New(101), shard.ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 12)
	for i := 0; i < trials; i++ {
		if err := p.SetLoads(start); err != nil {
			t.Fatal(err)
		}
		p.Step()
		// Arrivals into bin 0 = new load − (old load − 1) = load − 0.
		arr := int(p.Load(0)) // old load was 1, departure certain
		if arr >= len(counts) {
			arr = len(counts) - 1
		}
		counts[arr]++
	}
	chi2 := 0.0
	cells := 0
	for k := 0; k < len(counts)-1; k++ {
		expected := dist.BinomialPMF(n, 1.0/n, k) * trials
		if expected < 10 {
			continue
		}
		d := float64(counts[k]) - expected
		chi2 += d * d / expected
		cells++
	}
	// Generous 99.99% critical region for the observed cell count.
	crit := stats.ChiSquareSurvival(chi2, float64(cells-1))
	if crit < 1e-5 {
		t.Fatalf("arrival law rejected: chi2=%.2f over %d cells (p=%g)", chi2, cells, crit)
	}
}

// TestDepartureExactlyOne verifies each non-empty bin loses exactly one
// ball before arrivals: with arrivals diverted away (impossible directly),
// we instead check the bound loads(t+1) >= loads(t) - 1 elementwise and
// that total departures equal |W(t)|.
func TestDepartureExactlyOne(t *testing.T) {
	const n = 32
	r := rng.New(103)
	p, err := shard.NewSequential(config.UniformRandom(n, n, r), r, shard.ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		before := p.LoadsCopy()
		p.Step()
		var sumAfter, sumBefore int64
		for u := 0; u < n; u++ {
			// Each bin decreases by at most 1 net (one departure, arrivals
			// only add).
			if delta := int(before[u]) - int(p.Load(u)); delta > 1 {
				t.Fatalf("round %d: bin %d lost %d balls", i, u, delta)
			}
			sumAfter += int64(p.Load(u))
			sumBefore += int64(before[u])
		}
		if sumAfter != sumBefore {
			t.Fatalf("balls not conserved: %d -> %d", sumBefore, sumAfter)
		}
	}
}

// TestStationaryLoadTailGeometric records the qualitative stationary shape:
// the fraction of bins with load >= k decays at least geometrically for
// small k (this is what caps the maximum at O(log n)).
func TestStationaryLoadTailGeometric(t *testing.T) {
	const n = 4096
	r := rng.New(107)
	p, err := shard.NewSequential(config.OnePerBin(n), r, shard.ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(4 * n) // reach stationarity
	tail := make([]float64, 8)
	const samples = 200
	for s := 0; s < samples; s++ {
		p.Step()
		h := make([]int64, p.MaxLoad()+1)
		for _, l := range p.LoadsCopy() {
			h[l]++
		}
		cum := int64(0)
		for k := len(h) - 1; k >= 0; k-- {
			cum += h[k]
			if k < len(tail) {
				tail[k] += float64(cum)
			}
		}
	}
	for k := range tail {
		tail[k] /= float64(samples) * n
	}
	if tail[0] != 1 {
		t.Fatalf("tail[0] = %v, want 1", tail[0])
	}
	// Successive ratios bounded below 1: each extra ball of load is
	// geometrically less likely.
	for k := 1; k < 5; k++ {
		ratio := tail[k+1] / tail[k]
		if ratio > 0.75 {
			t.Fatalf("tail ratio at k=%d is %.3f, not geometric", k, ratio)
		}
	}
}
