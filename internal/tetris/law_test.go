package tetris_test

// Law-level link to Lemma 5: a single bin's load in the Tetris process,
// watched until it first empties, is exactly the drift chain
// Z_t = Z_{t−1} − 1 + Binomial(⌈3n/4⌉, 1/n). The paper's proof of Lemma 6
// rests on this identification; the test verifies it distributionally by
// comparing absorption-time samples from the full Tetris simulation
// against the one-dimensional chain.

import (
	"math"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/markov"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/tetris"
)

func TestBinEmptiesLikeDriftChain(t *testing.T) {
	const n = 256
	const k = 8 // initial load of the watched bin
	const trials = 3000

	// Tetris-side samples: bin 0 starts at k, everything else empty
	// (≥ n/4 empty bins, Lemma 3's regime); record the first round bin 0
	// empties.
	r := rng.New(71)
	tetrisTimes := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		loads := config.AllInOne(n, k)
		p, err := shard.NewSequentialTetris(loads, r, tetris.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for p.Load(0) != 0 {
			p.Step()
			if p.Round() > 100000 {
				t.Fatal("bin never emptied")
			}
		}
		tetrisTimes = append(tetrisTimes, float64(p.Round()))
	}

	// Chain-side samples.
	chain, err := markov.NewChain(n)
	if err != nil {
		t.Fatal(err)
	}
	chainTimes := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		tau, ok := chain.AbsorptionTime(k, 100000, r)
		if !ok {
			t.Fatal("chain never absorbed")
		}
		chainTimes = append(chainTimes, float64(tau))
	}

	// Compare means and a few quantiles (two-sample, generous bands for
	// Monte-Carlo noise at 3000 samples each).
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	mt, mc := mean(tetrisTimes), mean(chainTimes)
	if math.Abs(mt-mc) > 0.08*mc+1 {
		t.Fatalf("mean absorption: tetris %v vs chain %v", mt, mc)
	}
	sort.Float64s(tetrisTimes)
	sort.Float64s(chainTimes)
	for _, q := range []float64{0.25, 0.5, 0.75, 0.95} {
		it := tetrisTimes[int(q*float64(len(tetrisTimes)-1))]
		ic := chainTimes[int(q*float64(len(chainTimes)-1))]
		if math.Abs(it-ic) > 0.15*ic+2 {
			t.Fatalf("q=%.2f: tetris %v vs chain %v", q, it, ic)
		}
	}
}
