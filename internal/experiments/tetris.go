package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/table"
)

// tetrisRule is the paper's Tetris process: ⌈3n/4⌉ arrivals a round.
var tetrisRule = shard.ArrivalRule{Kind: shard.ArrivalQuota}

// E05TetrisEmptying reproduces Lemma 4: in the Tetris process, starting
// from any configuration (here the worst case, all balls in one bin), every
// bin is empty at least once within 5n rounds w.h.p.
func E05TetrisEmptying(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	ns := pick(cfg.Scale, []int{128, 256, 512}, []int{256, 512, 1024, 2048, 4096}, []int{512, 1024, 4096, 16384})
	trials := pick(cfg.Scale, 4, 10, 20)

	t := table.New("E05 Lemma 4: first round by which every Tetris bin has emptied (start: all-in-one)",
		"n", "trials", "mean round", "worst round", "worst/n", "≤ 5n")
	pass := true
	for _, n := range ns {
		res, err := sim.RunScalar(trials, cfg.Seed+uint64(5*n), "allEmptied",
			func(_ int, src *rng.Source) (float64, error) {
				p, err := shard.NewSequential(config.AllInOne(n, n), src, tetrisRule)
				if err != nil {
					return 0, err
				}
				round, ok := shard.NewEmptyTracker(p).RunUntilAllEmptied(int64(20 * n))
				if !ok {
					return 0, fmt.Errorf("bins not all emptied within 20n for n=%d", n)
				}
				return float64(round), nil
			})
		if err != nil {
			return nil, err
		}
		worstOverN := res.Summary.Max / float64(n)
		ok := res.Summary.Max <= float64(5*n)
		if !ok {
			pass = false
		}
		t.AddRow(n, trials, res.Summary.Mean, res.Summary.Max, worstOverN, boolCell(ok))
	}
	t.AddNote("paper bound: 5n rounds w.h.p.; the drain of the heavy bin dominates (rate ≈ 1 − 3/4 = 1/4 per round)")
	return &Result{
		ID:    "E05",
		Title: "Tetris emptying time",
		Claim: "Lemma 4: from any initial configuration, every Tetris bin empties within 5n rounds w.h.p.",
		Table: t,
		Pass:  pass,
	}, nil
}

// E07TetrisLoad reproduces Lemma 6: Tetris started from a legitimate
// configuration keeps its max load O(log n) over a long window.
func E07TetrisLoad(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	ns := pick(cfg.Scale, []int{128, 256}, []int{256, 512, 1024, 2048, 4096}, []int{512, 1024, 4096, 8192})
	trials := pick(cfg.Scale, 3, 5, 10)
	windowMult := pick(cfg.Scale, 8, 32, 64)

	t := table.New("E07 Lemma 6: Tetris window max load from a legitimate start",
		"n", "window T", "trials", "mean max M̂", "worst max M̂", "mean M̂/ln n", "within 6·ln n")
	ratios := make([]float64, 0, len(ns))
	pass := true
	for _, n := range ns {
		window := int64(windowMult * n)
		res, err := sim.WindowMax(trials, cfg.Seed+uint64(7*n), window,
			func(_ int, src *rng.Source) (engine.Stepper, error) {
				p, err := shard.NewSequential(config.OnePerBin(n), src, tetrisRule)
				if err != nil {
					return nil, err
				}
				return p, nil
			})
		if err != nil {
			return nil, err
		}
		ratio := res.Summary.Mean / lnF(n)
		ok := res.Summary.Max <= 6*lnF(n)
		if !ok {
			pass = false
		}
		ratios = append(ratios, ratio)
		t.AddRow(n, window, trials, res.Summary.Mean, res.Summary.Max, ratio, boolCell(ok))
	}
	if ratioSpread(ratios) > 1.8 {
		pass = false
	}
	t.AddNote(fmt.Sprintf("M̂/ln n spread across n: %.2f (flat ⇒ Θ(log n)); Tetris's constant exceeds the original's — it is the dominating process", ratioSpread(ratios)))
	return &Result{
		ID:    "E07",
		Title: "Tetris stability",
		Claim: "Lemma 6: Tetris max load is O(log n) for all t = O(n^c) w.h.p. from a legitimate start",
		Table: t,
		Pass:  pass,
	}, nil
}

// E15LeakyBins runs the batched-arrival extension of [18]: per-round
// arrival totals Binomial(n, λ) or Poisson(λn). The stationary max load is
// finite for λ < 1 and grows as λ → 1.
func E15LeakyBins(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	n := pick(cfg.Scale, 256, 1024, 4096)
	windowMult := pick(cfg.Scale, 8, 32, 64)
	lambdas := []float64{0.5, 0.75, 0.9}

	t := table.New(fmt.Sprintf("E15 leaky bins ([18]): window max load, n = %d", n),
		"arrival law", "λ", "window T", "max M̂", "M̂/ln n", "mean balls in system")
	window := int64(windowMult * n)
	pass := true
	prevByLaw := map[string]float64{}
	for _, law := range []shard.ArrivalKind{shard.ArrivalBinomial, shard.ArrivalPoisson} {
		for _, lambda := range lambdas {
			// Each row draws from its own stream, whose offset numbers the
			// laws from the quota rule: binomial 1, poisson 2.
			src := rng.NewStream(cfg.Seed, uint64(15000)+uint64(lambda*100)+uint64(law-shard.ArrivalQuota))
			p, err := shard.NewSequential(config.OnePerBin(n), src, shard.ArrivalRule{Kind: law, Lambda: lambda})
			if err != nil {
				return nil, err
			}
			// Warm-up to reach stationarity before measuring.
			p.Run(int64(4 * n))
			var wm engine.WindowMax
			var ballsSum float64
			engine.Run(p, window, &wm, engine.ObserverFunc(func(engine.Stepper) {
				ballsSum += float64(p.Balls())
			}))
			maxLoad := float64(wm.Max())
			norm := maxLoad / lnF(n)
			// [18]'s bound is O(log n) for fixed λ < 1 with the constant
			// scaling like 1/(1−λ); band the check accordingly.
			if maxLoad > 3*lnF(n)/(1-lambda) {
				pass = false
			}
			if prev, okPrev := prevByLaw[law.String()]; okPrev && maxLoad < prev {
				// Max load must not decrease as λ increases (within a law).
				pass = false
			}
			prevByLaw[law.String()] = maxLoad
			t.AddRow(law.String(), lambda, window, maxLoad, norm, ballsSum/float64(window))
		}
	}
	t.AddNote("[18] proves O(log n) max load for λ < 1 (\"the power of leaky bins\"); load grows as λ → 1")
	return &Result{
		ID:    "E15",
		Title: "Leaky bins with batched arrivals",
		Claim: "[18] (follow-up the paper cites in §1.3): probabilistic Tetris keeps logarithmic loads for λ < 1",
		Table: t,
		Pass:  pass,
	}, nil
}
