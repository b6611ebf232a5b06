package experiments

import (
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/timeseries"
)

// E01Stability reproduces Theorem 1(a): starting from a legitimate
// configuration (one ball per bin), the maximum load over a long window
// stays O(log n) — the normalized column max_t M(t) / ln n must be flat in
// n and bounded by a small constant.
func E01Stability(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	ns := pick(cfg.Scale, []int{128, 256}, []int{256, 512, 1024, 2048, 4096}, []int{256, 512, 1024, 2048, 4096, 8192})
	trials := pick(cfg.Scale, 3, 5, 10)
	windowMult := pick(cfg.Scale, 8, 32, 64)

	t := table.New("E01 Theorem 1(a): window max load from a legitimate start",
		"n", "window T", "trials", "mean max M", "worst max M", "mean M/ln n", "6·ln n bound", "within bound")
	ratios := make([]float64, 0, len(ns))
	pass := true
	for _, n := range ns {
		window := int64(windowMult * n)
		res, err := sim.WindowMax(trials, cfg.Seed+uint64(n), window,
			func(_ int, src *rng.Source) (engine.Stepper, error) {
				p, err := shard.NewSequential(config.OnePerBin(n), src, shard.ArrivalRule{})
				if err != nil {
					return nil, err
				}
				return p, nil
			})
		if err != nil {
			return nil, err
		}
		bound := 6 * lnF(n)
		ratio := res.Summary.Mean / lnF(n)
		within := res.Summary.Max <= bound
		if !within {
			pass = false
		}
		ratios = append(ratios, ratio)
		t.AddRow(n, window, trials, res.Summary.Mean, res.Summary.Max, ratio, bound, boolCell(within))
	}
	spread := ratioSpread(ratios)
	if spread > 1.8 {
		pass = false
	}
	t.AddNote(fmt.Sprintf("M/ln n spread across n: %.2f (flat ⇒ Θ(log n); paper predicts O(log n))", spread))
	return &Result{
		ID:    "E01",
		Title: "Stability: max load over polynomial windows",
		Claim: "Theorem 1(a): M(t) = O(log n) for all t = O(n^c) w.h.p. from a legitimate start",
		Table: t,
		Pass:  pass,
	}, nil
}

// E02Convergence reproduces Theorem 1(b): from the worst configuration
// (all n balls in one bin), the process reaches a legitimate configuration
// within O(n) rounds — convergence time must fit a line through the origin
// in n.
func E02Convergence(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	ns := pick(cfg.Scale, []int{128, 256, 512}, []int{256, 512, 1024, 2048, 4096}, []int{512, 1024, 2048, 4096, 8192, 16384})
	trials := pick(cfg.Scale, 3, 8, 16)

	t := table.New("E02 Theorem 1(b): convergence time from all-in-one",
		"n", "trials", "mean T_conv", "p95 T_conv", "T_conv/n", "threshold β·ln n")
	xs := make([]float64, 0, len(ns))
	ys := make([]float64, 0, len(ns))
	for _, n := range ns {
		threshold := config.LegitimateThreshold(n, config.Beta)
		res, err := sim.RunScalar(trials, cfg.Seed+uint64(2*n), "tconv",
			func(_ int, src *rng.Source) (float64, error) {
				p, err := shard.NewSequential(config.AllInOne(n, n), src, shard.ArrivalRule{})
				if err != nil {
					return 0, err
				}
				rounds, ok := p.ConvergenceTime(threshold, int64(50*n))
				if !ok {
					return 0, fmt.Errorf("no convergence within 50n for n=%d", n)
				}
				return float64(rounds), nil
			})
		if err != nil {
			return nil, err
		}
		xs = append(xs, float64(n))
		ys = append(ys, res.Summary.Mean)
		t.AddRow(n, trials, res.Summary.Mean, res.Summary.P95, res.Summary.Mean/float64(n), int(threshold))
	}
	fit, err := stats.FitThroughOrigin(xs, ys)
	if err != nil {
		return nil, err
	}
	pass := fit.R2 > 0.95 && fit.Slope > 0.2 && fit.Slope < 5
	t.AddNote(fmt.Sprintf("fit T_conv = %.3f·n, R² = %.4f (paper: O(n), i.e. linear with constant slope)", fit.Slope, fit.R2))
	return &Result{
		ID:    "E02",
		Title: "Self-stabilization: linear convergence",
		Claim: "Theorem 1(b): from any configuration a legitimate configuration is reached within O(n) rounds w.h.p.",
		Table: t,
		Pass:  pass,
	}, nil
}

// E03EmptyBins reproduces Lemmas 1–2: in every round after the first, at
// least n/4 bins are empty, from legitimate and worst-case starts alike.
func E03EmptyBins(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	ns := pick(cfg.Scale, []int{128, 512}, []int{256, 1024, 4096}, []int{1024, 4096, 16384})
	windowMult := pick(cfg.Scale, 8, 32, 64)

	t := table.New("E03 Lemmas 1–2: minimum empty-bin fraction over the window (rounds ≥ 2)",
		"n", "start", "window T", "min empty frac", "mean empty frac", "≥ 1/4")
	pass := true
	for _, n := range ns {
		for _, start := range []config.Generator{config.GenOnePerBin, config.GenAllInOne} {
			src := rng.NewStream(cfg.Seed, uint64(3*n))
			loads, err := config.Make(start, n, n, src)
			if err != nil {
				return nil, err
			}
			p, err := shard.NewSequential(loads, src, shard.ArrivalRule{})
			if err != nil {
				return nil, err
			}
			window := int64(windowMult * n)
			p.Step() // Lemma 1 speaks about rounds after the first
			var ef engine.EmptyFraction
			engine.Run(p, window-1, &ef)
			ok := ef.Min() >= 0.25
			if !ok {
				pass = false
			}
			t.AddRow(n, string(start), window, ef.Min(), ef.Mean(), boolCell(ok))
		}
	}
	t.AddNote("paper: P(≥ n/4 empty) ≥ 1 − e^{−αn} per round; stationary fraction concentrates near 0.37–0.42")
	return &Result{
		ID:    "E03",
		Title: "Empty bins: the n/4 floor",
		Claim: "Lemma 1 + Lemma 2: #empty ≥ n/4 in all rounds 1..T w.h.p., from any start",
		Table: t,
		Pass:  pass,
	}, nil
}

// E11SqrtBaseline compares the paper's Θ(log n) stability bound against the
// prior O(√t) bound of [12] over a long window with geometric checkpoints:
// the observed M(t) stays flat near ln n while √t grows past it.
func E11SqrtBaseline(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	n := pick(cfg.Scale, 256, 1024, 4096)
	window := int64(n) * int64(n)
	if maxW := pick(cfg.Scale, int64(1<<16), int64(1<<20), int64(1<<24)); window > maxW {
		window = maxW
	}

	src := rng.NewStream(cfg.Seed, 11)
	p, err := shard.NewSequential(config.OnePerBin(n), src, shard.ArrivalRule{})
	if err != nil {
		return nil, err
	}
	cps, err := timeseries.NewCheckpoints(int64(n)/4, 2)
	if err != nil {
		return nil, err
	}
	var wm engine.WindowMax
	engine.Run(p, window, &wm, engine.ObserverFunc(func(s engine.Stepper) {
		cps.Observe(s.Round(), float64(wm.Max()))
	}))

	t := table.New(fmt.Sprintf("E11 observed running-max load vs the prior O(√t) bound (n = %d)", n),
		"t", "running max M", "ln n", "√t ([12] shape)", "M ≤ √t")
	pass := true
	times := cps.Times()
	vals := cps.Values()
	for i, tm := range times {
		sq := math.Sqrt(float64(tm))
		ok := vals[i] <= sq || tm < int64(float64(n)) // √t only binds once t is large
		if tm >= int64(n) && vals[i] > sq {
			pass = false
			ok = false
		}
		t.AddRow(tm, vals[i], lnF(n), sq, boolCell(ok))
	}
	final := vals[len(vals)-1]
	if final > 8*lnF(n) {
		pass = false
	}
	t.AddNote(fmt.Sprintf("final running max %.0f vs 8·ln n = %.1f and √T = %.0f: the log-bound wins by %.0fx",
		final, 8*lnF(n), math.Sqrt(float64(window)), math.Sqrt(float64(window))/final))
	return &Result{
		ID:    "E11",
		Title: "Crossover against the prior √t analysis",
		Claim: "Theorem 1 strictly improves the O(√t) max-load bound of [12] (flat log vs growing √t)",
		Table: t,
		Pass:  pass,
	}, nil
}

// E13ManyBalls probes the §5 open question: what happens for m ≠ n balls.
// For m ≤ n Theorem 1's proof applies unchanged (the paper notes this); for
// m > n the question is open — the experiment records the observed window
// max to show the empirical shape (the max grows with m/n but stays flat
// over the window for moderate ratios).
func E13ManyBalls(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	n := pick(cfg.Scale, 256, 1024, 4096)
	windowMult := pick(cfg.Scale, 8, 32, 64)
	trials := pick(cfg.Scale, 2, 4, 8)
	ratios := []float64{0.5, 1, 2, 4}

	t := table.New(fmt.Sprintf("E13 window max load for m balls in n = %d bins", n),
		"m", "m/n", "window T", "mean max M", "M/ln n", "M at T/2 vs T (flatness)")
	window := int64(windowMult * n)
	pass := true
	var ratioAtOne float64
	for _, ratio := range ratios {
		m := int(ratio * float64(n))
		res, err := sim.Run(sim.Spec{
			Trials:      trials,
			Seed:        cfg.Seed + uint64(m),
			Metrics:     []string{"max", "maxHalf"},
			Parallelism: cfg.Parallelism,
		}, func(_ int, src *rng.Source) ([]float64, error) {
			p, err := shard.NewSequential(config.UniformRandom(n, m, src), src, shard.ArrivalRule{})
			if err != nil {
				return nil, err
			}
			var wm engine.WindowMax
			var half float64
			i := int64(0)
			engine.Run(p, window, &wm, engine.ObserverFunc(func(engine.Stepper) {
				if i == window/2 {
					half = float64(wm.Max())
				}
				i++
			}))
			return []float64{float64(wm.Max()), half}, nil
		})
		if err != nil {
			return nil, err
		}
		mean := res[0].Summary.Mean
		half := res[1].Summary.Mean
		flat := fmt.Sprintf("%.1f / %.1f", half, mean)
		norm := mean / lnF(n)
		if ratio == 1 {
			ratioAtOne = norm
			if norm > 4 {
				pass = false
			}
		}
		t.AddRow(m, ratio, window, mean, norm, flat)
	}
	// m = n log n — the paper's explicit open question "any m = O(n log n)".
	mBig := int(float64(n) * lnF(n))
	res, err := sim.WindowMax(trials, cfg.Seed+uint64(mBig), window,
		func(_ int, src *rng.Source) (engine.Stepper, error) {
			p, err := shard.NewSequential(config.UniformRandom(n, mBig, src), src, shard.ArrivalRule{})
			if err != nil {
				return nil, err
			}
			return p, nil
		})
	if err != nil {
		return nil, err
	}
	t.AddRow(mBig, "ln n", window, res.Summary.Mean, res.Summary.Mean/lnF(n), "-")
	t.AddNote(fmt.Sprintf("m = n: M/ln n = %.2f (Theorem 1 regime); m > n rows are the open-question record", ratioAtOne))
	return &Result{
		ID:    "E13",
		Title: "Open question: m ≠ n balls",
		Claim: "§5: Theorem 1 covers m ≤ n; whether it extends to m = O(n log n) is open — empirical record",
		Table: t,
		Pass:  pass,
	}, nil
}
