package experiments

import (
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/walks"
)

// E12NegativeAssociation reproduces Appendix B: for n = 2 starting from
// (1, 1), the arrival counts X₁, X₂ into bin 0 satisfy
// P(X₁=0, X₂=0) = 1/8 > 3/32 = P(X₁=0)·P(X₂=0), so the arrivals are NOT
// negatively associated and standard concentration tools do not apply to
// the original process — the motivation for the Tetris detour. Both an
// exact enumeration and a Monte-Carlo estimate are reported.
func E12NegativeAssociation(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	trials := pick(cfg.Scale, 100000, 400000, 2000000)

	var exBoth, ex1, ex2 float64
	if err := core.EnumerateArrivals([]int32{1, 1}, 0, 2, 1000, func(arr []int, p float64) {
		if arr[0] == 0 {
			ex1 += p
		}
		if arr[1] == 0 {
			ex2 += p
		}
		if arr[0] == 0 && arr[1] == 0 {
			exBoth += p
		}
	}); err != nil {
		return nil, err
	}

	// Monte Carlo on the real engine: one process, reset to (1, 1) before
	// each trial. A build draws nothing, so the trials read src in the
	// order fresh processes would.
	start := []int32{1, 1}
	p, err := shard.NewSequential(start, rng.NewStream(cfg.Seed, 12), shard.ArrivalRule{})
	if err != nil {
		return nil, err
	}
	var mcBoth, mc1, mc2 float64
	for i := 0; i < trials; i++ {
		if err := p.SetLoads(start); err != nil {
			return nil, err
		}
		before := p.Load(0)
		p.Step()
		x1 := p.Load(0) - max32(before-1, 0)
		before = p.Load(0)
		p.Step()
		x2 := p.Load(0) - max32(before-1, 0)
		if x1 == 0 {
			mc1++
		}
		if x2 == 0 {
			mc2++
		}
		if x1 == 0 && x2 == 0 {
			mcBoth++
		}
	}
	mc1 /= float64(trials)
	mc2 /= float64(trials)
	mcBoth /= float64(trials)

	t := table.New("E12 Appendix B: negative-association counterexample (n = 2, start (1,1))",
		"quantity", "paper", "exact", "monte carlo")
	t.AddRow("P(X1=0)", "1/4 = 0.25", ex1, mc1)
	t.AddRow("P(X2=0)", "3/8 = 0.375", ex2, mc2)
	t.AddRow("P(X1=0, X2=0)", "1/8 = 0.125", exBoth, mcBoth)
	t.AddRow("P(X1=0)·P(X2=0)", "3/32 = 0.09375", ex1*ex2, mc1*mc2)

	pass := math.Abs(ex1-0.25) < 1e-12 &&
		math.Abs(ex2-0.375) < 1e-12 &&
		math.Abs(exBoth-0.125) < 1e-12 &&
		exBoth > ex1*ex2 &&
		mcBoth > mc1*mc2 &&
		math.Abs(mcBoth-0.125) < 0.01
	t.AddNote("joint exceeds product ⇒ NOT negatively associated; empty rounds make future empty rounds MORE likely")
	return &Result{
		ID:    "E12",
		Title: "Arrivals are not negatively associated",
		Claim: "Appendix B: P(X1=0, X2=0) = 1/8 > 3/32 = P(X1=0)·P(X2=0) for n = 2",
		Table: t,
		Pass:  pass,
	}, nil
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// E16Oblivious verifies the paper's remark (§2 footnote 2) that the results
// are oblivious to the queueing strategy, at two levels:
//
//  1. Engine level (exact): driven by the same destination stream, FIFO,
//     LIFO, Random and the anonymous engine produce identical load
//     trajectories — ball identity cannot influence loads.
//  2. Law level (statistical): across independent runs, the window-max-load
//     distributions of the three strategies coincide within Monte-Carlo
//     error.
func E16Oblivious(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	n := pick(cfg.Scale, 128, 512, 2048)
	trials := pick(cfg.Scale, 8, 20, 50)
	windowMult := pick(cfg.Scale, 8, 16, 32)
	window := int64(windowMult * n)

	strategies := []walks.Strategy{walks.FIFO, walks.LIFO, walks.Random}

	// Level 1: exact trajectory equality on shared destination stream.
	identical := true
	{
		loads := config.OnePerBin(n)
		ref, err := shard.NewSequential(loads, rng.NewStream(cfg.Seed, 160), shard.ArrivalRule{})
		if err != nil {
			return nil, err
		}
		toks := make([]*walks.Traversal, len(strategies))
		for i, s := range strategies {
			tp, err := walks.NewTokenProcess(loads, rng.NewStream(cfg.Seed, 160), walks.Options{
				Strategy:   s,
				PickSource: rng.NewStream(cfg.Seed, 161+uint64(i)),
			})
			if err != nil {
				return nil, err
			}
			toks[i] = tp
		}
		check := int64(512)
		if check > window {
			check = window
		}
		for r := int64(0); r < check && identical; r++ {
			ref.Step()
			for _, tp := range toks {
				tp.Step()
			}
			for u := 0; u < n && identical; u++ {
				for _, tp := range toks {
					if tp.Load(u) != ref.Load(u) {
						identical = false
					}
				}
			}
		}
	}

	// Level 2: distribution comparison across independent streams.
	t := table.New(fmt.Sprintf("E16 strategy obliviousness (n = %d, window %d)", n, window),
		"strategy", "trials", "mean window max", "std", "95%% CI half-width")
	means := make([]float64, len(strategies))
	ses := make([]float64, len(strategies))
	for i, s := range strategies {
		s := s
		res, err := sim.WindowMax(trials, cfg.Seed+uint64(1600+i), window,
			func(_ int, src *rng.Source) (engine.Stepper, error) {
				tp, err := walks.NewTokenProcess(config.OnePerBin(n), src, walks.Options{Strategy: s})
				if err != nil {
					return nil, err
				}
				return tp, nil
			})
		if err != nil {
			return nil, err
		}
		means[i] = res.Summary.Mean
		ses[i] = res.Summary.SE
		t.AddRow(s.String(), trials, res.Summary.Mean, res.Summary.Std, 1.96*res.Summary.SE)
	}
	lawsAgree := true
	for i := 0; i < len(strategies); i++ {
		for j := i + 1; j < len(strategies); j++ {
			tol := 4*math.Sqrt(ses[i]*ses[i]+ses[j]*ses[j]) + 0.5
			if math.Abs(means[i]-means[j]) > tol {
				lawsAgree = false
			}
		}
	}
	t.AddRow("anonymous≡token", "-", map[bool]string{true: "identical trajectories", false: "MISMATCH"}[identical], "-", "-")
	t.AddNote("same destination stream ⇒ bit-identical load trajectories for every strategy (engine-level proof of obliviousness)")
	return &Result{
		ID:    "E16",
		Title: "Queueing-strategy obliviousness",
		Claim: "§2 fn.2: the process law (loads) is independent of the queueing strategy",
		Table: t,
		Pass:  identical && lawsAgree,
	}, nil
}
