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
)

// E17Tightness probes the paper's final open question (§5): is the
// O(log n) bound on the repeated process's max load tight, or can it be
// improved to the one-shot Θ(log n / log log n)? The paper conjectures the
// max load exceeds log n / log log n with non-negligible probability over
// polynomial windows. The experiment compares, per n: the one-shot max
// (fresh uniform throw, the classical Θ(ln n / ln ln n) baseline), the
// repeated process's stationary window max, and both normalizers.
func E17Tightness(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	ns := pick(cfg.Scale, []int{256, 1024}, []int{256, 1024, 4096, 16384}, []int{1024, 4096, 16384, 65536})
	trials := pick(cfg.Scale, 3, 5, 10)
	windowMult := pick(cfg.Scale, 8, 32, 64)

	t := table.New("E17 §5 tightness: repeated window max vs the one-shot Θ(ln n/ln ln n) baseline",
		"n", "window T", "one-shot max", "repeated window max", "ln n/ln ln n", "ln n", "rep. max ÷ (ln n/ln ln n)", "exceeds one-shot")
	pass := true
	excessRatios := make([]float64, 0, len(ns))
	for _, n := range ns {
		window := int64(windowMult * n)
		res, err := sim.Run(sim.Spec{
			Trials:      trials,
			Seed:        cfg.Seed + uint64(17*n),
			Metrics:     []string{"oneshot", "repeated"},
			Parallelism: cfg.Parallelism,
		}, func(_ int, src *rng.Source) ([]float64, error) {
			loads := config.UniformRandom(n, n, src)
			oneShot := float64(config.MaxLoad(loads))
			p, err := shard.NewSequential(loads, src, shard.ArrivalRule{})
			if err != nil {
				return nil, err
			}
			var wm engine.WindowMax
			engine.Run(p, window, &wm)
			return []float64{oneShot, float64(wm.Max())}, nil
		})
		if err != nil {
			return nil, err
		}
		oneShot := res[0].Summary.Mean
		repeated := res[1].Summary.Mean
		lnln := lnF(n) / math.Log(lnF(n))
		ratio := repeated / lnln
		excessRatios = append(excessRatios, ratio)
		exceeds := repeated > oneShot
		// The conjecture's direction: the repeated max should sit above the
		// one-shot level (the correlations hurt), and within O(log n).
		if !exceeds || repeated > 6*lnF(n) {
			pass = false
		}
		t.AddRow(n, window, oneShot, repeated, lnln, lnF(n), ratio, boolCell(exceeds))
	}
	growing := len(excessRatios) >= 2 && excessRatios[len(excessRatios)-1] > excessRatios[0]
	t.AddNote(fmt.Sprintf("rep. max ÷ (ln n/ln ln n) trend across n: %.2f → %.2f (growing ⇒ consistent with the paper's conjecture that Θ(log n/log log n) is NOT achievable; growing=%v)",
		excessRatios[0], excessRatios[len(excessRatios)-1], growing))
	t.AddNote("the window max sits between the two normalizers: strictly above the one-shot law, within O(log n)")
	return &Result{
		ID:    "E17",
		Title: "Tightness: log n vs log n/log log n",
		Claim: "§5: the paper conjectures max load exceeds log n/log log n with non-negligible probability over poly windows",
		Table: t,
		Pass:  pass,
	}, nil
}

// E18DChoices runs the d-choices generalization the paper cites ([36],
// also used for deletions [37]): every relaunched ball samples d bins and
// joins the least loaded. The one-shot "power of two choices" carries over
// to the repeated setting: window max collapses from Θ(log n) at d = 1 to
// a small constant at d ≥ 2.
func E18DChoices(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	n := pick(cfg.Scale, 512, 2048, 8192)
	windowMult := pick(cfg.Scale, 8, 32, 64)
	trials := pick(cfg.Scale, 3, 5, 10)
	ds := []int{1, 2, 3, 4}

	t := table.New(fmt.Sprintf("E18 power of d choices in the repeated setting (n = %d)", n),
		"d", "window T", "trials", "mean window max", "worst window max", "mean ÷ ln n", "mean ÷ (ln ln n/ln d + 1)")
	window := int64(windowMult * n)
	maxes := make([]float64, 0, len(ds))
	for _, d := range ds {
		d := d
		res, err := sim.WindowMax(trials, cfg.Seed+uint64(1800+d), window,
			func(_ int, src *rng.Source) (engine.Stepper, error) {
				p, err := core.NewChoicesProcess(config.OnePerBin(n), d, src)
				if err != nil {
					return nil, err
				}
				return p, nil
			})
		if err != nil {
			return nil, err
		}
		maxes = append(maxes, res.Summary.Mean)
		gapNorm := math.NaN()
		if d >= 2 {
			gapNorm = res.Summary.Mean / (math.Log(lnF(n))/math.Log(float64(d)) + 1)
		}
		gapCell := "-"
		if !math.IsNaN(gapNorm) {
			gapCell = table.FormatFloat(gapNorm)
		}
		t.AddRow(d, window, trials, res.Summary.Mean, res.Summary.Max, res.Summary.Mean/lnF(n), gapCell)
	}
	// Shape: d = 2 collapses the max well below d = 1; d ≥ 2 all small.
	pass := maxes[1] < 0.75*maxes[0]
	for _, m := range maxes[1:] {
		if m > maxes[0] {
			pass = false
		}
	}
	t.AddNote("one-shot theory ([19], [36]): max gap drops from Θ(log n/log log n) to log log n/log d + O(1); the repeated process shows the same collapse")
	return &Result{
		ID:    "E18",
		Title: "Power of d choices (extension)",
		Claim: "[36]-style d-choices generalization (paper §1.3): two choices collapse the max load",
		Table: t,
		Pass:  pass,
	}, nil
}
