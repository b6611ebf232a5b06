package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/jackson"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/table"
)

// E19Jackson compares the paper's synchronous process against the closed
// Jackson network (§1.3) — the sequential classical model with an exact
// product-form stationary law. The table puts side by side, per n: the
// exact stationary max-load quantiles of the sequential model (computable
// because of product form), its simulated window max, and the parallel
// process's window max. Both models sit at Θ(log n); the paper's
// contribution is proving this for the parallel process, where product-form
// machinery fails (its chain is non-reversible and arrivals are not
// negatively associated, cf. E12).
func E19Jackson(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	ns := pick(cfg.Scale, []int{128, 256}, []int{256, 1024, 4096}, []int{1024, 4096})
	windowMult := pick(cfg.Scale, 8, 32, 64)

	t := table.New("E19 sequential baseline: closed Jackson network (§1.3) vs the parallel process",
		"n", "window T", "exact seq. p50 max", "exact seq. p99.9 max", "seq. window max (sim)", "parallel window max (sim)", "seq/par", "both Θ(log n)")
	pass := true
	for _, n := range ns {
		window := int64(windowMult * n)
		p50, err := jackson.StationaryMaxQuantile(n, n, 0.5)
		if err != nil {
			return nil, err
		}
		p999, err := jackson.StationaryMaxQuantile(n, n, 0.999)
		if err != nil {
			return nil, err
		}
		src := rng.NewStream(cfg.Seed, uint64(1900+n))
		net, err := jackson.New(config.OnePerBin(n), src)
		if err != nil {
			return nil, err
		}
		net.RunRounds(window)
		seqMax := float64(net.WindowMaxLoad())

		proc, err := shard.NewSequential(config.OnePerBin(n), src, shard.ArrivalRule{})
		if err != nil {
			return nil, err
		}
		var wm engine.WindowMax
		engine.Run(proc, window, &wm)
		parMax := float64(wm.Max())

		ratio := seqMax / parMax
		bothLog := seqMax <= 6*lnF(n) && parMax <= 6*lnF(n) &&
			seqMax >= float64(p50) && float64(p50) >= 1
		if !bothLog || ratio < 0.3 || ratio > 3 {
			pass = false
		}
		t.AddRow(n, window, p50, p999, seqMax, parMax, ratio, boolCell(bothLog))
	}
	t.AddNote("the sequential model's quantiles are EXACT (product form / uniform compositions); the paper's process admits no such formula")
	t.AddNote(fmt.Sprintf("shape: both models' window maxima are Θ(log n) and within a small factor of each other (legitimacy threshold uses β = %.0f)", config.Beta))
	return &Result{
		ID:    "E19",
		Title: "Closed Jackson network baseline",
		Claim: "§1.3: the closest classical model (sequential, product-form) matches the parallel process's Θ(log n) congestion — the delta is the proof, not the shape",
		Table: t,
		Pass:  pass,
	}, nil
}
