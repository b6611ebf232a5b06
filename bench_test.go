package rbb

// One benchmark per experiment (E01–E16): each measures the computational
// kernel its experiment exercises, at fixed parameters, so `go test
// -bench=.` profiles the whole reproduction surface. The tables themselves
// are regenerated by cmd/rbb-experiments (see EXPERIMENTS.md); ablation
// benches for the design choices in DESIGN.md §4 are at the bottom.

import (
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/coupling"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/jackson"
	"repro/internal/markov"
	"repro/internal/rng"
	"repro/internal/walks"
)

const benchN = 1024

// BenchmarkE01Stability measures the anonymous process step — the kernel
// of the Theorem 1(a) window-max experiment.
func BenchmarkE01Stability(b *testing.B) {
	p, err := NewProcess(config.OnePerBin(benchN), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
	b.ReportMetric(float64(benchN), "bins/op")
}

// BenchmarkE02Convergence measures full convergence runs from the
// worst-case configuration (Theorem 1(b)).
func BenchmarkE02Convergence(b *testing.B) {
	threshold := config.LegitimateThreshold(benchN, config.Beta)
	for i := 0; i < b.N; i++ {
		p, err := NewProcess(config.AllInOne(benchN, benchN), rng.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := p.ConvergenceTime(threshold, int64(50*benchN)); !ok {
			b.Fatal("no convergence")
		}
	}
}

// BenchmarkE03EmptyBins measures stepping plus the empty-bin counting the
// Lemma 1–2 experiment relies on.
func BenchmarkE03EmptyBins(b *testing.B) {
	p, err := NewProcess(config.OnePerBin(benchN), rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
		sink += p.EmptyBins()
	}
	_ = sink
}

// BenchmarkE04Coupling measures one coupled round of the Lemma 3 joint
// construction (both processes on shared randomness).
func BenchmarkE04Coupling(b *testing.B) {
	r := rng.New(4)
	c, err := coupling.New(config.UniformRandom(benchN, benchN, r), r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// BenchmarkE05TetrisEmpty measures full Lemma 4 emptying runs from the
// worst case.
func BenchmarkE05TetrisEmpty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := NewTetris(config.AllInOne(benchN, benchN), rng.New(uint64(i)), ArrivalRule{Kind: ArrivalQuota})
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := NewEmptyTracker(p).RunUntilAllEmptied(int64(20 * benchN)); !ok {
			b.Fatal("not emptied")
		}
	}
}

// BenchmarkE06DriftChain measures the exact Lemma 5 tail DP (k = 16,
// t ≤ 416).
func BenchmarkE06DriftChain(b *testing.B) {
	c, err := markov.NewChain(benchN)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ExactTail(16, 416, 600); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE07TetrisLoad measures the Tetris step (Lemma 6 kernel).
func BenchmarkE07TetrisLoad(b *testing.B) {
	p, err := NewTetris(config.OnePerBin(benchN), rng.New(7), ArrivalRule{Kind: ArrivalQuota})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

// BenchmarkE08CoverTime measures full parallel cover runs on a small
// clique (Corollary 1 kernel; n kept small because one op = one full
// cover).
func BenchmarkE08CoverTime(b *testing.B) {
	const n = 128
	g, err := graph.NewComplete(n)
	if err != nil {
		b.Fatal(err)
	}
	lim := int64(500 * float64(n) * math.Pow(math.Log(n), 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := walks.NewOnePerNode(g, rng.New(uint64(i)), walks.Options{TrackCover: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := tr.RunUntilCovered(lim); !ok {
			b.Fatal("no cover")
		}
	}
}

// BenchmarkE09Progress measures the token-engine step with delay tracking
// (§4 progress kernel).
func BenchmarkE09Progress(b *testing.B) {
	p, err := NewTokenProcess(config.OnePerBin(benchN), rng.New(9), TokenOptions{
		Strategy:    FIFO,
		TrackDelays: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

// BenchmarkE10Adversary measures traversal stepping under the periodic
// fault schedule (§4.1 kernel).
func BenchmarkE10Adversary(b *testing.B) {
	const n = 256
	g, err := graph.NewComplete(n)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(10)
	tr, err := walks.NewOnePerNode(g, r, walks.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sched, err := adversary.NewPeriodic(6 * n)
	if err != nil {
		b.Fatal(err)
	}
	place := adversary.AllToOne{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sched.Faulty(tr.Round()) {
			if err := tr.ReassignAll(place.Positions(n, n, r)); err != nil {
				b.Fatal(err)
			}
		}
		tr.Step()
	}
}

// BenchmarkE11SqrtBaseline measures the long-window stepping kernel used
// for the √t-crossover table (identical step cost to E01; kept separate so
// the per-experiment mapping stays 1:1).
func BenchmarkE11SqrtBaseline(b *testing.B) {
	p, err := NewProcess(config.OnePerBin(benchN), rng.New(11))
	if err != nil {
		b.Fatal(err)
	}
	var runMax int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
		if p.MaxLoad() > runMax {
			runMax = p.MaxLoad()
		}
	}
	_ = runMax
}

// BenchmarkE12NegAssoc measures the exact two-round enumerator on the
// Appendix B system.
func BenchmarkE12NegAssoc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var pBoth float64
		if err := core.EnumerateArrivals([]int32{1, 1}, 0, 2, 1000, func(arr []int, p float64) {
			if arr[0] == 0 && arr[1] == 0 {
				pBoth += p
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13ManyBalls measures the step cost at m = 4n (the heaviest
// open-question configuration).
func BenchmarkE13ManyBalls(b *testing.B) {
	r := rng.New(13)
	p, err := NewProcess(config.UniformRandom(benchN, 4*benchN, r), r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

// BenchmarkE14RegularGraphs measures the traversal step on a random
// 4-regular graph (§5 conjecture kernel).
func BenchmarkE14RegularGraphs(b *testing.B) {
	r := rng.New(14)
	g, err := graph.NewRandomRegular(benchN, 4, r, 2000)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := walks.NewOnePerNode(g, r, walks.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step()
	}
}

// BenchmarkE15LeakyBins measures the Tetris step under Poisson batched
// arrivals ([18] kernel).
func BenchmarkE15LeakyBins(b *testing.B) {
	p, err := NewTetris(config.OnePerBin(benchN), rng.New(15), ArrivalRule{Kind: ArrivalPoisson, Lambda: 0.9})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

// BenchmarkE16Oblivious measures the Random-strategy token step (the most
// expensive strategy, exercising the pick stream).
func BenchmarkE16Oblivious(b *testing.B) {
	p, err := NewTokenProcess(config.OnePerBin(benchN), rng.New(16), TokenOptions{
		Strategy: Random,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

// BenchmarkE17Tightness measures the one-shot-throw + repeated-window
// kernel of the §5 tightness probe.
func BenchmarkE17Tightness(b *testing.B) {
	r := rng.New(17)
	p, err := NewProcess(config.UniformRandom(benchN, benchN, r), r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

// BenchmarkE18DChoices measures the two-choices step (extension kernel).
func BenchmarkE18DChoices(b *testing.B) {
	p, err := core.NewChoicesProcess(config.OnePerBin(benchN), 2, rng.New(18))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

// BenchmarkE19Jackson measures the sequential baseline's event kernel.
func BenchmarkE19Jackson(b *testing.B) {
	net, err := jackson.New(config.OnePerBin(benchN), rng.New(19))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Event()
	}
}

// --- ablations (DESIGN.md §4) ----------------------------------------------

// BenchmarkAblationEngineAnonymous vs BenchmarkAblationEngineToken: the
// same law in the loads-only engine and the identity-tracking engine.
func BenchmarkAblationEngineAnonymous(b *testing.B) {
	p, err := NewProcess(config.OnePerBin(benchN), rng.New(20))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

func BenchmarkAblationEngineToken(b *testing.B) {
	p, err := NewTokenProcess(config.OnePerBin(benchN), rng.New(20), TokenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

// BenchmarkAblationEngineTokenCover adds the m×n visited matrix.
func BenchmarkAblationEngineTokenCover(b *testing.B) {
	p, err := NewTokenProcess(config.OnePerBin(benchN), rng.New(20), TokenOptions{TrackCover: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

// BenchmarkAblationArrivalsThrow vs ...Alias: sampling the Tetris arrival
// vector by throwing 3n/4 balls vs drawing n binomials from an alias table
// (identical law; DESIGN.md §4.2).
func BenchmarkAblationArrivalsThrow(b *testing.B) {
	r := rng.New(21)
	arr := make([]int32, benchN)
	k := 3 * benchN / 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < k; j++ {
			arr[r.Intn(benchN)]++
		}
		for j := range arr {
			arr[j] = 0
		}
	}
}

func BenchmarkAblationArrivalsAlias(b *testing.B) {
	r := rng.New(21)
	bin, err := dist.NewBinomial(3*benchN/4, 1.0/benchN)
	if err != nil {
		b.Fatal(err)
	}
	arr := make([]int32, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range arr {
			arr[j] = int32(bin.Sample(r))
		}
		for j := range arr {
			arr[j] = 0
		}
	}
}

// BenchmarkAblationBoundedLemire vs ...Modulo: destination sampling
// (DESIGN.md §4.3; modulo shown only as the ablation baseline — it is
// biased).
func BenchmarkAblationBoundedLemire(b *testing.B) {
	r := rng.New(22)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64n(benchN)
	}
	_ = sink
}

func BenchmarkAblationBoundedModulo(b *testing.B) {
	r := rng.New(22)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64() % benchN
	}
	_ = sink
}

// BenchmarkAblationStrategyFIFO/LIFO/Random: queue disciplines (DESIGN.md
// §4.4; E16 shows the laws coincide, these show the constants).
func benchStrategy(b *testing.B, s Strategy) {
	p, err := NewTokenProcess(config.OnePerBin(benchN), rng.New(23), TokenOptions{Strategy: s})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

func BenchmarkAblationStrategyFIFO(b *testing.B)   { benchStrategy(b, FIFO) }
func BenchmarkAblationStrategyLIFO(b *testing.B)   { benchStrategy(b, LIFO) }
func BenchmarkAblationStrategyRandom(b *testing.B) { benchStrategy(b, Random) }
