package core

// The token process is walks.NewTokenProcess, the traversal of the
// complete graph with self-loops. These tests pin its process-level
// claims: the queueing strategies, the §4 progress and delay bounds, cover
// tracking, and the load law it shares with shard.NewSequential. The
// engine's own tests, on every graph, are in internal/walks.

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/walks"
)

func newToken(t testing.TB, loads []int32, src *rng.Source, opts walks.Options) *walks.Traversal {
	t.Helper()
	p, err := walks.NewTokenProcess(loads, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStrategyStringRoundTrip(t *testing.T) {
	for _, s := range []walks.Strategy{walks.FIFO, walks.LIFO, walks.Random} {
		got, err := walks.ParseStrategy(s.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Fatalf("round trip %v -> %v", s, got)
		}
	}
	if _, err := walks.ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
	if walks.Strategy(9).String() == "" {
		t.Error("unknown strategy String should be non-empty")
	}
}

func TestTokenInvariantsUnderAllStrategies(t *testing.T) {
	for _, strat := range []walks.Strategy{walks.FIFO, walks.LIFO, walks.Random} {
		t.Run(strat.String(), func(t *testing.T) {
			r := rng.New(5)
			p := newToken(t, config.UniformRandom(40, 40, r), r, walks.Options{Strategy: strat})
			for i := 0; i < 500; i++ {
				p.Step()
				if err := p.CheckInvariants(); err != nil {
					t.Fatalf("round %d: %v", i, err)
				}
			}
		})
	}
}

// TestEngineEquivalence is the load-law cross-check: driven by identical
// destination sources, the anonymous and token engines must produce
// identical load vectors round by round — for every strategy, because ball
// identity cannot influence loads. This is the implementation-level
// expression of the paper's strategy-obliviousness.
func TestEngineEquivalence(t *testing.T) {
	for _, strat := range []walks.Strategy{walks.FIFO, walks.LIFO, walks.Random} {
		t.Run(strat.String(), func(t *testing.T) {
			const n = 64
			setup := rng.New(31)
			loads := config.UniformRandom(n, n, setup)

			anon, err := shard.NewSequential(loads, rng.New(77), shard.ArrivalRule{})
			if err != nil {
				t.Fatal(err)
			}
			tok := newToken(t, loads, rng.New(77), walks.Options{
				Strategy:   strat,
				PickSource: rng.New(1234), // separate stream, never touches dest draws
			})
			for i := 0; i < 400; i++ {
				anon.Step()
				tok.Step()
				for u := 0; u < n; u++ {
					if anon.Load(u) != tok.Load(u) {
						t.Fatalf("round %d bin %d: anon %d vs token %d (strategy %v)",
							i, u, anon.Load(u), tok.Load(u), strat)
					}
				}
			}
		})
	}
}

func TestTokenConservationProperty(t *testing.T) {
	if err := quick.Check(func(seed uint32, stratRaw uint8) bool {
		strat := walks.Strategy(stratRaw % 3)
		r := rng.New(uint64(seed))
		n := 20
		p, err := walks.NewTokenProcess(config.UniformRandom(n, n, r), r, walks.Options{Strategy: strat})
		if err != nil {
			return false
		}
		p.Run(100)
		return p.CheckInvariants() == nil
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHopsCountRelaunches(t *testing.T) {
	// Total hops after k rounds equals the total number of non-empty-bin
	// extractions, which for one ball per bin and n=1 is k.
	p := newToken(t, []int32{1}, rng.New(3), walks.Options{})
	p.Run(17)
	if p.Hops(0) != 17 {
		t.Fatalf("hops = %d, want 17", p.Hops(0))
	}
	if p.MinHops() != 17 {
		t.Fatalf("MinHops = %d", p.MinHops())
	}
}

func TestProgressLowerBound(t *testing.T) {
	// §4: under FIFO every ball performs Ω(t / log n) steps. At test scale
	// (n = 256, t = 4096) the min progress should comfortably exceed
	// t / (8 ln n).
	const n = 256
	const rounds = 4096
	p := newToken(t, config.OnePerBin(n), rng.New(41), walks.Options{Strategy: walks.FIFO})
	p.Run(rounds)
	bound := int64(float64(rounds) / (8 * math.Log(n)))
	if got := p.MinHops(); got < bound {
		t.Fatalf("min progress %d < %d = t/(8 ln n)", got, bound)
	}
}

func TestDelayTracking(t *testing.T) {
	// n=1: the single ball is released every round, so every delay is 1.
	p := newToken(t, []int32{1}, rng.New(3), walks.Options{TrackDelays: true})
	p.Run(10)
	if p.MaxDelay() != 1 {
		t.Fatalf("max delay = %d, want 1", p.MaxDelay())
	}
	if p.MeanDelay() != 1 {
		t.Fatalf("mean delay = %v, want 1", p.MeanDelay())
	}
}

func TestDelayBoundedByLoadFIFO(t *testing.T) {
	// Under FIFO the max delay over a window is at most max load over the
	// window + 1 (a ball waits at most for the queue ahead of it).
	const n = 128
	p := newToken(t, config.OnePerBin(n), rng.New(43), walks.Options{Strategy: walks.FIFO, TrackDelays: true})
	var worstLoad int32
	for i := 0; i < 2000; i++ {
		p.Step()
		if p.MaxLoad() > worstLoad {
			worstLoad = p.MaxLoad()
		}
	}
	if p.MaxDelay() > int64(worstLoad)+1 {
		t.Fatalf("max delay %d > max load %d + 1", p.MaxDelay(), worstLoad)
	}
	if p.MeanDelay() < 1 {
		t.Fatalf("mean delay %v < 1", p.MeanDelay())
	}
}

func TestNoDelayStatsWhenDisabled(t *testing.T) {
	p := newToken(t, []int32{1, 1}, rng.New(3), walks.Options{})
	p.Run(20)
	if p.MaxDelay() != 0 || p.MeanDelay() != 0 {
		t.Fatal("delay stats collected while disabled")
	}
}

func TestCoverTracking(t *testing.T) {
	const n = 16
	p := newToken(t, config.OnePerBin(n), rng.New(47), walks.Options{TrackCover: true})
	// Initially each ball has visited exactly its own bin.
	for b := 0; b < n; b++ {
		if p.VisitCount(b) != 1 {
			t.Fatalf("ball %d initial visits = %d", b, p.VisitCount(b))
		}
	}
	round, ok := p.RunUntilCovered(int64(100 * n * n))
	if !ok {
		t.Fatal("did not cover")
	}
	if round < int64(n) {
		t.Fatalf("cover round %d implausibly small", round)
	}
	if p.Covered() != n {
		t.Fatalf("covered = %d, want %d", p.Covered(), n)
	}
	for b := 0; b < n; b++ {
		if p.VisitCount(b) != n {
			t.Fatalf("ball %d visited %d bins after cover", b, p.VisitCount(b))
		}
	}
}

func TestCoverSingleBin(t *testing.T) {
	p := newToken(t, []int32{3}, rng.New(1), walks.Options{TrackCover: true})
	if p.CoverRound() != 0 {
		t.Fatalf("n=1 should be covered at round 0, got %d", p.CoverRound())
	}
}

func TestMaxLoadTrackedByTokenEngine(t *testing.T) {
	p := newToken(t, []int32{4, 0, 0, 0}, rng.New(1), walks.Options{})
	if p.MaxLoad() != 4 || p.EmptyBins() != 3 {
		t.Fatal("initial stats wrong")
	}
	p.Step()
	if p.MaxLoad() < 1 {
		t.Fatal("max load vanished")
	}
}

func TestFIFOOrder(t *testing.T) {
	// Deterministic FIFO check on n=1: with a single bin every destination
	// is bin 0, so the queue [0 1 2] rotates in strict FIFO order and the
	// balls are released 0, 1, 2, 0, 1, …
	p := newToken(t, []int32{3}, rng.New(9), walks.Options{Strategy: walks.FIFO})
	for round := int64(1); round <= 7; round++ {
		p.Step()
		for b := int64(0); b < 3; b++ {
			if want := (round + 2 - b) / 3; p.Hops(int(b)) != want {
				t.Fatalf("round %d: ball %d hops %d, want %d", round, b, p.Hops(int(b)), want)
			}
		}
	}
}

func TestLIFOOrder(t *testing.T) {
	// LIFO on n=1: the newest ball (tail) is re-released every round, so
	// after the first step the same ball keeps bouncing.
	p := newToken(t, []int32{3}, rng.New(9), walks.Options{Strategy: walks.LIFO})
	p.Run(3) // ball 2 leaves and re-enters at tail, three times
	if p.Hops(2) != 3 || p.Hops(0) != 0 || p.Hops(1) != 0 {
		t.Fatalf("hops = [%d %d %d], want [0 0 3]", p.Hops(0), p.Hops(1), p.Hops(2))
	}
}
