package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/rng"
	"repro/internal/shard"
)

func TestStrategyStringRoundTrip(t *testing.T) {
	for _, s := range []Strategy{FIFO, LIFO, Random} {
		got, err := ParseStrategy(s.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Fatalf("round trip %v -> %v", s, got)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy String should be non-empty")
	}
}

func TestNewTokenProcessValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := NewTokenProcess(nil, r, TokenOptions{}); err == nil {
		t.Error("no bins accepted")
	}
	if _, err := NewTokenProcess([]int32{-1}, r, TokenOptions{}); err == nil {
		t.Error("negative load accepted")
	}
	if _, err := NewTokenProcess([]int32{1}, nil, TokenOptions{}); err == nil {
		t.Error("nil source accepted")
	}
}

func TestTokenInitialPlacement(t *testing.T) {
	p, err := NewTokenProcess([]int32{2, 0, 3}, rng.New(1), TokenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Balls() != 5 || p.N() != 3 {
		t.Fatal("dims wrong")
	}
	wantPos := []int{0, 0, 2, 2, 2}
	for b, w := range wantPos {
		if p.Position(b) != w {
			t.Fatalf("ball %d at %d, want %d", b, p.Position(b), w)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTokenInvariantsUnderAllStrategies(t *testing.T) {
	for _, strat := range []Strategy{FIFO, LIFO, Random} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			r := rng.New(5)
			loads := config.UniformRandom(40, 40, r)
			p, err := NewTokenProcess(loads, r, TokenOptions{Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
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
	for _, strat := range []Strategy{FIFO, LIFO, Random} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			const n = 64
			setup := rng.New(31)
			loads := config.UniformRandom(n, n, setup)

			anon, err := shard.NewSequential(loads, rng.New(77))
			if err != nil {
				t.Fatal(err)
			}
			tok, err := NewTokenProcess(loads, rng.New(77), TokenOptions{
				Strategy:   strat,
				PickSource: rng.New(1234), // separate stream, never touches dest draws
			})
			if err != nil {
				t.Fatal(err)
			}
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
		strat := Strategy(stratRaw % 3)
		r := rng.New(uint64(seed))
		n := 20
		p, err := NewTokenProcess(config.UniformRandom(n, n, r), r, TokenOptions{Strategy: strat})
		if err != nil {
			return false
		}
		for i := 0; i < 100; i++ {
			p.Step()
		}
		return p.CheckInvariants() == nil
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHopsCountRelaunches(t *testing.T) {
	// Total hops after k rounds equals the total number of non-empty-bin
	// extractions, which for one ball per bin and n=1 is k.
	p, err := NewTokenProcess([]int32{1}, rng.New(3), TokenOptions{})
	if err != nil {
		t.Fatal(err)
	}
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
	r := rng.New(41)
	p, err := NewTokenProcess(config.OnePerBin(n), r, TokenOptions{Strategy: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(rounds)
	bound := int64(float64(rounds) / (8 * math.Log(n)))
	if got := p.MinHops(); got < bound {
		t.Fatalf("min progress %d < %d = t/(8 ln n)", got, bound)
	}
}

func TestDelayTracking(t *testing.T) {
	// n=1: the single ball is released every round, so every delay is 1.
	p, err := NewTokenProcess([]int32{1}, rng.New(3), TokenOptions{TrackDelays: true})
	if err != nil {
		t.Fatal(err)
	}
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
	r := rng.New(43)
	p, err := NewTokenProcess(config.OnePerBin(n), r, TokenOptions{Strategy: FIFO, TrackDelays: true})
	if err != nil {
		t.Fatal(err)
	}
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
	p, err := NewTokenProcess([]int32{1, 1}, rng.New(3), TokenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(20)
	if p.MaxDelay() != 0 || p.MeanDelay() != 0 {
		t.Fatal("delay stats collected while disabled")
	}
}

func TestCoverTracking(t *testing.T) {
	const n = 16
	r := rng.New(47)
	p, err := NewTokenProcess(config.OnePerBin(n), r, TokenOptions{TrackCover: true})
	if err != nil {
		t.Fatal(err)
	}
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
	p, err := NewTokenProcess([]int32{3}, rng.New(1), TokenOptions{TrackCover: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.CoverRound() != 0 {
		t.Fatalf("n=1 should be covered at round 0, got %d", p.CoverRound())
	}
}

func TestRunUntilCoveredRequiresTracking(t *testing.T) {
	p, err := NewTokenProcess([]int32{1, 1}, rng.New(1), TokenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := p.RunUntilCovered(10); ok || r != -1 {
		t.Fatal("cover without tracking should fail")
	}
}

func TestMaxLoadTrackedByTokenEngine(t *testing.T) {
	p, err := NewTokenProcess([]int32{4, 0, 0, 0}, rng.New(1), TokenOptions{})
	if err != nil {
		t.Fatal(err)
	}
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
	// is bin 0, so the queue should rotate in strict FIFO order.
	p, err := NewTokenProcess([]int32{3}, rng.New(9), TokenOptions{Strategy: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	// Queue starts [0 1 2]; after one step ball 0 moves to tail: [1 2 0].
	p.Step()
	if got := p.queue[0][p.head[0]:]; got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Fatalf("queue after 1 step = %v, want [1 2 0]", got)
	}
	p.Step()
	if got := p.queue[0][p.head[0]:]; got[0] != 2 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("queue after 2 steps = %v, want [2 0 1]", got)
	}
}

func TestLIFOOrder(t *testing.T) {
	// LIFO on n=1: the newest ball (tail) is re-released every round, so
	// after the first step the same ball keeps bouncing.
	p, err := NewTokenProcess([]int32{3}, rng.New(9), TokenOptions{Strategy: LIFO})
	if err != nil {
		t.Fatal(err)
	}
	p.Step() // ball 2 leaves and re-enters at tail
	p.Step()
	p.Step()
	if p.Hops(2) != 3 || p.Hops(0) != 0 || p.Hops(1) != 0 {
		t.Fatalf("hops = [%d %d %d], want [0 0 3]", p.Hops(0), p.Hops(1), p.Hops(2))
	}
}

func TestFIFOCompaction(t *testing.T) {
	// Long single-bin run: the queue storage must not grow without bound.
	p, err := NewTokenProcess([]int32{200}, rng.New(9), TokenOptions{Strategy: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(20000)
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c := cap(p.queue[0]); c > 4096 {
		t.Fatalf("queue capacity grew to %d; compaction not working", c)
	}
}

func BenchmarkTokenStepFIFO1024(b *testing.B) {
	p, err := NewTokenProcess(config.OnePerBin(1024), rng.New(1), TokenOptions{Strategy: FIFO})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

func BenchmarkTokenStepCover1024(b *testing.B) {
	p, err := NewTokenProcess(config.OnePerBin(1024), rng.New(1), TokenOptions{Strategy: FIFO, TrackCover: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}
