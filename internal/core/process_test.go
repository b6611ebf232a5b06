package core

// The anonymous process of the law this package documents is the
// one-shard shard.Process; these tests check it as NewSequential builds
// it. (core's tests may import shard: shard's non-test code does not
// import core.)

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/rng"
	"repro/internal/shard"
)

func TestNewProcessValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := shard.NewSequential(nil, r, shard.ArrivalRule{}); err == nil {
		t.Error("no bins accepted")
	}
	if _, err := shard.NewSequential([]int32{1, -2}, r, shard.ArrivalRule{}); err == nil {
		t.Error("negative load accepted")
	}
	if _, err := shard.NewSequential([]int32{1}, nil, shard.ArrivalRule{}); err == nil {
		t.Error("nil source accepted")
	}
}

func TestProcessCopiesInitialLoads(t *testing.T) {
	init := []int32{2, 0, 1}
	p, err := shard.NewSequential(init, rng.New(1), shard.ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	init[0] = 99
	if p.Load(0) != 2 {
		t.Fatal("process aliases caller slice")
	}
}

func TestProcessInitialStats(t *testing.T) {
	p, err := shard.NewSequential([]int32{3, 0, 0, 1}, rng.New(1), shard.ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 4 || p.Balls() != 4 || p.Round() != 0 {
		t.Fatal("basic accessors wrong")
	}
	if p.MaxLoad() != 3 || p.EmptyBins() != 2 || p.NonEmptyBins() != 2 {
		t.Fatalf("stats wrong: max=%d empty=%d nonempty=%d", p.MaxLoad(), p.EmptyBins(), p.NonEmptyBins())
	}
}

func TestBallConservation(t *testing.T) {
	if err := quick.Check(func(seed uint32, nRaw uint8) bool {
		n := int(nRaw)%50 + 2
		r := rng.New(uint64(seed))
		p, err := shard.NewSequential(config.UniformRandom(n, n, r), r, shard.ArrivalRule{})
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			p.Step()
			if p.CheckInvariants() != nil {
				return false
			}
		}
		return p.Balls() == int64(n)
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleBinSelfLoop(t *testing.T) {
	// With n = 1 the only ball must return to the only bin forever.
	p, err := shard.NewSequential([]int32{5}, rng.New(3), shard.ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		p.Step()
		if p.Load(0) != 5 {
			t.Fatalf("round %d: load = %d, want 5", i, p.Load(0))
		}
	}
}

func TestLoadDropsByAtMostOne(t *testing.T) {
	// Per the update rule, a bin's load can decrease by at most 1 per round.
	r := rng.New(7)
	p, err := shard.NewSequential(config.AllInOne(32, 32), r, shard.ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	prev := p.LoadsCopy()
	for i := 0; i < 300; i++ {
		p.Step()
		for u := 0; u < p.N(); u++ {
			if p.Load(u) < prev[u]-1 {
				t.Fatalf("round %d bin %d: %d -> %d (dropped >1)", i, u, prev[u], p.Load(u))
			}
		}
		prev = p.LoadsCopy()
	}
}

func TestEmptyBinsAtLeastQuarter(t *testing.T) {
	// Lemma 1/2: after round 1 the number of empty bins is >= n/4 w.h.p.
	// For n = 512 the failure probability is astronomically small.
	const n = 512
	r := rng.New(11)
	p, err := shard.NewSequential(config.OnePerBin(n), r, shard.ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		p.Step()
		if p.EmptyBins() < n/4 {
			t.Fatalf("round %d: only %d empty bins (< n/4 = %d)", i+1, p.EmptyBins(), n/4)
		}
	}
}

func TestEmptyBinsFromWorstCase(t *testing.T) {
	// Lemma 1 holds from ANY configuration: even starting all-in-one, one
	// round later at least n/4 bins are empty (trivially, here: most bins
	// stay empty).
	const n = 256
	p, err := shard.NewSequential(config.AllInOne(n, n), rng.New(13), shard.ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	p.Step()
	if p.EmptyBins() < n/4 {
		t.Fatalf("after 1 round: %d empty bins", p.EmptyBins())
	}
}

func TestStabilityMaxLoadLogarithmic(t *testing.T) {
	// Theorem 1(a) at test scale: from one-per-bin, over 4n rounds with
	// n = 1024 the max load should stay within ~4 ln n.
	const n = 1024
	p, err := shard.NewSequential(config.OnePerBin(n), rng.New(17), shard.ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	bound := int32(4 * math.Log(n)) // = 27
	var worst int32
	for i := 0; i < 4*n; i++ {
		p.Step()
		if p.MaxLoad() > worst {
			worst = p.MaxLoad()
		}
	}
	if worst > bound {
		t.Fatalf("max load over window = %d > %d = 4 ln n", worst, bound)
	}
	if worst < 3 {
		t.Fatalf("max load %d suspiciously small — process not mixing?", worst)
	}
}

func TestConvergenceFromWorstCase(t *testing.T) {
	// Theorem 1(b) at test scale: from all-in-one with n = 512, the process
	// reaches max load <= 4 ln n within O(n) rounds. The constant is ~1
	// (the heavy bin drains one ball per round); allow 3n.
	const n = 512
	p, err := shard.NewSequential(config.AllInOne(n, n), rng.New(19), shard.ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	threshold := config.LegitimateThreshold(n, config.Beta)
	rounds, ok := p.ConvergenceTime(threshold, 3*n)
	if !ok {
		t.Fatalf("did not converge within %d rounds", 3*n)
	}
	if rounds < n/2 {
		t.Fatalf("converged in %d rounds — too fast for a drain of %d balls", rounds, n)
	}
	t.Logf("converged in %d rounds (n = %d)", rounds, n)
}

func TestRunUntilAlreadySatisfied(t *testing.T) {
	p, err := shard.NewSequential(config.OnePerBin(8), rng.New(1), shard.ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	// Satisfied before the first step: zero steps taken even with a zero
	// (or negative) round budget.
	for _, budget := range []int64{0, -1, 10} {
		if !p.RunUntil(func(*shard.Process) bool { return true }, budget) {
			t.Fatalf("budget %d: pred true at start should return immediately", budget)
		}
		if p.Round() != 0 {
			t.Fatalf("budget %d: steps taken despite satisfied predicate", budget)
		}
	}
}

func TestRunUntilExhausts(t *testing.T) {
	p, err := shard.NewSequential(config.OnePerBin(8), rng.New(1), shard.ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	if p.RunUntil(func(*shard.Process) bool { return false }, 25) {
		t.Fatal("unsatisfiable predicate reported success")
	}
	if p.Round() != 25 {
		t.Fatalf("rounds = %d, want 25", p.Round())
	}
}

func TestRunAdvancesRounds(t *testing.T) {
	p, err := shard.NewSequential(config.OnePerBin(16), rng.New(2), shard.ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(40)
	if p.Round() != 40 {
		t.Fatalf("round = %d", p.Round())
	}
}

func TestDeterministicTrajectory(t *testing.T) {
	mk := func() *shard.Process {
		p, err := shard.NewSequential(config.OnePerBin(64), rng.New(99), shard.ArrivalRule{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(), mk()
	for i := 0; i < 200; i++ {
		a.Step()
		b.Step()
	}
	la, lb := a.LoadsCopy(), b.LoadsCopy()
	for i := range la {
		if la[i] != lb[i] {
			t.Fatal("same seed produced different trajectories")
		}
	}
}

// TestNegativeAssociationCounterexample reproduces Appendix B by Monte
// Carlo: with n = 2 starting from (1,1), P(X1=0, X2=0) = 1/8 exceeds
// P(X1=0)·P(X2=0) = 1/4 · 3/8 = 3/32, so arrivals are NOT negatively
// associated.
func TestNegativeAssociationCounterexample(t *testing.T) {
	const trials = 400000
	// One process, reset to (1, 1) before each trial: a build draws
	// nothing, so the trials read the source as fresh processes would.
	start := []int32{1, 1}
	p, err := shard.NewSequential(start, rng.New(23), shard.ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	bothZero, firstZero, secondZero := 0, 0, 0
	for i := 0; i < trials; i++ {
		if err := p.SetLoads(start); err != nil {
			t.Fatal(err)
		}
		before0 := p.Load(0)
		p.Step()
		// Arrivals into bin 0 in round 1: new load - max(old-1, 0).
		x1 := p.Load(0) - maxInt32(before0-1, 0)
		before0 = p.Load(0)
		p.Step()
		x2 := p.Load(0) - maxInt32(before0-1, 0)
		if x1 == 0 {
			firstZero++
		}
		if x2 == 0 {
			secondZero++
		}
		if x1 == 0 && x2 == 0 {
			bothZero++
		}
	}
	pBoth := float64(bothZero) / trials
	p1 := float64(firstZero) / trials
	p2 := float64(secondZero) / trials
	if math.Abs(pBoth-1.0/8) > 0.005 {
		t.Errorf("P(X1=0,X2=0) = %v, want 1/8", pBoth)
	}
	if math.Abs(p1-1.0/4) > 0.005 {
		t.Errorf("P(X1=0) = %v, want 1/4", p1)
	}
	if math.Abs(p2-3.0/8) > 0.005 {
		t.Errorf("P(X2=0) = %v, want 3/8", p2)
	}
	if pBoth <= p1*p2 {
		t.Errorf("counterexample failed: %v <= %v", pBoth, p1*p2)
	}
}

func maxInt32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
