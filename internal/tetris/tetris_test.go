package tetris_test

// The Tetris stepper is shard.Tetris; these tests check it as
// shard.NewSequentialTetris builds it from this package's laws. They are
// an external test package because shard imports tetris.

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/tetris"
)

func TestNewValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := shard.NewSequentialTetris(nil, r, tetris.Options{}); err == nil {
		t.Error("no bins accepted")
	}
	if _, err := shard.NewSequentialTetris([]int32{1}, nil, tetris.Options{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := shard.NewSequentialTetris([]int32{-1}, r, tetris.Options{}); err == nil {
		t.Error("negative load accepted")
	}
	if _, err := shard.NewSequentialTetris([]int32{1}, r, tetris.Options{Lambda: 1.5}); err == nil {
		t.Error("lambda > 1 accepted")
	}
	if _, err := shard.NewSequentialTetris([]int32{1}, r, tetris.Options{Lambda: -0.5}); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := shard.NewSequentialTetris([]int32{1}, r, tetris.Options{Law: tetris.ArrivalLaw(9)}); err == nil {
		t.Error("unknown law accepted")
	}
}

func TestLawString(t *testing.T) {
	if tetris.Deterministic.String() != "deterministic" ||
		tetris.BinomialArrivals.String() != "binomial" ||
		tetris.PoissonArrivals.String() != "poisson" {
		t.Error("law names wrong")
	}
	if tetris.ArrivalLaw(7).String() == "" {
		t.Error("unknown law String should be non-empty")
	}
}

func TestDeterministicArrivalCount(t *testing.T) {
	// n = 100, λ default 3/4: exactly 75 arrivals per round, every non-empty
	// bin loses one. Starting empty, after one round exactly 75 balls exist.
	p, err := shard.NewSequentialTetris(make([]int32, 100), rng.New(2), tetris.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.Step()
	if p.Balls() != 75 {
		t.Fatalf("balls after 1 round from empty = %d, want 75", p.Balls())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCeilArrivals(t *testing.T) {
	// n = 10: ceil(7.5) = 8 arrivals.
	p, err := shard.NewSequentialTetris(make([]int32, 10), rng.New(3), tetris.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.Step()
	if p.Balls() != 8 {
		t.Fatalf("balls = %d, want ceil(3·10/4) = 8", p.Balls())
	}
}

func TestBallBalanceProperty(t *testing.T) {
	if err := quick.Check(func(seed uint32, lawRaw uint8) bool {
		law := tetris.ArrivalLaw(lawRaw % 3)
		r := rng.New(uint64(seed))
		p, err := shard.NewSequentialTetris(config.UniformRandom(50, 50, r), r, tetris.Options{Law: law})
		if err != nil {
			return false
		}
		for i := 0; i < 100; i++ {
			p.Step()
			if p.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeDriftKeepsLoadsBounded(t *testing.T) {
	// Expected balance per non-empty bin is 3/4 − 1 = −1/4, so from
	// one-per-bin the max load must stay O(log n) over a long window.
	const n = 1024
	p, err := shard.NewSequentialTetris(config.OnePerBin(n), rng.New(5), tetris.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bound := int32(6 * math.Log(n))
	for i := 0; i < 4*n; i++ {
		p.Step()
		if p.MaxLoad() > bound {
			t.Fatalf("round %d: Tetris max load %d > %d", i, p.MaxLoad(), bound)
		}
	}
}

func TestLemma4AllEmptiedWithin5n(t *testing.T) {
	// Lemma 4: from ANY configuration every bin empties within 5n rounds
	// w.h.p. Use the worst case all-in-one.
	const n = 512
	p, err := shard.NewSequentialTetris(config.AllInOne(n, n), rng.New(7), tetris.Options{})
	if err != nil {
		t.Fatal(err)
	}
	round, ok := p.RunUntilAllEmptied(5 * n)
	if !ok {
		t.Fatalf("not all bins emptied within 5n = %d rounds", 5*n)
	}
	if round < 1 {
		t.Fatalf("all-emptied round %d implausible", round)
	}
	t.Logf("all bins emptied by round %d (5n = %d)", round, 5*n)
}

func TestFirstEmptyInitialState(t *testing.T) {
	p, err := shard.NewSequentialTetris([]int32{0, 3, 0}, rng.New(9), tetris.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.FirstEmptyRound(0) != 0 || p.FirstEmptyRound(2) != 0 {
		t.Error("initially empty bins should have firstEmpty 0")
	}
	if p.FirstEmptyRound(1) != -1 {
		t.Error("loaded bin should have firstEmpty -1")
	}
	if _, ok := p.AllEmptiedRound(); ok {
		t.Error("AllEmptiedRound should be false while bin 1 is loaded")
	}
}

func TestBinomialArrivalsMeanRate(t *testing.T) {
	const n = 400
	const rounds = 2000
	p, err := shard.NewSequentialTetris(make([]int32, n), rng.New(11), tetris.Options{Law: tetris.BinomialArrivals, Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// From empty, run and let it reach steady state: arrivals mean 200/round,
	// departures one per non-empty bin. Total balls should hover near the
	// fixed point where #non-empty ≈ 200.
	p.Run(rounds)
	if p.Balls() < 100 || p.Balls() > 1000 {
		t.Fatalf("steady-state balls = %d, outside plausible band", p.Balls())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonArrivalsRun(t *testing.T) {
	const n = 256
	p, err := shard.NewSequentialTetris(config.OnePerBin(n), rng.New(13), tetris.Options{Law: tetris.PoissonArrivals, Lambda: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(2000)
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if p.MaxLoad() > int32(8*math.Log(n)) {
		t.Fatalf("Poisson λ=0.75 max load %d too large", p.MaxLoad())
	}
}

func TestLeakyBinsLoadGrowsWithLambda(t *testing.T) {
	// The stationary max load must increase as λ → 1 ([18]).
	const n = 512
	maxAt := func(lambda float64) int32 {
		p, err := shard.NewSequentialTetris(make([]int32, n), rng.New(17), tetris.Options{Law: tetris.BinomialArrivals, Lambda: lambda})
		if err != nil {
			t.Fatal(err)
		}
		var worst int32
		p.Run(500) // warm-up
		for i := 0; i < 3000; i++ {
			p.Step()
			if p.MaxLoad() > worst {
				worst = p.MaxLoad()
			}
		}
		return worst
	}
	lo, hi := maxAt(0.3), maxAt(0.95)
	if hi <= lo {
		t.Fatalf("max load did not grow with λ: λ=0.3 gives %d, λ=0.95 gives %d", lo, hi)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *shard.Tetris {
		p, err := shard.NewSequentialTetris(config.OnePerBin(64), rng.New(99), tetris.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(), mk()
	a.Run(300)
	b.Run(300)
	la, lb := a.LoadsCopy(), b.LoadsCopy()
	for i := range la {
		if la[i] != lb[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestLoadAccessors(t *testing.T) {
	p, err := shard.NewSequentialTetris([]int32{2, 0, 5}, rng.New(1), tetris.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 3 || p.Load(2) != 5 || p.MaxLoad() != 5 || p.EmptyBins() != 1 {
		t.Fatal("accessors wrong")
	}
	cp := p.LoadsCopy()
	cp[0] = 42
	if p.Load(0) != 2 {
		t.Fatal("LoadsCopy aliases internal state")
	}
}
