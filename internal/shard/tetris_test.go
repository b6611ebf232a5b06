package shard

// The Tetris process of §3.3 and the leaky bins of [18] are the
// sequential Process under a batch rule; these tests check the laws as
// NewSequential steps them, and the Lemma 4 tracker on top.

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/markov"
	"repro/internal/rng"
)

// tetrisRule is the paper's Tetris process: ⌈3n/4⌉ arrivals a round.
var tetrisRule = ArrivalRule{Kind: ArrivalQuota}

func TestNewValidation(t *testing.T) {
	r := rng.New(1)
	for name, tc := range map[string]struct {
		loads []int32
		src   *rng.Source
		rule  ArrivalRule
	}{
		"no bins":         {nil, r, tetrisRule},
		"nil source":      {[]int32{1}, nil, tetrisRule},
		"negative load":   {[]int32{-1}, r, tetrisRule},
		"lambda > 1":      {[]int32{1}, r, ArrivalRule{Kind: ArrivalQuota, Lambda: 1.5}},
		"negative lambda": {[]int32{1}, r, ArrivalRule{Kind: ArrivalBinomial, Lambda: -0.5}},
		"unknown law":     {[]int32{1}, r, ArrivalRule{Kind: ArrivalKind(9)}},
		"relaunch lambda": {[]int32{1}, r, ArrivalRule{Lambda: 0.5}},
	} {
		if _, err := NewSequential(tc.loads, tc.src, tc.rule); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLawString(t *testing.T) {
	if ArrivalRelaunch.String() != "relaunch" || ArrivalQuota.String() != "quota" ||
		ArrivalBinomial.String() != "binomial" || ArrivalPoisson.String() != "poisson" {
		t.Error("law names wrong")
	}
	if ArrivalKind(7).String() == "" {
		t.Error("unknown law String should be non-empty")
	}
	if got := (ArrivalRule{Kind: ArrivalPoisson, Lambda: 0.5}).String(); got != "poisson(λ=0.5)" {
		t.Errorf("rule renders %q", got)
	}
}

func TestDeterministicArrivalCount(t *testing.T) {
	// n = 100, λ default 3/4: exactly 75 arrivals per round, every non-empty
	// bin loses one. Starting empty, after one round exactly 75 balls exist.
	p, err := NewSequential(make([]int32, 100), rng.New(2), tetrisRule)
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
	p, err := NewSequential(make([]int32, 10), rng.New(3), tetrisRule)
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
		rule := ArrivalRule{Kind: ArrivalQuota + ArrivalKind(lawRaw%3)}
		r := rng.New(uint64(seed))
		p, err := NewSequential(config.UniformRandom(50, 50, r), r, rule)
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
	p, err := NewSequential(config.OnePerBin(n), rng.New(5), tetrisRule)
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
	p, err := NewSequential(config.AllInOne(n, n), rng.New(7), tetrisRule)
	if err != nil {
		t.Fatal(err)
	}
	round, ok := NewEmptyTracker(p).RunUntilAllEmptied(5 * n)
	if !ok {
		t.Fatalf("not all bins emptied within 5n = %d rounds", 5*n)
	}
	if round < 1 || round != p.Round() {
		t.Fatalf("all-emptied round %d implausible (process at round %d)", round, p.Round())
	}
	t.Logf("all bins emptied by round %d (5n = %d)", round, 5*n)
}

func TestFirstEmptyInitialState(t *testing.T) {
	p, err := NewSequential([]int32{0, 3, 0}, rng.New(9), tetrisRule)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewEmptyTracker(p)
	if tr.FirstEmptyRound(0) != 0 || tr.FirstEmptyRound(2) != 0 {
		t.Error("initially empty bins should have firstEmpty 0")
	}
	if tr.FirstEmptyRound(1) != -1 {
		t.Error("loaded bin should have firstEmpty -1")
	}
	if _, ok := tr.AllEmptiedRound(); ok {
		t.Error("AllEmptiedRound should be false while bin 1 is loaded")
	}
}

// TestEmptyTrackerMidRun: a tracker attached at round r reads r for every
// bin empty then, −1 for the others until a round it observes empties
// them, and reports the rounds a tracker attached at round 0 reports for
// the bins that first empty after r.
func TestEmptyTrackerMidRun(t *testing.T) {
	const n, at = 64, 40
	p, err := NewSequential(config.AllInOne(n, n), rng.New(21), tetrisRule)
	if err != nil {
		t.Fatal(err)
	}
	from0 := NewEmptyTracker(p)
	for p.Round() < at {
		p.Step()
		from0.Observe(p)
	}
	mid := NewEmptyTracker(p)
	for u := 0; u < n; u++ {
		want := int64(-1)
		if p.Load(u) == 0 {
			want = at
		}
		if got := mid.FirstEmptyRound(u); got != want {
			t.Fatalf("bin %d at attachment: %d, want %d", u, got, want)
		}
	}
	for i := 0; i < 20*n; i++ {
		p.Step()
		from0.Observe(p)
		mid.Observe(p)
	}
	all0, ok0 := from0.AllEmptiedRound()
	allMid, okMid := mid.AllEmptiedRound()
	if !ok0 || !okMid {
		t.Fatalf("not all emptied within %d rounds: %v %v", 20*n, ok0, okMid)
	}
	for u := 0; u < n; u++ {
		if r := from0.FirstEmptyRound(u); r > at && mid.FirstEmptyRound(u) != r {
			t.Fatalf("bin %d: mid-run tracker %d, tracker from round 0 %d", u, mid.FirstEmptyRound(u), r)
		}
	}
	if allMid < max(all0, at) {
		t.Fatalf("mid-run all-emptied round %d before %d", allMid, max(all0, at))
	}
}

// TestEmptyTrackerSkippedRound: a tracker that misses a round, or is
// observed twice after one, panics rather than record a wrong round.
func TestEmptyTrackerSkippedRound(t *testing.T) {
	p, err := NewSequential(config.AllInOne(8, 8), rng.New(1), tetrisRule)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewEmptyTracker(p)
	p.Step()
	tr.Observe(p)
	for name, misuse := range map[string]func(){
		"observed twice": func() { tr.Observe(p) },
		"skipped round":  func() { p.Run(2); tr.Observe(p) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "EmptyTracker") {
					t.Errorf("%s: recovered %v, want an EmptyTracker panic", name, r)
				}
			}()
			misuse()
		}()
	}
}

func TestBinomialArrivalsMeanRate(t *testing.T) {
	const n = 400
	const rounds = 2000
	p, err := NewSequential(make([]int32, n), rng.New(11), ArrivalRule{Kind: ArrivalBinomial, Lambda: 0.5})
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
	p, err := NewSequential(config.OnePerBin(n), rng.New(13), ArrivalRule{Kind: ArrivalPoisson, Lambda: 0.75})
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
		p, err := NewSequential(make([]int32, n), rng.New(17), ArrivalRule{Kind: ArrivalBinomial, Lambda: lambda})
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
	mk := func() *Process {
		p, err := NewSequential(config.OnePerBin(64), rng.New(99), tetrisRule)
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
	p, err := NewSequential([]int32{2, 0, 5}, rng.New(1), tetrisRule)
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

// TestBinEmptiesLikeDriftChain is the law-level link to Lemma 5: a single
// bin's load in the Tetris process, watched until it first empties, is
// exactly the drift chain Z_t = Z_{t−1} − 1 + Binomial(⌈3n/4⌉, 1/n). The
// paper's proof of Lemma 6 rests on this identification; the test checks
// it in distribution by comparing absorption-time samples from the full
// Tetris simulation against the one-dimensional chain.
func TestBinEmptiesLikeDriftChain(t *testing.T) {
	const n = 256
	const k = 8 // initial load of the watched bin
	const trials = 3000

	// Tetris-side samples: bin 0 starts at k, everything else empty
	// (≥ n/4 empty bins, Lemma 3's regime); record the first round bin 0
	// empties.
	r := rng.New(71)
	tetrisTimes := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		p, err := NewSequential(config.AllInOne(n, k), r, tetrisRule)
		if err != nil {
			t.Fatal(err)
		}
		for p.Load(0) != 0 {
			p.Step()
			if p.Round() > 100000 {
				t.Fatal("bin never emptied")
			}
		}
		tetrisTimes = append(tetrisTimes, float64(p.Round()))
	}

	// Chain-side samples.
	chain, err := markov.NewChain(n)
	if err != nil {
		t.Fatal(err)
	}
	chainTimes := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		tau, ok := chain.AbsorptionTime(k, 100000, r)
		if !ok {
			t.Fatal("chain never absorbed")
		}
		chainTimes = append(chainTimes, float64(tau))
	}

	// Compare means and a few quantiles (two-sample, generous bands for
	// Monte-Carlo noise at 3000 samples each).
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	mt, mc := mean(tetrisTimes), mean(chainTimes)
	if math.Abs(mt-mc) > 0.08*mc+1 {
		t.Fatalf("mean absorption: tetris %v vs chain %v", mt, mc)
	}
	sort.Float64s(tetrisTimes)
	sort.Float64s(chainTimes)
	for _, q := range []float64{0.25, 0.5, 0.75, 0.95} {
		it := tetrisTimes[int(q*float64(len(tetrisTimes)-1))]
		ic := chainTimes[int(q*float64(len(chainTimes)-1))]
		if math.Abs(it-ic) > 0.15*ic+2 {
			t.Fatalf("q=%.2f: tetris %v vs chain %v", q, it, ic)
		}
	}
}
