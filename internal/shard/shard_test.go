package shard

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/tetris"
)

func TestEngineValidation(t *testing.T) {
	if _, err := NewProcess(nil, 1, Options{}); err == nil {
		t.Error("no bins accepted")
	}
	if _, err := NewProcess([]int32{-1}, 1, Options{}); err == nil {
		t.Error("negative load accepted")
	}
	if _, err := NewTetris([]int32{1}, 1, TetrisOptions{Lambda: 1.5}); err == nil {
		t.Error("lambda > 1 accepted")
	}
	if _, err := NewTetris([]int32{1}, 1, TetrisOptions{Law: tetris.ArrivalLaw(99)}); err == nil {
		t.Error("bogus arrival law accepted")
	}
	// Past 2^31 bins a destination no longer fits an int32: the group frame
	// refuses the shape before it allocates a single shard.
	big := &EngineSnapshot{N: MaxBins + 1, Shards: make([]ShardSnapshot, 1)}
	if _, err := RestoreProcess(big, Options{}); err == nil || !strings.Contains(err.Error(), "2147483648") {
		t.Errorf("n = 2^31+1: %v, want an error naming the 2147483648-bin limit", err)
	}
}

func TestPartition(t *testing.T) {
	for _, tc := range []struct{ n, s int }{
		{1, 1}, {7, 3}, {64, 8}, {100, 7}, {5, 8}, // s > n clamps to n
	} {
		p, err := NewProcess(make([]int32, tc.n), 1, Options{Shards: tc.s})
		if err != nil {
			t.Fatal(err)
		}
		wantS := tc.s
		if wantS > tc.n {
			wantS = tc.n
		}
		if p.Shards() != wantS {
			t.Fatalf("n=%d s=%d: got %d shards", tc.n, tc.s, p.Shards())
		}
		// Every bin maps to the shard whose range contains it, and sizes
		// differ by at most one.
		for v := 0; v < tc.n; v++ {
			i := p.Group().ShardOf(v)
			base, size := PartitionStart(tc.n, wantS, i), PartitionSize(tc.n, wantS, i)
			if v < base || v >= base+size {
				t.Fatalf("n=%d s=%d: bin %d mapped to shard %d [%d,%d)",
					tc.n, tc.s, v, i, base, base+size)
			}
		}
		min, max := tc.n, 0
		for i := 0; i < wantS; i++ {
			if sz := PartitionSize(tc.n, p.Shards(), i); sz < min {
				min = sz
			} else if sz > max {
				max = sz
			}
		}
		if max > 0 && max-min > 1 {
			t.Fatalf("n=%d s=%d: shard sizes range [%d,%d]", tc.n, tc.s, min, max)
		}
		p.Close()
	}
}

// TestWorkerInvariance is the P-invariance contract: with the shard count
// held fixed, the aggregate trajectory is byte-identical whether the
// phases run on one goroutine or eight.
func TestWorkerInvariance(t *testing.T) {
	const (
		n      = 1 << 12
		seed   = 42
		shards = 8
		rounds = 300
	)
	loads := config.AllInOne(n, n)
	a, err := NewProcess(loads, seed, Options{Shards: shards, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewProcess(loads, seed, Options{Shards: shards, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Workers() != 1 || b.Workers() != 8 {
		t.Fatalf("workers = %d, %d; want 1, 8", a.Workers(), b.Workers())
	}
	for r := 0; r < rounds; r++ {
		a.Step()
		b.Step()
		if a.MaxLoad() != b.MaxLoad() || a.EmptyBins() != b.EmptyBins() {
			t.Fatalf("round %d: stats diverge: max %d vs %d, empty %d vs %d",
				r, a.MaxLoad(), b.MaxLoad(), a.EmptyBins(), b.EmptyBins())
		}
	}
	la, lb := a.LoadsCopy(), b.LoadsCopy()
	for u := range la {
		if la[u] != lb[u] {
			t.Fatalf("bin %d: load %d (P=1) vs %d (P=8)", u, la[u], lb[u])
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTransportInvariance is the in-process half of the transport
// contract: with (seed, n, S) fixed, the persistent pool at several worker
// counts, under both dense kernels, produces byte-identical trajectories.
// The cross-process half lives in transport/tcp's matrix test.
func TestTransportInvariance(t *testing.T) {
	const (
		n      = 1 << 13
		seed   = 17
		shards = 8
		rounds = 250
	)
	loads := config.AllInOne(n, n)
	var variants []Options
	for _, k := range []engine.Kernel{engine.KernelBatched, engine.KernelScalar} {
		for _, w := range []int{1, 4, shards} {
			variants = append(variants, Options{Shards: shards, Workers: w, Kernel: k})
		}
	}
	var ref []int32
	var refMax int32
	for vi, opts := range variants {
		p, err := NewProcess(loads, seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		var wm int32
		for r := 0; r < rounds; r++ {
			p.Step()
			if m := p.MaxLoad(); m > wm {
				wm = m
			}
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("variant %d: %v", vi, err)
		}
		got := p.LoadsCopy()
		if err := p.Close(); err != nil {
			t.Fatalf("variant %d: close: %v", vi, err)
		}
		if vi == 0 {
			ref, refMax = got, wm
			continue
		}
		if wm != refMax {
			t.Fatalf("variant %d (%v W=%d): window max %d vs %d", vi, opts.Kernel, opts.Workers, wm, refMax)
		}
		for u := range got {
			if got[u] != ref[u] {
				t.Fatalf("variant %d (%v W=%d): bin %d: load %d vs %d", vi, opts.Kernel, opts.Workers, u, got[u], ref[u])
			}
		}
	}
}

// TestInitialSnapshot pins that the process-free fresh-run snapshot equals
// the snapshot of a freshly built process — the multi-process transport's
// fresh-run join payload depends on this identity.
func TestInitialSnapshot(t *testing.T) {
	const n, s, seed = 1000, 7, 23
	loads := config.UniformRandom(n, 1700, rng.New(4))
	want, err := NewProcess(loads, seed, Options{Shards: s})
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	wantSnap, err := want.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := InitialSnapshot(loads, seed, s, engine.WidthAuto)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != wantSnap.N || got.Round != wantSnap.Round || len(got.Shards) != len(wantSnap.Shards) {
		t.Fatalf("shape: got (%d,%d,%d) want (%d,%d,%d)",
			got.N, got.Round, len(got.Shards), wantSnap.N, wantSnap.Round, len(wantSnap.Shards))
	}
	for i := range got.Shards {
		g, w := &got.Shards[i], &wantSnap.Shards[i]
		if g.RNG != w.RNG {
			t.Fatalf("shard %d: rng state differs", i)
		}
		for u := range g.Loads {
			if g.Loads[u] != w.Loads[u] {
				t.Fatalf("shard %d bin %d: %d vs %d", i, u, g.Loads[u], w.Loads[u])
			}
		}
		for j := range g.Work {
			if g.Work[j] != w.Work[j] {
				t.Fatalf("shard %d word %d: %x vs %x", i, j, g.Work[j], w.Work[j])
			}
		}
	}
	if _, err := InitialSnapshot(nil, 1, 2, engine.WidthAuto); err == nil {
		t.Error("empty loads accepted")
	}
	if _, err := InitialSnapshot([]int32{-1}, 1, 1, engine.WidthAuto); err == nil {
		t.Error("negative load accepted")
	}
}

// TestSingleShardMatchesSequential pins the S = 1 anchor of the
// determinism contract: with one shard the draw sequence collapses to the
// sequential one, so the trajectory equals core.Process driven by
// rng.NewStream(seed, 0) exactly.
func TestSingleShardMatchesSequential(t *testing.T) {
	const seed = 7
	// n is deliberately not a power of two; 2500 spans several release
	// draw blocks per round.
	for name, loads := range map[string][]int32{
		"one-per-bin":      config.OnePerBin(257),
		"all-in-one":       config.AllInOne(257, 257),
		"one-per-bin-2500": config.OnePerBin(2500),
	} {
		p, err := NewProcess(loads, seed, Options{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.NewProcess(loads, rng.NewStream(seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 400; r++ {
			p.Step()
			ref.Step()
		}
		got, want := p.LoadsCopy(), ref.LoadsCopy()
		for u := range got {
			if got[u] != want[u] {
				t.Fatalf("%s: bin %d: %d vs sequential %d", name, u, got[u], want[u])
			}
		}
		if p.MaxLoad() != ref.MaxLoad() || p.EmptyBins() != ref.EmptyBins() {
			t.Fatalf("%s: stats diverge", name)
		}
	}
}

// TestTetrisSingleShardMatchesSequential pins the same anchor for the
// batched process under all three arrival laws. Their arrival count is not
// the release count, so this also covers a single shard staging its draw
// blocks straight into the state when k ≠ released; n = 3001 throws
// several blocks per round, the last one partial.
func TestTetrisSingleShardMatchesSequential(t *testing.T) {
	const seed = 11
	for _, n := range []int{130, 3001} {
		testTetrisSingleShard(t, n, seed)
	}
}

func testTetrisSingleShard(t *testing.T, n int, seed uint64) {
	for _, law := range []tetris.ArrivalLaw{tetris.Deterministic, tetris.BinomialArrivals, tetris.PoissonArrivals} {
		p, err := NewTetris(config.AllInOne(n, n), seed,
			TetrisOptions{Options: Options{Shards: 1}, Law: law, Lambda: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := tetris.New(config.AllInOne(n, n), rng.NewStream(seed, 0),
			tetris.Options{Law: law, Lambda: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 400; r++ {
			p.Step()
			ref.Step()
		}
		got, want := p.LoadsCopy(), ref.LoadsCopy()
		for u := range got {
			if got[u] != want[u] {
				t.Fatalf("n=%d law %v: bin %d: %d vs sequential %d", n, law, u, got[u], want[u])
			}
		}
		if p.Balls() != ref.Balls() {
			t.Fatalf("n=%d law %v: balls %d vs %d", n, law, p.Balls(), ref.Balls())
		}
		// The first-emptying tracker must agree with the sequential one.
		for u := 0; u < n; u++ {
			if p.FirstEmptyRound(u) != ref.FirstEmptyRound(u) {
				t.Fatalf("n=%d law %v: bin %d first-empty %d vs %d",
					n, law, u, p.FirstEmptyRound(u), ref.FirstEmptyRound(u))
			}
		}
	}
}

// TestGroupRoundAllocs: once warm, a sharded round allocates nothing — the
// draw blocks, exchange rows and phase bodies all live on the Group. S = 1
// covers the direct staging of draw blocks (at the Width8 and Width16 cell
// types the recovery regime runs at), S = 8 the routed exchange rows.
func TestGroupRoundAllocs(t *testing.T) {
	for _, tc := range []struct {
		shards int
		width  engine.Width
	}{{1, engine.WidthAuto}, {1, engine.Width16}, {8, engine.WidthAuto}} {
		p, err := NewProcess(config.OnePerBin(1<<14), 3, Options{Shards: tc.shards, Workers: 1, Width: tc.width})
		if err != nil {
			t.Fatal(err)
		}
		p.Step() // warm-up round
		allocs := testing.AllocsPerRun(64, func() {
			p.g.Release(p.arrive)
			p.g.Commit()
		})
		if allocs != 0 {
			t.Errorf("S=%d width %v: a round allocates %v times, want 0", tc.shards, tc.width, allocs)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStepAllocs: a whole warm Step allocates nothing either, under every
// arrival rule at S = 1 and S = 8 — neither the rule's Arrivals closure,
// the statistics fold and ball counter of Process.Step, nor the Tetris
// first-emptying hook.
func TestStepAllocs(t *testing.T) {
	const n = 1 << 14
	for _, shards := range []int{1, 8} {
		opts := Options{Shards: shards, Workers: 1}
		p, err := NewProcess(config.OnePerBin(n), 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		steppers := []*Process{p}
		for _, law := range []tetris.ArrivalLaw{tetris.Deterministic, tetris.BinomialArrivals, tetris.PoissonArrivals} {
			tp, err := NewTetris(config.OnePerBin(n), 3, TetrisOptions{Options: opts, Law: law})
			if err != nil {
				t.Fatal(err)
			}
			steppers = append(steppers, tp.Process)
		}
		for _, sp := range steppers {
			sp.Run(8) // warm-up rounds
			if allocs := testing.AllocsPerRun(64, sp.Step); allocs != 0 {
				t.Errorf("S=%d rule %v: a Step allocates %v times, want 0", shards, sp.Rule(), allocs)
			}
			if err := sp.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestLawCrossCheck is the distributional equivalence check at small n:
// with several shards the trajectory differs from the sequential engine,
// but the sampled law must agree. Compare mean window-max load and mean
// empty fraction across independent trials.
func TestLawCrossCheck(t *testing.T) {
	const (
		n      = 256
		rounds = 400
		trials = 100
	)
	var seqMax, shMax, seqEmpty, shEmpty stats.Stream
	for trial := 0; trial < trials; trial++ {
		ref, err := core.NewProcess(config.OnePerBin(n), rng.NewStream(1000+uint64(trial), 0))
		if err != nil {
			t.Fatal(err)
		}
		var refWM int32
		for r := 0; r < rounds; r++ {
			ref.Step()
			if m := ref.MaxLoad(); m > refWM {
				refWM = m
			}
		}
		seqMax.Add(float64(refWM))
		seqEmpty.Add(float64(ref.EmptyBins()) / n)

		p, err := NewProcess(config.OnePerBin(n), 2000+uint64(trial), Options{Shards: 4, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var pWM int32
		for r := 0; r < rounds; r++ {
			p.Step()
			if m := p.MaxLoad(); m > pWM {
				pWM = m
			}
		}
		shMax.Add(float64(pWM))
		shEmpty.Add(float64(p.EmptyBins()) / n)
	}
	if d := seqMax.Mean() - shMax.Mean(); d > 0.75 || d < -0.75 {
		t.Errorf("window-max means diverge: sequential %.3f vs sharded %.3f", seqMax.Mean(), shMax.Mean())
	}
	if d := seqEmpty.Mean() - shEmpty.Mean(); d > 0.02 || d < -0.02 {
		t.Errorf("empty-fraction means diverge: sequential %.4f vs sharded %.4f", seqEmpty.Mean(), shEmpty.Mean())
	}
}

func TestConservationAndInvariants(t *testing.T) {
	for _, shards := range []int{2, 3, 5, 16} {
		loads := config.UniformRandom(200, 350, rng.New(uint64(shards)))
		p, err := NewProcess(loads, uint64(90+shards), Options{Shards: shards, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 150; r++ {
			p.Step()
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if p.Balls() != 350 {
			t.Fatalf("shards=%d: balls %d", shards, p.Balls())
		}
		if p.Round() != 150 {
			t.Fatalf("shards=%d: round %d", shards, p.Round())
		}
	}
}

func TestTetrisEmptying(t *testing.T) {
	const n = 256
	p, err := NewTetris(config.AllInOne(n, n), 5, TetrisOptions{Options: Options{Shards: 4, Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, done := p.AllEmptiedRound(); done {
		t.Fatal("all-in-one start reported all-emptied before running (bin 0 is full)")
	}
	maxRounds := int64(20 * n)
	for i := int64(0); i < maxRounds; i++ {
		if _, done := p.AllEmptiedRound(); done {
			break
		}
		p.Step()
	}
	r, done := p.AllEmptiedRound()
	if !done {
		t.Fatalf("not all bins emptied within %d rounds", maxRounds)
	}
	if r < 1 || r > maxRounds {
		t.Fatalf("all-emptied round %d out of range", r)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPipeline(t *testing.T) {
	pl, err := NewPipeline([]float64{0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess(config.OnePerBin(512), 3, Options{Shards: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 600
	var exact []int32
	for r := 0; r < rounds; r++ {
		p.Step()
		pl.Observe(p)
		exact = append(exact, p.MaxLoad())
	}
	if pl.rounds != rounds {
		t.Fatalf("rounds %d, want %d", pl.rounds, rounds)
	}
	var wm int32
	for _, m := range exact {
		if m > wm {
			wm = m
		}
	}
	if pl.WindowMax() != wm {
		t.Fatalf("window max %d, want %d", pl.WindowMax(), wm)
	}
	if min, mean := pl.empty.Min(), pl.EmptyMean(); min <= 0 || min > mean || mean >= 1 {
		t.Fatalf("empty fraction summary implausible: min %v mean %v", min, mean)
	}
	probs, est := pl.Quantiles()
	if len(probs) != 2 || len(est) != 2 {
		t.Fatalf("quantiles: %v %v", probs, est)
	}
	// The sketch of an int-valued stream must land within one of the exact
	// quantile, and the estimates must be ordered.
	if est[0] > est[1] {
		t.Fatalf("p50 %v > p90 %v", est[0], est[1])
	}
	fs := make([]float64, len(exact))
	for i, m := range exact {
		fs[i] = float64(m)
	}
	sort.Float64s(fs)
	for i, q := range probs {
		want := stats.Quantile(fs, q)
		if d := est[i] - want; d > 1.5 || d < -1.5 {
			t.Errorf("p%v estimate %v, exact %v", q, est[i], want)
		}
	}
	if s := pl.String(); s == "" {
		t.Error("String() empty with tracked quantiles")
	}
}
