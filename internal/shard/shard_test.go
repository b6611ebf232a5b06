package shard

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestEngineValidation(t *testing.T) {
	if _, err := NewProcess(nil, 1, Options{}); err == nil {
		t.Error("no bins accepted")
	}
	if _, err := NewProcess([]int32{-1}, 1, Options{}); err == nil {
		t.Error("negative load accepted")
	}
	if _, err := NewProcess([]int32{1}, 1, Options{Rule: ArrivalRule{Kind: ArrivalQuota, Lambda: 1.5}}); err == nil {
		t.Error("lambda > 1 accepted")
	}
	if _, err := NewProcess([]int32{1}, 1, Options{Rule: ArrivalRule{Kind: ArrivalKind(99)}}); err == nil {
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

// TestRouter holds the router, on both of its paths, to the partition
// arithmetic (PartitionStart, PartitionSize): every bin of every shape up
// to n = 300, then, at large shapes, the bins on both sides of every shard
// boundary and random bins. The large shapes reach n = 2³¹ − 1 and 2³¹,
// q = 1 with r = 1 and r = S − 1, r = 0 with q not a power of two, and
// r = S − 1 with a large q.
func TestRouter(t *testing.T) {
	for n := 1; n <= 300; n++ {
		for s := 1; s <= n; s++ {
			rt, v := newRouter(n, s), 0
			for i := 0; i < s; i++ {
				if PartitionStart(n, s, i) != v {
					t.Fatalf("n=%d S=%d: shard %d starts at %d, want %d", n, s, i, PartitionStart(n, s, i), v)
				}
				for end := v + PartitionSize(n, s, i); v < end; v++ {
					if got := rt.of(int32(v)); got != i {
						t.Fatalf("n=%d S=%d: bin %d routed to shard %d, want %d", n, s, v, got, i)
					}
				}
			}
			if v != n {
				t.Fatalf("n=%d S=%d: shards cover %d bins", n, s, v)
			}
		}
	}

	shapes := [][2]int{{MaxBins, 1}, {MaxBins - 1, 1}, {1000003, 1}}
	for _, s := range []int{2, 3, 7, 8, 64, 1000} {
		shapes = append(shapes,
			[2]int{MaxBins, s},
			[2]int{MaxBins - 1, s},
			[2]int{s + 1, s},
			[2]int{2*s - 1, s},
			[2]int{s * 1000003, s},
			[2]int{s*(1<<20) + s - 1, s},
		)
	}
	src := rng.New(29)
	for _, sh := range shapes {
		n, s := sh[0], sh[1]
		rt := newRouter(n, s)
		check := func(v, want int) {
			t.Helper()
			if got := rt.of(int32(v)); got != want {
				t.Fatalf("n=%d S=%d: bin %d routed to shard %d, want %d", n, s, v, got, want)
			}
		}
		for i := 0; i < s; i++ {
			base, size := PartitionStart(n, s, i), PartitionSize(n, s, i)
			if i > 0 {
				check(base-1, i-1)
			}
			check(base, i)
			check(base+size-1, i)
		}
		for range 1000 {
			v := src.Intn(n)
			check(v, sort.Search(s, func(i int) bool { return PartitionStart(n, s, i+1) > v }))
		}
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
// counts, under both dense kernels, and the in-process round with its
// sub-round chunk C lowered (to 64, 7 and 1 ball a shard on the small
// shapes, to 2¹² on the n ≈ 10⁶ one, where a C of 64 makes thousands of
// phases a round) all produce the trajectory of the whole-round path (Release then
// Commit, whose rows hold every ball of the round, as a multi-process
// worker's do) byte for byte. The shapes cover the shift router
// (n = 2¹³, S = 8, from all-in-one), the general router (n = 3001, S = 3,
// and n = 1000003, S = 7, whose first four shards hold one bin more) and
// a start of 255 balls a bin at n = 64, S = 2, whose commit widens the
// cells after its drains.
// C = 1 makes a sub-round of every ball, so it runs the first few rounds
// only. The cross-process half lives in transport/tcp's matrix test.
func TestTransportInvariance(t *testing.T) {
	const seed = 17
	full := make([]int32, 64)
	for i := range full {
		full[i] = 255
	}
	small := []int{64, 7, 1}
	for _, sh := range []struct {
		name          string
		loads         []int32
		shards        int
		rounds, short int   // rounds, and the rounds of the C = 1 variants
		chunks        []int // the lowered values of C
	}{
		{"all-in-one n=2^13 S=8", config.AllInOne(1<<13, 1<<13), 8, 250, 40, small},
		{"one-per-bin n=3001 S=3", config.OnePerBin(3001), 3, 120, 4, small},
		{"one-per-bin n=1000003 S=7", config.OnePerBin(1000003), 7, 8, 0, []int{1 << 12}},
		{"255-a-bin n=64 S=2", full, 2, 40, 40, small},
	} {
		// The reference steps the whole-round path on one worker,
		// recording the window max at both lengths and the loads at each.
		ref, err := NewProcess(sh.loads, seed, Options{Shards: sh.shards, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var refMax [2]int32
		var refLoads [2][]int32
		for r := 1; r <= sh.rounds; r++ {
			ref.g.Release(ref.arrive)
			ref.g.Commit()
			refMax[1] = max(refMax[1], ref.g.MaxLoad())
			if r == sh.short {
				refMax[0], refLoads[0] = refMax[1], ref.g.AppendLoads(nil)
			}
		}
		refLoads[1] = ref.g.AppendLoads(nil)
		if err := ref.g.CheckInvariants(); err != nil {
			t.Fatalf("%s: whole-round reference: %v", sh.name, err)
		}
		if sh.loads[0] == 255 && ref.g.LoadBytes() == int64(2*len(sh.loads)) { // 8-bit cells
			t.Fatalf("%s: the cells never widened", sh.name)
		}
		ref.Close()

		type variant struct {
			kernel  engine.Kernel
			workers int
			chunk   int // 0: roundChunk
		}
		var variants []variant
		for _, w := range []int{1, 4, 8} {
			for _, k := range []engine.Kernel{engine.KernelBatched, engine.KernelScalar} {
				variants = append(variants, variant{k, w, 0})
			}
			for _, c := range sh.chunks {
				variants = append(variants, variant{engine.KernelBatched, w, c})
			}
		}
		for _, v := range variants {
			p, err := NewProcess(sh.loads, seed, Options{Shards: sh.shards, Workers: v.workers, Kernel: v.kernel})
			if err != nil {
				t.Fatal(err)
			}
			rounds, at := sh.rounds, 1
			if v.chunk > 0 {
				p.g.setChunk(v.chunk)
			}
			if v.chunk == 1 {
				rounds, at = sh.short, 0
			}
			var wm int32
			for r := 0; r < rounds; r++ {
				p.Step()
				wm = max(wm, p.MaxLoad())
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("%s %+v: %v", sh.name, v, err)
			}
			got := p.LoadsCopy()
			if err := p.Close(); err != nil {
				t.Fatalf("%s %+v: close: %v", sh.name, v, err)
			}
			if wm != refMax[at] {
				t.Fatalf("%s %+v: window max %d over %d rounds, whole-round path %d", sh.name, v, wm, rounds, refMax[at])
			}
			for u := range got {
				if got[u] != refLoads[at][u] {
					t.Fatalf("%s %+v: round %d bin %d: load %d, whole-round path %d", sh.name, v, rounds, u, got[u], refLoads[at][u])
				}
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
// sequential one, so the trajectory equals the sequential process
// (NewSequential) driven by rng.NewStream(seed, 0) exactly.
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
		ref, err := NewSequential(loads, rng.NewStream(seed, 0), ArrivalRule{})
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

// TestSequentialIsQuiet: the sequential steppers' rounds write no
// process-wide telemetry (no round count, no phase histogram sample),
// while the S = 1 NewProcess whose trajectory they step records both.
func TestSequentialIsQuiet(t *testing.T) {
	loads := config.OnePerBin(64)
	seq, err := NewSequential(loads, rng.New(3), ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	tet, err := NewSequential(loads, rng.New(3), ArrivalRule{Kind: ArrivalPoisson, Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rounds, phases := mRounds.Value(), mPhaseRelease.Count()
	seq.Run(5)
	tet.Run(5)
	if mRounds.Value() != rounds || mPhaseRelease.Count() != phases {
		t.Fatalf("sequential rounds moved the telemetry: rounds %d → %d, release samples %d → %d",
			rounds, mRounds.Value(), phases, mPhaseRelease.Count())
	}
	p, err := NewProcess(loads, 3, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Run(5)
	if got := mRounds.Value() - rounds; got != 5 {
		t.Fatalf("NewProcess counted %d rounds, want 5", got)
	}
	if got := mPhaseRelease.Count() - phases; got != 5 {
		t.Fatalf("NewProcess recorded %d release samples, want 5", got)
	}
}

// TestTetrisSingleShardMatchesSequential pins the same anchor for the
// batched process under all three arrival laws, first-emptying rounds
// included (each run observed by its own EmptyTracker). Their arrival
// count is not the release count, so this also covers a single shard
// staging its draw blocks straight into the state when k ≠ released;
// n = 3001 throws several blocks per round, the last one partial.
func TestTetrisSingleShardMatchesSequential(t *testing.T) {
	const seed = 11
	for _, n := range []int{130, 3001} {
		testTetrisSingleShard(t, n, seed)
	}
}

func testTetrisSingleShard(t *testing.T, n int, seed uint64) {
	for _, law := range []ArrivalKind{ArrivalQuota, ArrivalBinomial, ArrivalPoisson} {
		rule := ArrivalRule{Kind: law, Lambda: 0.7}
		p, err := NewProcess(config.AllInOne(n, n), seed, Options{Shards: 1, Rule: rule})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewSequential(config.AllInOne(n, n), rng.NewStream(seed, 0), rule)
		if err != nil {
			t.Fatal(err)
		}
		pt, reft := NewEmptyTracker(p), NewEmptyTracker(ref)
		for r := 0; r < 400; r++ {
			p.Step()
			pt.Observe(p)
			ref.Step()
			reft.Observe(ref)
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
			if pt.FirstEmptyRound(u) != reft.FirstEmptyRound(u) {
				t.Fatalf("n=%d law %v: bin %d first-empty %d vs %d",
					n, law, u, pt.FirstEmptyRound(u), reft.FirstEmptyRound(u))
			}
		}
	}
}

// TestGroupRoundAllocs: once warm, a sharded round allocates nothing — the
// draw blocks, exchange rows and phase bodies all live on the Group —
// whether it runs in process (Round, in sub-rounds) or as whole-round
// phases (Release then Commit). S = 1 covers the direct staging of draw
// blocks (at the Width8 and Width16 cell types the recovery regime runs
// at), S = 8 the routed exchange rows, and S = 8 with C lowered to 64
// about 20 sub-rounds a round.
func TestGroupRoundAllocs(t *testing.T) {
	for _, tc := range []struct {
		shards int
		width  engine.Width
		chunk  int // 0: roundChunk
	}{{1, engine.WidthAuto, 0}, {1, engine.Width16, 0}, {8, engine.WidthAuto, 0}, {8, engine.WidthAuto, 64}} {
		p, err := NewProcess(config.OnePerBin(1<<14), 3, Options{Shards: tc.shards, Workers: 1, Width: tc.width})
		if err != nil {
			t.Fatal(err)
		}
		if tc.chunk > 0 {
			p.g.setChunk(tc.chunk)
		}
		p.Step() // warm-up round
		if allocs := testing.AllocsPerRun(64, func() { p.g.Round(p.arrive) }); allocs != 0 {
			t.Errorf("S=%d width %v chunk %d: a Round allocates %v times, want 0", tc.shards, tc.width, tc.chunk, allocs)
		}
		whole := func() {
			p.g.Release(p.arrive)
			p.g.Commit()
		}
		whole() // rows sized for C = 64 grow to whole-round rows
		allocs := testing.AllocsPerRun(64, whole)
		if allocs != 0 {
			t.Errorf("S=%d width %v chunk %d: a Release and Commit allocate %v times, want 0", tc.shards, tc.width, tc.chunk, allocs)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStepAllocs: a whole warm Step allocates nothing either, under every
// arrival rule at S = 1, at S = 8 and at S = 8 with C lowered to 64 —
// neither the rule's Arrivals closure, the sub-rounds, the statistics fold
// and ball counter of Process.Step, nor an EmptyTracker observing it.
func TestStepAllocs(t *testing.T) {
	const n = 1 << 14
	for _, tc := range []struct{ shards, chunk int }{{1, 0}, {8, 0}, {8, 64}} {
		for _, law := range []ArrivalKind{ArrivalRelaunch, ArrivalQuota, ArrivalBinomial, ArrivalPoisson} {
			sp, err := NewProcess(config.OnePerBin(n), 3, Options{Shards: tc.shards, Workers: 1, Rule: ArrivalRule{Kind: law}})
			if err != nil {
				t.Fatal(err)
			}
			if tc.chunk > 0 {
				sp.g.setChunk(tc.chunk)
			}
			sp.Run(8) // warm-up rounds
			if allocs := testing.AllocsPerRun(64, sp.Step); allocs != 0 {
				t.Errorf("S=%d chunk %d rule %v: a Step allocates %v times, want 0", tc.shards, tc.chunk, sp.Rule(), allocs)
			}
			tr := NewEmptyTracker(sp)
			observed := func() {
				sp.Step()
				tr.Observe(sp)
			}
			if allocs := testing.AllocsPerRun(64, observed); allocs != 0 {
				t.Errorf("S=%d chunk %d rule %v: an observed Step allocates %v times, want 0", tc.shards, tc.chunk, sp.Rule(), allocs)
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
		ref, err := NewSequential(config.OnePerBin(n), rng.NewStream(1000+uint64(trial), 0), ArrivalRule{})
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
	p, err := NewProcess(config.AllInOne(n, n), 5, Options{Shards: 4, Workers: 4, Rule: tetrisRule})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tr := NewEmptyTracker(p)
	if _, done := tr.AllEmptiedRound(); done {
		t.Fatal("all-in-one start reported all-emptied before running (bin 0 is full)")
	}
	maxRounds := int64(20 * n)
	r, done := tr.RunUntilAllEmptied(maxRounds)
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

// TestSetLoads: the §4.1 adversary reloads every shard between rounds —
// here at S = 3 on three workers, moving every ball across shards and
// into cells too narrow for it — and the run goes on from the new
// configuration. A reload is refused whole, leaving the process as it
// was, for a wrong bin count, a negative load or a wrong ball count, and
// under a batch rule, which does not keep the balls a reload reassigns.
func TestSetLoads(t *testing.T) {
	const n, m = 10, 600
	p, err := NewProcess(config.AllInOne(n, m), 9, Options{Shards: 3, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Run(5)
	negative := config.UniformRandom(n, m, rng.New(1))
	negative[0], negative[1] = -1, negative[1]+negative[0]+1
	for name, loads := range map[string][]int32{
		"bin count":     config.AllInOne(n-1, m),
		"negative load": negative,
		"ball count":    config.AllInOne(n, m+1),
	} {
		before := p.LoadsCopy()
		if err := p.SetLoads(loads); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := p.LoadsCopy(); !slices.Equal(got, before) {
			t.Errorf("%s: a refused reload changed the loads", name)
		}
	}
	spread := make([]int32, n)
	for u := range spread {
		spread[u] = m / n
	}
	last := make([]int32, n) // every ball in shard 2, past its 8-bit cells
	last[n-1] = m
	for _, tc := range []struct {
		loads      []int32
		max, empty int
	}{{spread, m / n, 0}, {last, m, n - 1}} {
		if err := p.SetLoads(tc.loads); err != nil {
			t.Fatal(err)
		}
		if got := p.LoadsCopy(); !slices.Equal(got, tc.loads) {
			t.Fatalf("reloaded %v, want %v", got, tc.loads)
		}
		if int(p.MaxLoad()) != tc.max || p.EmptyBins() != tc.empty {
			t.Fatalf("after reload: max %d empty %d, want %d %d", p.MaxLoad(), p.EmptyBins(), tc.max, tc.empty)
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		p.Run(20)
		if err := p.CheckInvariants(); err != nil || p.Balls() != m {
			t.Fatalf("20 rounds after a reload: %d balls (%v)", p.Balls(), err)
		}
	}

	tp, err := NewProcess(config.OnePerBin(n), 9, Options{Shards: 3, Rule: tetrisRule})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	seq, err := NewSequential(config.OnePerBin(n), rng.New(9), tetrisRule)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*Process{tp, seq} {
		if err := b.SetLoads(b.LoadsCopy()); err == nil || !strings.Contains(err.Error(), "quota") {
			t.Errorf("S=%d Tetris: SetLoads gave %v, want a refusal naming the quota rule", b.Shards(), err)
		}
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
