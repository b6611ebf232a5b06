package walks

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

var strategies = []Strategy{FIFO, LIFO, Random}

func completeGraph(t testing.TB, n int) *graph.Complete {
	g, err := graph.NewComplete(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	g := completeGraph(t, 4)
	r := rng.New(1)
	if _, err := New(nil, []int32{1}, r, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := New(g, []int32{1, 1, 1, 1}, nil, Options{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := New(g, []int32{1, 1}, r, Options{}); err == nil {
		t.Error("wrong-length loads accepted")
	}
	if _, err := New(g, []int32{1, -1, 1, 1}, r, Options{}); err == nil {
		t.Error("negative load accepted")
	}
	if _, err := New(g, []int32{1, 1, 1, 1}, r, Options{Strategy: Random + 1}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := NewOnePerNode(nil, r, Options{}); err == nil {
		t.Error("NewOnePerNode nil graph accepted")
	}
	if _, err := NewTokenProcess(nil, r, Options{}); err == nil {
		t.Error("token process with no nodes accepted")
	}
	if _, err := NewTokenProcess([]int32{1}, nil, Options{}); err == nil {
		t.Error("token process with nil source accepted")
	}
}

func TestOnePerNodeSetup(t *testing.T) {
	g := completeGraph(t, 8)
	tr, err := NewOnePerNode(g, rng.New(2), Options{TrackCover: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Tokens() != 8 || tr.N() != 8 {
		t.Fatal("dims wrong")
	}
	for k := 0; k < 8; k++ {
		if tr.Position(k) != k {
			t.Fatalf("token %d starts at %d", k, tr.Position(k))
		}
		if tr.VisitCount(k) != 1 {
			t.Fatalf("token %d initial visits %d", k, tr.VisitCount(k))
		}
	}
	if tr.MaxLoad() != 1 || tr.EmptyBins() != 0 {
		t.Fatal("initial stats wrong")
	}
	if tr.Graph() != g {
		t.Fatal("graph accessor wrong")
	}
	// Tokens are numbered in node order.
	p, err := NewTokenProcess([]int32{2, 0, 3}, rng.New(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Tokens() != 5 || p.N() != 3 {
		t.Fatal("token process dims wrong")
	}
	for k, w := range []int{0, 0, 2, 2, 2} {
		if p.Position(k) != w {
			t.Fatalf("token %d at %d, want %d", k, p.Position(k), w)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsOverRun(t *testing.T) {
	for _, mk := range []func() graph.Graph{
		func() graph.Graph { return completeGraph(t, 24) },
		func() graph.Graph { g, _ := graph.NewRing(24); return g },
		func() graph.Graph { g, _ := graph.NewTorus(4, 6); return g },
		func() graph.Graph { g, _ := graph.NewHypercube(4); return g },
	} {
		g := mk()
		for _, s := range strategies {
			tr, err := NewOnePerNode(g, rng.New(3), Options{Strategy: s, TrackDelays: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				tr.Step()
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("%s %v round %d: %v", g.Name(), s, i, err)
				}
			}
		}
	}
}

// TestLoadsObliviousToStrategy: the loads never depend on which token a
// node releases, on any graph — every strategy steps the same load
// vectors from the same source.
func TestLoadsObliviousToStrategy(t *testing.T) {
	g, err := graph.NewTorus(6, 7)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]int32, g.N())
	for i := 0; i < 3*g.N(); i++ {
		loads[(i*i)%g.N()]++
	}
	var trs []*Traversal
	for i, s := range strategies {
		tr, err := New(g, loads, rng.New(61), Options{Strategy: s, PickSource: rng.New(uint64(i))})
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
	}
	for round := 1; round <= 400; round++ {
		for _, tr := range trs {
			tr.Step()
		}
		for u := 0; u < g.N(); u++ {
			if trs[1].Load(u) != trs[0].Load(u) || trs[2].Load(u) != trs[0].Load(u) {
				t.Fatalf("round %d node %d: loads %d %d %d", round, u, trs[0].Load(u), trs[1].Load(u), trs[2].Load(u))
			}
		}
	}
}

// TestStrategyOrderOnTorus: a torus node holding tokens 0, 1 and 2
// releases token 0 under FIFO and token 2 under LIFO, and the second
// release under FIFO is token 1.
func TestStrategyOrderOnTorus(t *testing.T) {
	g, err := graph.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]int32, g.N())
	loads[5] = 3
	for _, c := range []struct {
		s     Strategy
		first int
	}{{FIFO, 0}, {LIFO, 2}} {
		tr, err := New(g, loads, rng.New(7), Options{Strategy: c.s})
		if err != nil {
			t.Fatal(err)
		}
		tr.Step()
		if tr.Hops(c.first) != 1 || tr.Hops(0)+tr.Hops(1)+tr.Hops(2) != 1 {
			t.Fatalf("%v: hops [%d %d %d] after one round, want only token %d's", c.s, tr.Hops(0), tr.Hops(1), tr.Hops(2), c.first)
		}
		if c.s == FIFO {
			tr.Step()
			if tr.Hops(1) != 1 || tr.Position(2) != 5 {
				t.Fatalf("FIFO: token 1 hops %d, token 2 at %d after two rounds", tr.Hops(1), tr.Position(2))
			}
		}
	}
}

// TestDelayBoundedByLoadTorus: under FIFO a token waits at most for the
// queue ahead of it, so on any graph the max delay is at most the window
// max load.
func TestDelayBoundedByLoadTorus(t *testing.T) {
	g, err := graph.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewOnePerNode(g, rng.New(43), Options{TrackDelays: true})
	if err != nil {
		t.Fatal(err)
	}
	tr.Run(2000)
	if tr.MaxDelay() > int64(tr.WindowMaxLoad()) || tr.MeanDelay() < 1 {
		t.Fatalf("max delay %d, window max load %d, mean delay %v", tr.MaxDelay(), tr.WindowMaxLoad(), tr.MeanDelay())
	}
}

// TestReassignAllRestartsDelays pins the fault under TrackDelays: every
// reassigned token's wait restarts at the fault round.
func TestReassignAllRestartsDelays(t *testing.T) {
	// One node, three tokens: the releases of rounds 1–3 wait 1, 2 and 3
	// rounds, each later one 3 (sum 27 over 10 rounds). The fault at
	// round 10 requeues 0, 1, 2, so rounds 11–13 wait 1, 2 and 3 again.
	tr, err := NewTokenProcess([]int32{3}, rng.New(5), Options{TrackDelays: true})
	if err != nil {
		t.Fatal(err)
	}
	tr.Run(10)
	if err := tr.ReassignAll([]int32{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	tr.Run(3)
	if tr.MaxDelay() != 3 || tr.MeanDelay() != 33.0/13 {
		t.Fatalf("max delay %d mean %v, want 3 and %v", tr.MaxDelay(), tr.MeanDelay(), 33.0/13)
	}
}

func TestCliqueEquivalenceToProcessLaw(t *testing.T) {
	// On the clique with self-loops, walk congestion follows the repeated
	// balls-into-bins law: n/4 empty-bin bound should hold (Lemma 1).
	const n = 256
	g := completeGraph(t, n)
	tr, err := NewOnePerNode(g, rng.New(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		tr.Step()
		if tr.EmptyBins() < n/4 {
			t.Fatalf("round %d: %d empty nodes < n/4", i+1, tr.EmptyBins())
		}
	}
	if tr.WindowMaxLoad() > int32(4*math.Log(n)) {
		t.Fatalf("window max load %d exceeds 4 ln n", tr.WindowMaxLoad())
	}
}

func TestParallelCoverClique(t *testing.T) {
	// Corollary 1 shape at test scale: parallel cover on the clique within
	// c·n·ln²n rounds. For n = 64: n ln² n ≈ 1107.
	const n = 64
	g := completeGraph(t, n)
	tr, err := NewOnePerNode(g, rng.New(7), Options{TrackCover: true})
	if err != nil {
		t.Fatal(err)
	}
	lim := int64(20 * float64(n) * math.Pow(math.Log(n), 2))
	round, ok := tr.RunUntilCovered(lim)
	if !ok {
		t.Fatalf("no parallel cover within %d rounds", lim)
	}
	// Single-token cover is ≥ n ln n ≈ 266; parallel must be at least the
	// single-token minimum n−1.
	if round < n-1 {
		t.Fatalf("cover round %d < n-1", round)
	}
	if tr.Covered() != n {
		t.Fatalf("covered = %d", tr.Covered())
	}
	t.Logf("parallel cover at round %d (n ln² n = %.0f)", round, float64(n)*math.Pow(math.Log(n), 2))
}

func TestRunUntilCoveredRequiresTracking(t *testing.T) {
	tr, err := NewOnePerNode(completeGraph(t, 4), rng.New(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := tr.RunUntilCovered(10); ok || r != -1 {
		t.Fatal("cover without tracking should fail")
	}
}

func TestSingleWalkCoverClique(t *testing.T) {
	// Coupon collector: expected cover ≈ n H_n ≈ n ln n. For n = 128 that
	// is ≈ 695; within 20x is a safe w.h.p. band.
	const n = 128
	g := completeGraph(t, n)
	r := rng.New(9)
	round, ok := SingleWalkCover(g, 0, r, int64(40*n*8))
	if !ok {
		t.Fatal("single walk did not cover")
	}
	if round < n-1 {
		t.Fatalf("cover %d < n-1", round)
	}
}

func TestSingleWalkCoverRing(t *testing.T) {
	// Ring cover time is Θ(n²).
	const n = 32
	g, err := graph.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	round, ok := SingleWalkCover(g, 0, r, int64(100*n*n))
	if !ok {
		t.Fatal("ring walk did not cover")
	}
	if round < n-1 {
		t.Fatalf("cover %d < n-1", round)
	}
}

func TestSingleWalkCoverErrors(t *testing.T) {
	g := completeGraph(t, 4)
	r := rng.New(1)
	if _, ok := SingleWalkCover(nil, 0, r, 10); ok {
		t.Error("nil graph accepted")
	}
	if _, ok := SingleWalkCover(g, 0, nil, 10); ok {
		t.Error("nil source accepted")
	}
	if _, ok := SingleWalkCover(g, 9, r, 10); ok {
		t.Error("bad start accepted")
	}
	if _, ok := SingleWalkCover(g, 0, r, 1); ok {
		t.Error("cover in 1 round on 4 nodes should be impossible")
	}
}

func TestReassignAll(t *testing.T) {
	const n = 16
	tr, err := NewOnePerNode(completeGraph(t, n), rng.New(13), Options{TrackCover: true})
	if err != nil {
		t.Fatal(err)
	}
	tr.Run(50)
	// Adversary: all tokens onto node 3.
	positions := make([]int32, n)
	for i := range positions {
		positions[i] = 3
	}
	if err := tr.ReassignAll(positions); err != nil {
		t.Fatal(err)
	}
	if tr.Load(3) != n || tr.MaxLoad() != n {
		t.Fatalf("load(3) = %d after reassign", tr.Load(3))
	}
	if tr.EmptyBins() != n-1 {
		t.Fatalf("empty = %d", tr.EmptyBins())
	}
	for k := 0; k < n; k++ {
		if tr.Position(k) != 3 {
			t.Fatalf("token %d at %d", k, tr.Position(k))
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Visits preserved and node 3 marked visited for all.
	for k := 0; k < n; k++ {
		if tr.VisitCount(k) < 2 {
			t.Fatalf("token %d lost visit history", k)
		}
	}
}

func TestReassignAllValidation(t *testing.T) {
	tr, err := NewOnePerNode(completeGraph(t, 4), rng.New(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ReassignAll([]int32{0, 0}); err == nil {
		t.Error("wrong length accepted")
	}
	if err := tr.ReassignAll([]int32{0, 1, 2, 9}); err == nil {
		t.Error("invalid node accepted")
	}
}

func TestReassignThenRecover(t *testing.T) {
	// After an adversarial concentration the process should still make
	// progress and eventually cover (self-stabilization in action).
	const n = 24
	tr, err := NewOnePerNode(completeGraph(t, n), rng.New(17), Options{TrackCover: true})
	if err != nil {
		t.Fatal(err)
	}
	positions := make([]int32, n)
	if err := tr.ReassignAll(positions); err != nil { // all to node 0
		t.Fatal(err)
	}
	round, ok := tr.RunUntilCovered(int64(200 * n * 25))
	if !ok {
		t.Fatal("no cover after adversarial concentration")
	}
	if round <= 0 {
		t.Fatal("cover round must be positive")
	}
}

func TestHopsProgress(t *testing.T) {
	const n = 64
	tr, err := NewOnePerNode(completeGraph(t, n), rng.New(19), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 2048
	tr.Run(rounds)
	bound := int64(float64(rounds) / (8 * math.Log(n)))
	if got := tr.MinHops(); got < bound {
		t.Fatalf("min hops %d < %d", got, bound)
	}
	var total int64
	for k := 0; k < n; k++ {
		total += tr.Hops(k)
	}
	// Total hops = total departures ≤ n per round.
	if total > int64(n)*rounds {
		t.Fatalf("total hops %d exceeds n·t", total)
	}
}

func TestTokenConservationProperty(t *testing.T) {
	if err := quick.Check(func(seed uint32, stratRaw uint8) bool {
		r := rng.New(uint64(seed))
		g, err := graph.NewTorus(4, 4)
		if err != nil {
			return false
		}
		tr, err := NewOnePerNode(g, r, Options{Strategy: Strategy(stratRaw % 3)})
		if err != nil {
			return false
		}
		tr.Run(150)
		return tr.CheckInvariants() == nil
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Traversal {
		tr, err := NewOnePerNode(completeGraph(t, 32), rng.New(99), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := mk(), mk()
	a.Run(300)
	b.Run(300)
	for u := 0; u < 32; u++ {
		if a.Load(u) != b.Load(u) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestFIFOCompaction(t *testing.T) {
	// Long single-node run: the queue storage must not grow without bound.
	tr, err := NewTokenProcess([]int32{200}, rng.New(9), Options{Strategy: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	tr.Run(20000)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c := cap(tr.queue[0]); c > 4096 {
		t.Fatalf("queue capacity grew to %d; compaction not working", c)
	}
}

func BenchmarkTraversalStepClique1024(b *testing.B) {
	g, err := graph.NewComplete(1024)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := NewOnePerNode(g, rng.New(1), Options{TrackCover: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step()
	}
}

func BenchmarkSingleWalkStep(b *testing.B) {
	g, err := graph.NewComplete(1024)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	v := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = g.Sample(v, r)
	}
	_ = v
}

// FuzzTraversalInvariants steps a traversal on a small complete graph,
// ring, torus or hypercube under every strategy and option, with one §4.1
// fault midway, and checks the queue/load/position invariants. Run with
// `go test -fuzz=FuzzTraversalInvariants`; the seed corpus runs as part
// of the ordinary test suite.
func FuzzTraversalInvariants(f *testing.F) {
	f.Add(uint8(0), []byte{2, 3, 0, 1}, uint16(50), uint64(1), uint8(0))
	f.Add(uint8(1), []byte{9, 0, 0, 4, 1}, uint16(200), uint64(5), uint8(13))
	f.Add(uint8(2), []byte{1, 1, 1, 1, 1, 1, 7}, uint16(120), uint64(9), uint8(6))
	f.Add(uint8(3), []byte{16}, uint16(90), uint64(3), uint8(23))
	f.Fuzz(func(t *testing.T, kind uint8, cfg []byte, stepsRaw uint16, seed uint64, optRaw uint8) {
		if len(cfg) > 64 {
			cfg = cfg[:64] // at most 64·16 tokens
		}
		var g graph.Graph
		var err error
		switch size := len(cfg)%5 + 2; kind % 4 {
		case 0:
			g, err = graph.NewComplete(size)
		case 1:
			g, err = graph.NewRing(size)
		case 2:
			g, err = graph.NewTorus(size, 3)
		default:
			g, err = graph.NewHypercube(size / 2)
		}
		if err != nil {
			t.Skip()
		}
		loads := make([]int32, g.N())
		for i, b := range cfg {
			loads[i%len(loads)] += int32(b % 17)
		}
		opts := Options{
			Strategy:    Strategy(optRaw % 3),
			TrackCover:  optRaw&4 != 0,
			TrackDelays: optRaw&8 != 0,
		}
		if optRaw&16 != 0 {
			opts.PickSource = rng.New(seed + 1)
		}
		src := rng.New(seed)
		tr, err := New(g, loads, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		steps := int(stepsRaw % 256)
		for i := 0; i < steps; i++ {
			if i == steps/2 {
				positions := make([]int32, tr.Tokens())
				for k := range positions {
					positions[k] = int32(src.Intn(g.N()))
				}
				if err := tr.ReassignAll(positions); err != nil {
					t.Fatal(err)
				}
			}
			tr.Step()
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s loads %v options %+v after %d steps: %v", g.Name(), loads, opts, steps, err)
		}
	})
}
