package mixing

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Known second eigenvalues of the simple random walk:
//   - complete graph with self-loops: λ₂ = 0 (gap 1)
//   - ring of n: λ₂ = cos(2π/n)
//   - hypercube of dim d: λ₂ = 1 − 2/d
//   - 2-D torus side s: λ₂ = (1 + cos(2π/s))/2

func TestSpectralGapComplete(t *testing.T) {
	g, err := graph.NewComplete(64)
	if err != nil {
		t.Fatal(err)
	}
	gap, lam, err := SpectralGap(g, 200, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lam) > 0.01 || math.Abs(gap-1) > 0.01 {
		t.Fatalf("complete: λ2 = %v, gap = %v; want 0, 1", lam, gap)
	}
}

func TestSpectralGapRing(t *testing.T) {
	const n = 64
	g, err := graph.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	gap, lam, err := SpectralGap(g, 40000, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	want := math.Cos(2 * math.Pi / n)
	if math.Abs(lam-want) > 1e-3 {
		t.Fatalf("ring-%d: λ2 = %v, want %v", n, lam, want)
	}
	if gap < 0 {
		t.Fatalf("negative gap %v", gap)
	}
}

func TestSpectralGapHypercube(t *testing.T) {
	const d = 6
	g, err := graph.NewHypercube(d)
	if err != nil {
		t.Fatal(err)
	}
	_, lam, err := SpectralGap(g, 4000, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 2.0/d
	if math.Abs(lam-want) > 1e-3 {
		t.Fatalf("hypercube-%d: λ2 = %v, want %v", d, lam, want)
	}
}

func TestSpectralGapTorus(t *testing.T) {
	const side = 8
	g, err := graph.NewTorus(side, side)
	if err != nil {
		t.Fatal(err)
	}
	_, lam, err := SpectralGap(g, 20000, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	want := (1 + math.Cos(2*math.Pi/side)) / 2
	if math.Abs(lam-want) > 1e-3 {
		t.Fatalf("torus-%d: λ2 = %v, want %v", side, lam, want)
	}
}

func TestSpectralGapOrdering(t *testing.T) {
	// Expander-vs-ring: random 4-regular gap must far exceed the ring's.
	src := rng.New(5)
	ringG, err := graph.NewRing(256)
	if err != nil {
		t.Fatal(err)
	}
	rrG, err := graph.NewRandomRegular(256, 4, src, 2000)
	if err != nil {
		t.Fatal(err)
	}
	ringGap, _, err := SpectralGap(ringG, 60000, src)
	if err != nil {
		t.Fatal(err)
	}
	rrGap, _, err := SpectralGap(rrG, 2000, src)
	if err != nil {
		t.Fatal(err)
	}
	if rrGap < 20*ringGap {
		t.Fatalf("random-regular gap %v not ≫ ring gap %v", rrGap, ringGap)
	}
}

func TestSpectralGapValidation(t *testing.T) {
	src := rng.New(1)
	if _, _, err := SpectralGap(nil, 10, src); err == nil {
		t.Error("nil graph accepted")
	}
	g, err := graph.NewComplete(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SpectralGap(g, 0, src); err == nil {
		t.Error("iters=0 accepted")
	}
	if _, _, err := SpectralGap(g, 10, nil); err == nil {
		t.Error("nil source accepted")
	}
	// Irregular graph rejected.
	adj := [][]int32{{1}, {0, 2}, {1}}
	ir, err := graph.NewAdjacency(adj, "path")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SpectralGap(ir, 10, src); err == nil {
		t.Error("irregular graph accepted")
	}
}

func TestMixingTimeComplete(t *testing.T) {
	g, err := graph.NewComplete(64)
	if err != nil {
		t.Fatal(err)
	}
	tm, ok, err := MixingTimeTV(g, 0, 0.25, 100)
	if err != nil || !ok {
		t.Fatalf("complete did not mix: %v %v", ok, err)
	}
	// Lazy uniform walk is within 1/4 TV after a couple of steps.
	if tm > 3 {
		t.Fatalf("complete mixing time %d, want <= 3", tm)
	}
}

func TestMixingTimeHypercubeVsRing(t *testing.T) {
	cube, err := graph.NewHypercube(6) // 64 vertices
	if err != nil {
		t.Fatal(err)
	}
	ring, err := graph.NewRing(64)
	if err != nil {
		t.Fatal(err)
	}
	tCube, ok, err := MixingTimeTV(cube, 0, 0.25, 10000)
	if err != nil || !ok {
		t.Fatalf("hypercube did not mix: %v %v", ok, err)
	}
	tRing, ok, err := MixingTimeTV(ring, 0, 0.25, 100000)
	if err != nil || !ok {
		t.Fatalf("ring did not mix: %v %v", ok, err)
	}
	if tRing < 8*tCube {
		t.Fatalf("ring (%d) should mix much slower than hypercube (%d)", tRing, tCube)
	}
}

func TestMixingTimeHitsCap(t *testing.T) {
	ring, err := graph.NewRing(128)
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := MixingTimeTV(ring, 0, 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("ring-128 cannot mix in 5 steps")
	}
}

func TestMixingTimeValidation(t *testing.T) {
	g, err := graph.NewComplete(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := MixingTimeTV(g, -1, 0.25, 10); err == nil {
		t.Error("bad start accepted")
	}
	if _, _, err := MixingTimeTV(g, 0, 0, 10); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, _, err := MixingTimeTV(g, 0, 1.5, 10); err == nil {
		t.Error("eps>1 accepted")
	}
	if _, _, err := MixingTimeTV(g, 0, 0.25, -1); err == nil {
		t.Error("negative maxSteps accepted")
	}
}

func TestTVFromUniform(t *testing.T) {
	// Point mass on one of 4: TV = (|1-1/4| + 3·|0-1/4|)/2 = 3/4.
	if tv := TVFromUniform([]float64{1, 0, 0, 0}); math.Abs(tv-0.75) > 1e-12 {
		t.Fatalf("TV = %v, want 0.75", tv)
	}
	if tv := TVFromUniform([]float64{0.25, 0.25, 0.25, 0.25}); tv != 0 {
		t.Fatalf("uniform TV = %v, want 0", tv)
	}
}

// RelaxationTime returns 1/gap, the relaxation time of the walk.
func RelaxationTime(gap float64) float64 {
	if gap <= 0 {
		return math.Inf(1)
	}
	return 1 / gap
}

func TestRelaxationTime(t *testing.T) {
	if RelaxationTime(0.5) != 2 {
		t.Error("relaxation wrong")
	}
	if !math.IsInf(RelaxationTime(0), 1) {
		t.Error("zero gap should give +Inf")
	}
}

func BenchmarkSpectralGapRandomRegular(b *testing.B) {
	src := rng.New(1)
	g, err := graph.NewRandomRegular(512, 4, src, 2000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SpectralGap(g, 500, src); err != nil {
			b.Fatal(err)
		}
	}
}
