package rbb

// Golden-trajectory regression tests: the repository promises bit-stable
// results for a given seed (README "Determinism"). These tests pin short
// trajectories of every engine; if an RNG, sampling or update-rule change
// ever alters the sampled law, they fail loudly. Update the constants only
// for an intentional, documented law change.

import (
	"fmt"
	"testing"
)

func fingerprint(loads []int32) string {
	h := uint64(1469598103934665603) // FNV-1a offset
	for _, l := range loads {
		h ^= uint64(uint32(l))
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}

func TestGoldenProcessTrajectory(t *testing.T) {
	p, err := NewProcess(OnePerBin(64), NewSource(12345))
	if err != nil {
		t.Fatal(err)
	}
	p.Run(100)
	const want = "aa906dd892127f4d"
	if got := fingerprint(p.LoadsCopy()); got != want {
		t.Fatalf("process trajectory changed: fingerprint %s, want %s", got, want)
	}
}

func TestGoldenTetrisTrajectory(t *testing.T) {
	p, err := NewTetris(OnePerBin(64), NewSource(12345), ArrivalRule{Kind: ArrivalQuota})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(100)
	const want = "07acf08673ffea59"
	if got := fingerprint(p.LoadsCopy()); got != want {
		t.Fatalf("tetris trajectory changed: fingerprint %s, want %s", got, want)
	}
}

func TestGoldenTokenTrajectory(t *testing.T) {
	p, err := NewTokenProcess(OnePerBin(64), NewSource(12345), TokenOptions{Strategy: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(100)
	const want = "aa906dd892127f4d" // identical law & stream as the process
	if got := fingerprint(p.LoadsCopy()); got != want {
		t.Fatalf("token trajectory changed: fingerprint %s, want %s", got, want)
	}
}

// tokenTrace lists every token's position, then every token's hop count
// (at most 100 here, so each fits an int32).
func tokenTrace(m int, pos func(int) int, hops func(int) int64) []int32 {
	trace := make([]int32, 0, 2*m)
	for b := 0; b < m; b++ {
		trace = append(trace, int32(pos(b)))
	}
	for b := 0; b < m; b++ {
		trace = append(trace, int32(hops(b)))
	}
	return trace
}

// TestGoldenTokenIdentities pins which token went where. Loads do not
// depend on the queueing strategy, so the load golden above holds for all
// three; only positions and hops tell the strategies apart.
func TestGoldenTokenIdentities(t *testing.T) {
	for _, c := range []struct {
		s    Strategy
		want string
	}{
		{FIFO, "610366771375f59a"},
		{LIFO, "0006bf6896e74f20"},
		{Random, "a748e697250fde2a"},
	} {
		p, err := NewTokenProcess(OnePerBin(64), NewSource(12345), TokenOptions{Strategy: c.s})
		if err != nil {
			t.Fatal(err)
		}
		p.Run(100)
		if got := fingerprint(tokenTrace(64, p.Position, p.Hops)); got != c.want {
			t.Errorf("%v token identities changed: fingerprint %s, want %s", c.s, got, c.want)
		}
	}
}

func TestGoldenTokenDelays(t *testing.T) {
	p, err := NewTokenProcess(OnePerBin(64), NewSource(12345), TokenOptions{Strategy: FIFO, TrackDelays: true})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(100)
	const want = "max 8 mean 1.694888178913738"
	if got := fmt.Sprintf("max %d mean %v", p.MaxDelay(), p.MeanDelay()); got != want {
		t.Fatalf("token delays changed: %s, want %s", got, want)
	}
}

func TestGoldenTorusTraversal(t *testing.T) {
	g, err := NewTorusGraph(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraversalOnePerNode(g, NewSource(12345), TraversalOptions{TrackCover: true})
	if err != nil {
		t.Fatal(err)
	}
	tr.Run(100)
	visits := func(k int) int64 { return int64(tr.VisitCount(k)) }
	const want = "8259e74e630e40db covered 0"
	if got := fmt.Sprintf("%s covered %d", fingerprint(tokenTrace(64, tr.Position, visits)), tr.Covered()); got != want {
		t.Fatalf("torus traversal changed: %s, want %s", got, want)
	}
}

func TestGoldenChoicesTrajectory(t *testing.T) {
	p, err := NewChoicesProcess(OnePerBin(64), 2, NewSource(12345))
	if err != nil {
		t.Fatal(err)
	}
	p.Run(100)
	const want = "c572f0bf6e38e4ab"
	if got := fingerprint(p.LoadsCopy()); got != want {
		t.Fatalf("choices trajectory changed: fingerprint %s, want %s", got, want)
	}
}

func TestGoldenJacksonTrajectory(t *testing.T) {
	net, err := NewJacksonNetwork(OnePerBin(64), NewSource(12345))
	if err != nil {
		t.Fatal(err)
	}
	net.RunRounds(100)
	const want = "a1cc6180a0a9ecc1"
	if got := fingerprint(net.LoadsCopy()); got != want {
		t.Fatalf("jackson trajectory changed: fingerprint %s, want %s", got, want)
	}
}

func TestGoldenRNGStream(t *testing.T) {
	src := NewSource(12345)
	var acc uint64
	for i := 0; i < 64; i++ {
		acc = acc*31 + src.Uint64()
	}
	const want = uint64(0xf7f81a9910537942)
	if acc != want {
		t.Fatalf("rng stream changed: %016x, want %016x", acc, want)
	}
}
