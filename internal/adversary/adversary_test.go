package adversary

import (
	"errors"
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/walks"
)

func TestSchedules(t *testing.T) {
	var n Never
	if n.Faulty(0) || n.Faulty(100) {
		t.Error("Never fired")
	}
	p, err := NewPeriodic(10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Faulty(0) {
		t.Error("Periodic fired at round 0")
	}
	if !p.Faulty(10) || !p.Faulty(20) {
		t.Error("Periodic missed its rounds")
	}
	if p.Faulty(11) {
		t.Error("Periodic fired off-schedule")
	}
	if _, err := NewPeriodic(0); err == nil {
		t.Error("every=0 accepted")
	}
	if n.Name() == "" || p.Name() == "" {
		t.Error("schedules need names")
	}
}

func TestPlacements(t *testing.T) {
	r := rng.New(2)
	for _, pl := range []Placement{AllToOne{Node: 3}, HalfAndHalf{A: 1, B: 5}, UniformScatter{}} {
		pos := pl.Positions(8, 20, r)
		if len(pos) != 20 {
			t.Fatalf("%s: %d positions", pl.Name(), len(pos))
		}
		for _, p := range pos {
			if p < 0 || p >= 8 {
				t.Fatalf("%s: position %d out of range", pl.Name(), p)
			}
		}
		if pl.Name() == "" {
			t.Error("placement needs a name")
		}
	}
	pos := AllToOne{Node: 3}.Positions(8, 5, r)
	for _, p := range pos {
		if p != 3 {
			t.Fatal("AllToOne scattered")
		}
	}
	pos = AllToOne{Node: 99}.Positions(8, 5, r) // clamped
	for _, p := range pos {
		if p != 0 {
			t.Fatal("AllToOne clamp failed")
		}
	}
	pos = HalfAndHalf{A: 1, B: 5}.Positions(8, 6, r)
	if pos[0] != 1 || pos[5] != 5 {
		t.Fatal("HalfAndHalf layout wrong")
	}
}

// positionsToLoads converts a token→node assignment to a load vector.
func positionsToLoads(positions []int32, n int) []int32 {
	loads := make([]int32, n)
	for _, p := range positions {
		loads[p]++
	}
	return loads
}

// RunProcess advances a shard.Process for rounds steps, applying the fault
// (sched, place) whenever the schedule fires, and returns the maximum load
// observed over the window. The placement draws its randomness from r
// (which may be the process's own source).
func RunProcess(p *shard.Process, sched Schedule, place Placement, rounds int64, r *rng.Source) (windowMax int32, faults int64, err error) {
	if p == nil || sched == nil || place == nil {
		return 0, 0, errors.New("adversary: RunProcess with nil argument")
	}
	windowMax = p.MaxLoad()
	for i := int64(0); i < rounds; i++ {
		if sched.Faulty(p.Round()) {
			positions := place.Positions(p.N(), int(p.Balls()), r)
			if err := p.SetLoads(positionsToLoads(positions, p.N())); err != nil {
				return windowMax, faults, err
			}
			faults++
			if p.MaxLoad() > windowMax {
				windowMax = p.MaxLoad()
			}
		}
		p.Step()
		if p.MaxLoad() > windowMax {
			windowMax = p.MaxLoad()
		}
	}
	return windowMax, faults, nil
}

func TestRunProcessWithPeriodicFaults(t *testing.T) {
	const n = 256
	r := rng.New(3)
	p, err := shard.NewSequential(config.OnePerBin(n), r, shard.ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewPeriodic(6 * n) // the paper's γ = 6 frequency
	if err != nil {
		t.Fatal(err)
	}
	rounds := int64(20 * n)
	windowMax, faults, err := RunProcess(p, sched, AllToOne{}, rounds, r)
	if err != nil {
		t.Fatal(err)
	}
	if faults != rounds/(6*n) {
		t.Fatalf("faults = %d, want %d", faults, rounds/(6*n))
	}
	// After each fault the max load is n, so the window max must be n.
	if windowMax != n {
		t.Fatalf("window max = %d, want %d (adversary concentrates all)", windowMax, n)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Despite faults the process must have recovered by the end of a
	// fault-free stretch: the last fault is at least ~2n rounds back.
	if p.MaxLoad() > int32(8*math.Log(n)) {
		t.Fatalf("final max load %d; did not recover from faults", p.MaxLoad())
	}
}

func TestRunProcessNoFaults(t *testing.T) {
	const n = 128
	r := rng.New(5)
	p, err := shard.NewSequential(config.OnePerBin(n), r, shard.ArrivalRule{})
	if err != nil {
		t.Fatal(err)
	}
	windowMax, faults, err := RunProcess(p, Never{}, AllToOne{}, 500, r)
	if err != nil {
		t.Fatal(err)
	}
	if faults != 0 {
		t.Fatal("Never schedule injected faults")
	}
	if windowMax > int32(4*math.Log(n)) {
		t.Fatalf("fault-free window max %d too large", windowMax)
	}
}

func TestRunProcessNilArgs(t *testing.T) {
	if _, _, err := RunProcess(nil, Never{}, AllToOne{}, 10, rng.New(1)); err == nil {
		t.Error("nil process accepted")
	}
}

func TestTraversalCoverUnderFaults(t *testing.T) {
	// §4.1: with faults every 6n rounds the cover time keeps its
	// O(n log² n) shape (constant-factor slowdown only).
	const n = 64
	g, err := graph.NewComplete(n)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	tr, err := walks.NewOnePerNode(g, r, walks.Options{TrackCover: true})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewPeriodic(6 * n)
	if err != nil {
		t.Fatal(err)
	}
	lim := int64(200 * float64(n) * math.Pow(math.Log(n), 2))
	cover, faults, ok, err := RunTraversalUntilCovered(tr, sched, AllToOne{}, lim, r)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("no cover within %d rounds under faults", lim)
	}
	if cover < n-1 {
		t.Fatalf("cover %d < n-1", cover)
	}
	t.Logf("cover with faults: round %d (%d faults)", cover, faults)
}

func TestTraversalNilArgs(t *testing.T) {
	if _, _, _, err := RunTraversalUntilCovered(nil, Never{}, AllToOne{}, 10, rng.New(1)); err == nil {
		t.Error("nil traversal accepted")
	}
}
