package engine

import (
	"testing"

	"repro/internal/rng"
)

// denseRef is the historical dense repeated balls-into-bins step — the
// exact loop the engines used before the sparse layer — kept here as the
// law-equivalence reference and the benchmark baseline.
type denseRef struct {
	n        int
	loads    []int32
	arrivals []int32
	src      *rng.Source
	maxLoad  int32
	empty    int
}

func newDenseRef(loads []int32, src *rng.Source) *denseRef {
	d := &denseRef{
		n:        len(loads),
		loads:    append([]int32(nil), loads...),
		arrivals: make([]int32, len(loads)),
		src:      src,
	}
	d.refresh()
	return d
}

func (d *denseRef) refresh() {
	var max int32
	empty := 0
	for _, l := range d.loads {
		if l > max {
			max = l
		}
		if l == 0 {
			empty++
		}
	}
	d.maxLoad = max
	d.empty = empty
}

func (d *denseRef) step() {
	n := d.n
	for u := 0; u < n; u++ {
		if d.loads[u] > 0 {
			d.loads[u]--
			d.arrivals[d.src.Intn(n)]++
		}
	}
	var max int32
	empty := 0
	for v := 0; v < n; v++ {
		l := d.loads[v] + d.arrivals[v]
		d.arrivals[v] = 0
		d.loads[v] = l
		if l > max {
			max = l
		}
		if l == 0 {
			empty++
		}
	}
	d.maxLoad = max
	d.empty = empty
}

func (d *denseRef) reload(loads []int32) {
	copy(d.loads, loads)
	d.refresh()
}

func allInOne(n, m int) []int32 {
	loads := make([]int32, n)
	loads[0] = int32(m)
	return loads
}

func onePerBin(n int) []int32 {
	loads := make([]int32, n)
	for i := range loads {
		loads[i] = 1
	}
	return loads
}

func uniformRandom(n, m int, r *rng.Source) []int32 {
	loads := make([]int32, n)
	for i := 0; i < m; i++ {
		loads[r.Intn(n)]++
	}
	return loads
}

// TestSparseDenseEquivalence is the law-equivalence cross-check of the
// sparse layer: on shared seeds the State must reproduce the dense
// reference's load vector, max load and empty count round by round, for
// starts on both sides of the sparse/dense switch (AllInOne crosses the
// threshold mid-run, exercising the mode transition).
func TestSparseDenseEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 257, 1024} {
		for name, loads := range map[string][]int32{
			"all-in-one":  allInOne(n, n),
			"one-per-bin": onePerBin(n),
			"uniform":     uniformRandom(n, n, rng.New(uint64(7*n+1))),
			"sparse-m8":   uniformRandom(n, n/8+1, rng.New(uint64(n+3))),
		} {
			seed := uint64(1000 + n)
			ref := newDenseRef(loads, rng.New(seed))
			st, err := New(loads, Options{})
			if err != nil {
				t.Fatal(err)
			}
			drawer := NewDrawer(rng.New(seed))
			rounds := 6*n + 50
			if rounds > 4096 {
				rounds = 4096
			}
			for r := 0; r < rounds; r++ {
				ref.step()
				st.ReleaseUniform(drawer, nil)
				st.Commit()
				if st.MaxLoad() != ref.maxLoad || st.EmptyBins() != ref.empty {
					t.Fatalf("n=%d %s round %d: stats (%d, %d), want (%d, %d)",
						n, name, r, st.MaxLoad(), st.EmptyBins(), ref.maxLoad, ref.empty)
				}
				for u := 0; u < n; u++ {
					if st.Load(u) != ref.loads[u] {
						t.Fatalf("n=%d %s round %d bin %d: load %d, want %d",
							n, name, r, u, st.Load(u), ref.loads[u])
					}
				}
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
		}
	}
}

// TestReleaseEachVisitsInOrder checks the worklist contract: every
// non-empty bin exactly once, in increasing bin order, in both modes.
func TestReleaseEachVisitsInOrder(t *testing.T) {
	for _, loads := range [][]int32{
		{0, 3, 0, 1, 0, 0, 2, 1},           // dense mode
		{5, 0, 0, 0, 0, 0, 0, 0, 0},        // sparse mode
		onePerBin(200),                     // dense mode
		allInOne(200, 200),                 // sparse mode
		uniformRandom(129, 40, rng.New(9)), // mixed occupancy
	} {
		st, err := New(loads, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var visited []int
		released := st.ReleaseEach(func(u int) { visited = append(visited, u) })
		if released != len(visited) {
			t.Fatalf("released %d, visited %d", released, len(visited))
		}
		want := make([]int, 0)
		for u, l := range loads {
			if l > 0 {
				want = append(want, u)
			}
		}
		if len(visited) != len(want) {
			t.Fatalf("visited %v, want %v", visited, want)
		}
		for i := range want {
			if visited[i] != want[i] {
				t.Fatalf("visit %d: bin %d, want %d (order violated)", i, visited[i], want[i])
			}
		}
		st.Commit()
		if err := st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDepositBeforeRelease checks the coupling pattern: arrivals staged
// before the round's release merge identically to arrivals staged after.
func TestDepositBeforeRelease(t *testing.T) {
	loads := uniformRandom(64, 64, rng.New(11))
	a, err := New(loads, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(loads, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 200; r++ {
		deps := []int{r % 64, (r * 7) % 64, (r * 13) % 64}
		// a: deposit first, then release.
		for _, v := range deps {
			a.Deposit(v)
		}
		a.ReleaseEach(nil)
		a.Commit()
		// b: release first, then deposit.
		b.ReleaseEach(nil)
		for _, v := range deps {
			b.Deposit(v)
		}
		b.Commit()
		for u := 0; u < 64; u++ {
			if a.Load(u) != b.Load(u) {
				t.Fatalf("round %d bin %d: %d vs %d", r, u, a.Load(u), b.Load(u))
			}
		}
		if a.MaxLoad() != b.MaxLoad() || a.EmptyBins() != b.EmptyBins() {
			t.Fatalf("round %d: stats diverged", r)
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResetDeposits checks that discarding staged arrivals restores the
// pre-staging state (the coupling case (ii) redraw).
func TestResetDeposits(t *testing.T) {
	st, err := New(allInOne(32, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.ReleaseEach(nil)
	st.Deposit(3)
	st.Deposit(3)
	st.Deposit(9)
	st.ResetDeposits()
	st.Deposit(7)
	st.Commit()
	if st.Load(3) != 0 || st.Load(9) != 0 {
		t.Fatalf("discarded deposits leaked: bin3=%d bin9=%d", st.Load(3), st.Load(9))
	}
	if st.Load(7) != 1 || st.Load(0) != 4 {
		t.Fatalf("final loads wrong: bin7=%d bin0=%d", st.Load(7), st.Load(0))
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReload checks wholesale reconfiguration and its statistics.
func TestReload(t *testing.T) {
	st, err := New(onePerBin(100), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Reload(allInOne(100, 42)); err != nil {
		t.Fatal(err)
	}
	if st.MaxLoad() != 42 || st.NonEmptyBins() != 1 || st.EmptyBins() != 99 {
		t.Fatalf("stats after reload: max=%d nonEmpty=%d", st.MaxLoad(), st.NonEmptyBins())
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := st.Reload(make([]int32, 7)); err == nil {
		t.Fatal("Reload accepted wrong length")
	}
	bad := make([]int32, 100)
	bad[5] = -1
	if err := st.Reload(bad); err == nil {
		t.Fatal("Reload accepted negative load")
	}
}

// TestInvariantsUnderRandomRounds drives a State with irregular host
// behaviour (extra deposits, occasional reloads) and checks the
// incremental statistics never drift.
func TestInvariantsUnderRandomRounds(t *testing.T) {
	r := rng.New(5)
	st, err := New(uniformRandom(300, 300, r), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDrawer(r)
	for i := 0; i < 2000; i++ {
		switch i % 7 {
		case 3:
			st.ReleaseEach(nil)
			extra := r.Intn(10)
			for j := 0; j < extra; j++ {
				st.Deposit(r.Intn(300))
			}
			st.Commit()
		case 5:
			st.ReleaseUniform(d, func(u, dest int) {})
			st.Commit()
		default:
			st.ReleaseUniform(d, nil)
			st.Commit()
		}
		if i%97 == 0 {
			if err := st.CheckInvariants(); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		}
	}
}

// TestRunAndRunUntil exercises the Stepper-level helpers through a real
// engine host (a minimal process built directly on State): Run with
// observers, then Run round by round until the host self-stabilizes.
func TestRunAndRunUntil(t *testing.T) {
	p := newMiniProcess(allInOne(64, 64), 99)
	var wm WindowMax
	var ef EmptyFraction
	Run(p, 200, &wm, &ef)
	if p.Round() != 200 {
		t.Fatalf("Round = %d, want 200", p.Round())
	}
	if wm.Max() < p.MaxLoad() {
		t.Fatalf("window max %d below current max %d", wm.Max(), p.MaxLoad())
	}
	if ef.Min() > ef.Mean() {
		t.Fatalf("min fraction %v above mean %v", ef.Min(), ef.Mean())
	}
	for p.MaxLoad() > 8 {
		if p.Round() == 100_200 {
			t.Fatal("never converged to max load 8")
		}
		Run(p, 1)
	}
}

// miniProcess is the smallest possible Stepper host, used to test the
// interface helpers without importing the engines that depend on this
// package.
type miniProcess struct {
	eng   *State
	draw  *Drawer
	round int64
}

func newMiniProcess(loads []int32, seed uint64) *miniProcess {
	st, err := New(loads, Options{})
	if err != nil {
		panic(err)
	}
	return &miniProcess{eng: st, draw: NewDrawer(rng.New(seed))}
}

func (p *miniProcess) Step()              { p.eng.ReleaseUniform(p.draw, nil); p.eng.Commit(); p.round++ }
func (p *miniProcess) Round() int64       { return p.round }
func (p *miniProcess) N() int             { return p.eng.n }
func (p *miniProcess) MaxLoad() int32     { return p.eng.MaxLoad() }
func (p *miniProcess) EmptyBins() int     { return p.eng.EmptyBins() }
func (p *miniProcess) NonEmptyBins() int  { return p.eng.NonEmptyBins() }
func (p *miniProcess) Load(u int) int32   { return p.eng.Load(u) }
func (p *miniProcess) LoadsCopy() []int32 { return p.eng.LoadsCopy() }

var _ Stepper = (*miniProcess)(nil)
