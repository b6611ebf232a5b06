package engine

import (
	"testing"

	"repro/internal/rng"
)

// Edge cases of the Stepper-level helpers: zero-round runs and windows
// larger than the run.

func TestRunZeroRounds(t *testing.T) {
	p := newMiniProcess(allInOne(32, 32), 1)
	var wm WindowMax
	var ef EmptyFraction
	Run(p, 0, &wm, &ef)
	if p.Round() != 0 {
		t.Fatalf("Round = %d after zero-round run", p.Round())
	}
	if wm.Max() != 0 {
		t.Fatalf("WindowMax observed %d with no rounds", wm.Max())
	}
	if ef.Min() != 1 || ef.Mean() != 0 {
		t.Fatalf("EmptyFraction zero-observation defaults: min %v mean %v, want 1 and 0",
			ef.Min(), ef.Mean())
	}
	// The no-observer fast path must behave identically.
	Run(p, 0)
	if p.Round() != 0 {
		t.Fatalf("Round = %d after observer-free zero-round run", p.Round())
	}
}

func TestRunNegativeRoundsIsNoop(t *testing.T) {
	p := newMiniProcess(allInOne(32, 32), 1)
	Run(p, -5)
	if p.Round() != 0 {
		t.Fatalf("Round = %d after negative-round run", p.Round())
	}
}

func TestWindowMaxLargerThanRun(t *testing.T) {
	// Observing a window longer than the process ever runs is fine: the
	// running max is just over the rounds that happened.
	p := newMiniProcess(allInOne(64, 64), 4)
	var wm WindowMax
	Run(p, 3, &wm)
	if wm.Max() < 1 {
		t.Fatalf("window max %d after 3 rounds from all-in-one", wm.Max())
	}
	if wm.Max() > 64 {
		t.Fatalf("window max %d exceeds ball count", wm.Max())
	}
}

func TestWindowMaxTracksZeroMax(t *testing.T) {
	// An empty system has max load 0 every round; the observer must
	// report 0 having observed it (not "no observation").
	p := newMiniProcess(make([]int32, 16), 5)
	var wm WindowMax
	Run(p, 4, &wm)
	if wm.Max() != 0 {
		t.Fatalf("window max %d for an empty system", wm.Max())
	}
}

func TestEmptyFractionAllEmpty(t *testing.T) {
	p := newMiniProcess(make([]int32, 16), 6)
	var ef EmptyFraction
	Run(p, 4, &ef)
	if ef.Min() != 1 || ef.Mean() != 1 {
		t.Fatalf("empty system fractions: min %v mean %v, want 1 and 1", ef.Min(), ef.Mean())
	}
}

// TestDepositBatch pins the bulk landing path against per-ball Deposit,
// and its panic outside a round: a batch lands in the load cells, so it
// must follow the release.
func TestDepositBatch(t *testing.T) {
	loads := []int32{0, 3, 0, 1, 2, 0, 0, 1}
	batch := []int32{10, 11, 10, 14, 17, 10} // global ids, offset 10
	run := func(stage func(s *State)) []int32 {
		s, err := New(loads, Options{})
		if err != nil {
			t.Fatal(err)
		}
		stage(s)
		s.Commit()
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return s.LoadsCopy()
	}
	want := run(func(s *State) {
		s.ReleaseEach(nil)
		for _, v := range batch {
			s.Deposit(int(v) - 10)
		}
	})
	got := run(func(s *State) {
		s.ReleaseEach(nil)
		s.DepositBatch(batch, 10)
	})
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("bin %d: batch %d, per-ball %d", u, got[u], want[u])
		}
	}
	for _, tc := range []struct {
		when  string
		ready func(s *State)
	}{
		{"before the release", func(s *State) {}},
		{"after Commit", func(s *State) { s.ReleaseEach(nil); s.Commit() }},
	} {
		s, err := New(loads, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tc.ready(s)
		func() {
			defer func() {
				if r := recover(); r != "engine: DepositBatch outside a round" {
					t.Errorf("DepositBatch %s: recovered %v, want the outside-a-round panic", tc.when, r)
				}
			}()
			s.DepositBatch(batch, 10)
		}()
	}
}

// TestDepositBatchDenseRound forces the dense path (occupancy above the
// sparse threshold) and cross-checks against per-ball Deposit.
func TestDepositBatchDenseRound(t *testing.T) {
	const n = 64
	loads := make([]int32, n)
	for i := range loads {
		loads[i] = 1 // fully occupied: guaranteed dense round
	}
	src := rng.New(77)
	batch := make([]int32, 100)
	for i := range batch {
		batch[i] = int32(src.Intn(n))
	}
	mk := func(bulk bool) []int32 {
		s, err := New(loads, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.ReleaseEach(nil)
		if bulk {
			s.DepositBatch(batch, 0)
		} else {
			for _, v := range batch {
				s.Deposit(int(v))
			}
		}
		s.Commit()
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return s.LoadsCopy()
	}
	want, got := mk(false), mk(true)
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("bin %d: batch %d, per-ball %d", u, got[u], want[u])
		}
	}
}
