package engine

import (
	"testing"

	"repro/internal/rng"
)

// TestStateSnapshotRestore: a State restored from a snapshot continues the
// trajectory exactly, including across the sparse/dense mode boundary (the
// snapshot is taken while the worklist is stale from a dense round).
func TestStateSnapshotRestore(t *testing.T) {
	const n = 200
	loads := make([]int32, n)
	for i := range loads {
		loads[i] = int32(i % 3) // two thirds non-empty ⇒ dense rounds
	}
	s, err := New(loads, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(42)
	d := NewDrawer(src)
	for r := 0; r < 50; r++ {
		s.ReleaseUniform(d, nil)
		s.Commit()
	}
	snapLoads, snapWork, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, balls, err := Restore(snapLoads, snapWork, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if balls != s.Sum() {
		t.Fatalf("restored %d balls, want %d", balls, s.Sum())
	}
	if restored.MaxLoad() != s.MaxLoad() || restored.EmptyBins() != s.EmptyBins() {
		t.Fatalf("restored stats: max=%d empty=%d, want max=%d empty=%d",
			restored.MaxLoad(), restored.EmptyBins(), s.MaxLoad(), s.EmptyBins())
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Same draws from here on ⇒ same trajectory.
	srcA, srcB := rng.New(7), rng.New(7)
	dA, dB := NewDrawer(srcA), NewDrawer(srcB)
	for r := 0; r < 80; r++ {
		s.ReleaseUniform(dA, nil)
		s.Commit()
		restored.ReleaseUniform(dB, nil)
		restored.Commit()
	}
	a, b := s.Loads(), restored.Loads()
	for u := range a {
		if a[u] != b[u] {
			t.Fatalf("bin %d: %d vs %d", u, a[u], b[u])
		}
	}
}

// TestStateSnapshotMidRound: snapshots are only defined between rounds.
func TestStateSnapshotMidRound(t *testing.T) {
	s, err := New([]int32{1, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.ReleaseEach(nil)
	if _, _, err := s.Snapshot(); err == nil {
		t.Error("mid-round snapshot accepted")
	}
	s.Commit()
	if _, _, err := s.Snapshot(); err != nil {
		t.Errorf("between-rounds snapshot rejected: %v", err)
	}
}

// TestStateRestoreRejectsInconsistency: the serialized worklist is
// redundant with the loads, and Restore cross-checks the two.
func TestStateRestoreRejectsInconsistency(t *testing.T) {
	s, err := New([]int32{1, 0, 2, 0, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loads, work, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Restore(loads, work[:0], Options{}); err == nil {
		t.Error("short worklist accepted")
	}
	badWork := append([]uint64(nil), work...)
	badWork[0] ^= 1 << 1 // claim bin 1 is non-empty
	if _, _, err := Restore(loads, badWork, Options{}); err == nil {
		t.Error("inconsistent worklist accepted")
	}
	badLoads := append([]int32(nil), loads...)
	badLoads[0] = -1
	if _, _, err := Restore(badLoads, work, Options{}); err == nil {
		t.Error("negative load accepted")
	}
	if _, _, err := Restore(loads[:3], work, Options{}); err == nil {
		t.Error("wrong length accepted")
	}
	r, balls, err := Restore(loads, work, Options{})
	if err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
	if balls != 6 {
		t.Errorf("restored %d balls, want 6", balls)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestObserverStateRoundTrip: WindowMax and EmptyFraction accumulators
// restored mid-stream continue to identical values.
func TestObserverStateRoundTrip(t *testing.T) {
	loads := []int32{5, 0, 2, 1}
	s, err := New(loads, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := &fakeStepper{s: s}
	var wm WindowMax
	var ef EmptyFraction
	src := rng.New(9)
	d := NewDrawer(src)
	step := func(w *WindowMax, e *EmptyFraction, k int) {
		for i := 0; i < k; i++ {
			s.ReleaseUniform(d, nil)
			s.Commit()
			st.rounds++
			w.Observe(st)
			e.Observe(st)
		}
	}
	step(&wm, &ef, 10)
	var wm2 WindowMax
	var ef2 EmptyFraction
	wm2.SetState(wm.State())
	ef2.SetState(ef.State())
	// Drive both copies over the same suffix.
	for i := 0; i < 15; i++ {
		s.ReleaseUniform(d, nil)
		s.Commit()
		st.rounds++
		wm.Observe(st)
		ef.Observe(st)
		wm2.Observe(st)
		ef2.Observe(st)
	}
	if wm.Max() != wm2.Max() {
		t.Fatalf("window max %d vs %d", wm.Max(), wm2.Max())
	}
	if ef.Min() != ef2.Min() || ef.Mean() != ef2.Mean() {
		t.Fatalf("empty fraction (%v, %v) vs (%v, %v)", ef.Min(), ef.Mean(), ef2.Min(), ef2.Mean())
	}
}

// fakeStepper exposes a State as the minimal Stepper the observers need.
type fakeStepper struct {
	s      *State
	rounds int64
}

func (f *fakeStepper) Step()              {}
func (f *fakeStepper) Round() int64       { return f.rounds }
func (f *fakeStepper) N() int             { return f.s.n }
func (f *fakeStepper) MaxLoad() int32     { return f.s.MaxLoad() }
func (f *fakeStepper) EmptyBins() int     { return f.s.EmptyBins() }
func (f *fakeStepper) NonEmptyBins() int  { return f.s.NonEmptyBins() }
func (f *fakeStepper) Load(u int) int32   { return f.s.Load(u) }
func (f *fakeStepper) LoadsCopy() []int32 { return f.s.LoadsCopy() }

// TestAppendLoadAndWorkBytes: the serialization reads return Snapshot's
// loads at the storage width (little-endian) and Snapshot's worklist words,
// at every width and for cuts after dense rounds (stale worklist) and
// sparse rounds — and, like Snapshot, refuse a mid-round cut. The reads go
// first on every cut, so the stale words are rebuilt by AppendWorkBytes
// itself, not by an earlier Snapshot.
func TestAppendLoadAndWorkBytes(t *testing.T) {
	const n = 1000 // not a multiple of 64: the last worklist word is partial
	dense := make([]int32, n)
	for i := range dense {
		dense[i] = int32(i % 3) // two thirds non-empty ⇒ dense rounds
	}
	sparse := make([]int32, n)
	sparse[7] = 600 // one non-empty bin ⇒ sparse rounds, width 16 by value
	for _, tc := range []struct {
		name   string
		loads  []int32
		floor  Width
		want   Width
		sparse bool
	}{
		{"dense/w8", dense, WidthAuto, Width8, false},
		{"dense/w16", dense, Width16, Width16, false},
		{"dense/w32", dense, Width32, Width32, false},
		{"sparse/w16", sparse, WidthAuto, Width16, true},
		{"sparse/w32", sparse, Width32, Width32, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.loads, Options{Width: tc.floor})
			if err != nil {
				t.Fatal(err)
			}
			d := NewDrawer(rng.New(9))
			for r := 0; r < 5; r++ {
				s.ReleaseUniform(d, nil)
				s.Commit()
			}
			if s.Width() != tc.want {
				t.Fatalf("width %v, want %v", s.Width(), tc.want)
			}
			// Dense rounds leave the worklist stale; sparse ones keep it.
			if s.sparse != tc.sparse || s.workStale == tc.sparse {
				t.Fatalf("cut after the wrong round kind: sparse=%v stale=%v", s.sparse, s.workStale)
			}
			lb := s.AppendLoadBytes([]byte{0xee})
			wb, err := s.AppendWorkBytes([]byte{0xee})
			if err != nil {
				t.Fatal(err)
			}
			loads, work, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			k := int(tc.want) / 8
			if lb[0] != 0xee || len(lb) != 1+k*n {
				t.Fatalf("load bytes: prefix %#x, %d bytes, want %d", lb[0], len(lb)-1, k*n)
			}
			for u, l := range loads {
				var got int32
				for j := k - 1; j >= 0; j-- {
					got = got<<8 | int32(lb[1+u*k+j])
				}
				if got != l {
					t.Fatalf("bin %d: serialized load %d, want %d", u, got, l)
				}
			}
			if wb[0] != 0xee || len(wb) != 1+8*len(work) {
				t.Fatalf("work bytes: prefix %#x, %d bytes, want %d", wb[0], len(wb)-1, 8*len(work))
			}
			for i, w := range work {
				var got uint64
				for j := 7; j >= 0; j-- {
					got = got<<8 | uint64(wb[1+8*i+j])
				}
				if got != w {
					t.Fatalf("worklist word %d: %#x, want %#x", i, got, w)
				}
			}
			s.ReleaseUniform(d, nil)
			if _, err := s.AppendWorkBytes(nil); err == nil {
				t.Error("mid-round AppendWorkBytes accepted")
			}
			s.Commit()
		})
	}
}
