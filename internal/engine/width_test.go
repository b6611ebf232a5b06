package engine

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// TestParseWidth covers the flag spellings.
func TestParseWidth(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Width
		ok   bool
	}{
		{"", WidthAuto, true},
		{"auto", WidthAuto, true},
		{"8", Width8, true},
		{"16", Width16, true},
		{"32", Width32, true},
		{"64", 0, false},
		{"wide", 0, false},
	} {
		got, err := ParseWidth(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseWidth(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if Width8.String() != "8" || WidthAuto.String() != "auto" {
		t.Errorf("String(): %q %q", Width8.String(), WidthAuto.String())
	}
}

// runTrajectory drives s through rounds of the rbb law from its own stream
// and returns the per-round (MaxLoad, EmptyBins) pairs.
func runTrajectory(t *testing.T, s *State, seed uint64, rounds int) [][2]int {
	t.Helper()
	d := NewDrawer(rng.NewStream(seed, 0))
	out := make([][2]int, 0, rounds)
	for r := 0; r < rounds; r++ {
		s.ReleaseUniform(d, nil)
		s.Commit()
		out = append(out, [2]int{int(s.MaxLoad()), s.EmptyBins()})
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWidthTrajectoryInvariance pins the tentpole claim at the State layer:
// the trajectory is a pure function of the seed and loads, independent of
// the storage width.
func TestWidthTrajectoryInvariance(t *testing.T) {
	const (
		n      = 1 << 10
		seed   = 7
		rounds = 200
	)
	loads := make([]int32, n)
	for i := range loads {
		loads[i] = 1
	}
	build := func(w Width) *State {
		s, err := New(loads, Options{Width: w})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := build(Width32)
	if ref.Width() != Width32 {
		t.Fatalf("floor 32: width %v", ref.Width())
	}
	want := runTrajectory(t, ref, seed, rounds)
	for _, w := range []Width{WidthAuto, Width8, Width16} {
		s := build(w)
		if w != Width16 && s.Width() != Width8 {
			t.Fatalf("floor %v: initial width %v, want 8", w, s.Width())
		}
		got := runTrajectory(t, s, seed, rounds)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("floor %v: round %d stats %v, want %v", w, r, got[r], want[r])
			}
		}
		gl, wl := s.LoadsCopy(), ref.LoadsCopy()
		for u := range wl {
			if gl[u] != wl[u] {
				t.Fatalf("floor %v: bin %d load %d, want %d", w, u, gl[u], wl[u])
			}
		}
	}
}

// TestWidthInitialFit pins the auto rule: the initial width is the
// narrowest fitting the initial loads, floored by Options.Width.
func TestWidthInitialFit(t *testing.T) {
	for _, tc := range []struct {
		max   int32
		floor Width
		want  Width
	}{
		{1, WidthAuto, Width8},
		{255, WidthAuto, Width8},
		{256, WidthAuto, Width16},
		{65535, WidthAuto, Width16},
		{65536, WidthAuto, Width32},
		{1, Width16, Width16},
		{65536, Width16, Width32},
		{1, Width32, Width32},
	} {
		s, err := New([]int32{tc.max, 0, 1}, Options{Width: tc.floor})
		if err != nil {
			t.Fatal(err)
		}
		if s.Width() != tc.want {
			t.Errorf("max %d floor %v: width %v, want %v", tc.max, tc.floor, s.Width(), tc.want)
		}
		if s.Load(0) != tc.max || s.MaxLoad() != tc.max {
			t.Errorf("max %d: load %d maxload %d", tc.max, s.Load(0), s.MaxLoad())
		}
		wantBytes := int64(3) * 2 * int64(uint8(tc.want)/8)
		if s.LoadBytes() != wantBytes {
			t.Errorf("max %d floor %v: LoadBytes %d, want %d", tc.max, tc.floor, s.LoadBytes(), wantBytes)
		}
	}
	if _, err := New([]int32{1}, Options{Width: 9}); err == nil {
		t.Error("invalid width accepted")
	}
}

// TestNewFillChunks builds States over several fill chunks, with the load
// that sets the width in the first chunk, a later one or the last bin:
// NewFill asks for every bin once, in increasing order, and stores what
// the whole vector says — loads, worklist words, width, statistics and
// ball count — however the widening falls across the chunks. Of two
// negative loads in different chunks, the error names the lower bin.
func TestNewFillChunks(t *testing.T) {
	const n = 3*fillBins + 70 // the last chunk and its last word are partial
	for _, tc := range []struct {
		name  string
		at    int
		top   int32
		floor Width
	}{
		{"flat", 0, 2, WidthAuto},
		{"first chunk", 5, 300, WidthAuto},
		{"later chunk", fillBins + 7, 300, WidthAuto},
		{"two steps late", 2*fillBins + 1, 70000, WidthAuto},
		{"last bin", n - 1, 70000, WidthAuto},
		{"floor", 2 * fillBins, 300, Width16},
	} {
		loads := make([]int32, n)
		for i := range loads {
			loads[i] = int32(i % 3)
		}
		loads[tc.at] = tc.top
		next := 0
		s, balls, err := NewFill(n, func(lo int, dst []int32) {
			if lo != next || len(dst) > fillBins {
				t.Fatalf("%s: fill asked for [%d,%d), want it from %d in chunks of at most %d", tc.name, lo, lo+len(dst), next, fillBins)
			}
			next = lo + len(dst)
			copy(dst, loads[lo:])
		}, Options{Width: tc.floor})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if next != n {
			t.Fatalf("%s: fill stopped at bin %d of %d", tc.name, next, n)
		}
		var want int64
		empty := 0
		work := make([]uint64, (n+63)/64)
		for u, l := range loads {
			want += int64(l)
			if l == 0 {
				empty++
			} else {
				work[u/64] |= 1 << (u % 64)
			}
		}
		if w := WidthFor(tc.top, tc.floor); s.Width() != w {
			t.Errorf("%s: width %v, want %v", tc.name, s.Width(), w)
		}
		if balls != want || s.MaxLoad() != tc.top || s.EmptyBins() != empty {
			t.Errorf("%s: balls %d max %d empty %d, want %d %d %d", tc.name, balls, s.MaxLoad(), s.EmptyBins(), want, tc.top, empty)
		}
		gotLoads, gotWork, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotLoads, loads) || !slices.Equal(gotWork, work) {
			t.Errorf("%s: stored loads or worklist words differ from the vector's", tc.name)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	loads := onePerBin(n)
	loads[fillBins+3], loads[2*fillBins] = -2, -1
	if _, _, err := NewFill(n, copyFill(loads), Options{}); err == nil || err.Error() != "engine: bin 2051 has negative load -2" {
		t.Errorf("two negative loads: %v, want the error naming bin 2051", err)
	}
}

// TestWidenOnDeposit escalates through the staging path: depositing past
// the uint8 range widens mid-staging without losing a ball.
func TestWidenOnDeposit(t *testing.T) {
	s, err := New(make([]int32, 100), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Width() != Width8 {
		t.Fatalf("width %v", s.Width())
	}
	for i := 0; i < 300; i++ {
		s.Deposit(7)
	}
	if s.Width() != Width16 {
		t.Fatalf("after 300 deposits: width %v, want 16", s.Width())
	}
	s.ReleaseEach(nil)
	s.Commit()
	if got := s.Load(7); got != 300 {
		t.Fatalf("load 300 deposits → %d", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWidenOnCommit escalates through the merge path: each staged count and
// each load fits uint8, but their sum does not.
func TestWidenOnCommit(t *testing.T) {
	loads := make([]int32, 100)
	loads[7] = 200
	s, err := New(loads, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.ReleaseEach(nil) // sparse round: bin 7 drops to 199
	for i := 0; i < 100; i++ {
		s.Deposit(7)
	}
	if s.Width() != Width8 {
		t.Fatalf("pre-commit width %v, want 8", s.Width())
	}
	s.Commit()
	if s.Width() != Width16 {
		t.Fatalf("post-commit width %v, want 16", s.Width())
	}
	if got := s.Load(7); got != 299 {
		t.Fatalf("load %d, want 299", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWidenOnDenseRelease escalates through the dense release hot loop:
// with n = 1 every thrown ball lands on the saturated staging slot, so the
// mid-loop widen (pending destination applied after the switch) triggers.
func TestWidenOnDenseRelease(t *testing.T) {
	s, err := New([]int32{10}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 255; i++ {
		s.Deposit(0)
	}
	if s.Width() != Width8 {
		t.Fatalf("width %v", s.Width())
	}
	d := NewDrawer(rng.NewStream(1, 0))
	if got := s.ReleaseUniform(d, nil); got != 1 {
		t.Fatalf("released %d, want 1", got)
	}
	if s.Width() != Width16 {
		t.Fatalf("post-release width %v, want 16", s.Width())
	}
	s.Commit()
	if got := s.Load(0); got != 10+255+1-1 {
		t.Fatalf("load %d, want 265", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWidenToRatchet covers the restore-side ratchet: WidenTo widens, never
// narrows, and survives a Snapshot/Restore cycle via the caller protocol.
func TestWidenToRatchet(t *testing.T) {
	s, err := New([]int32{1, 2, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WidenTo(Width16); err != nil || s.Width() != Width16 {
		t.Fatalf("WidenTo(16): %v, width %v", err, s.Width())
	}
	if err := s.WidenTo(Width8); err != nil || s.Width() != Width16 {
		t.Fatalf("WidenTo(8) narrowed: %v, width %v", err, s.Width())
	}
	if err := s.WidenTo(7); err == nil {
		t.Error("invalid WidenTo accepted")
	}
	loads, work, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := Restore(loads, work, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Width() != Width8 {
		t.Fatalf("restored width %v, want re-derived 8", r.Width())
	}
	if err := r.WidenTo(Width16); err != nil || r.Width() != Width16 {
		t.Fatalf("restore ratchet: %v, width %v", err, r.Width())
	}
	if got := r.LoadsCopy(); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("restored loads %v", got)
	}
}
