package engine

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/rng"
)

func TestParseKernel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kernel
		ok   bool
	}{
		{"", KernelBatched, true},
		{"batched", KernelBatched, true},
		{"scalar", KernelScalar, true},
		{"simd", 0, false},
		{"Batched", 0, false},
	} {
		got, err := ParseKernel(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("ParseKernel(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for _, k := range []Kernel{KernelBatched, KernelScalar} {
		back, err := ParseKernel(k.String())
		if err != nil || back != k {
			t.Errorf("ParseKernel(%v.String()) = %v, %v", k, back, err)
		}
	}
	if _, err := New(onePerBin(8), Options{Kernel: Kernel(7)}); err == nil {
		t.Error("New accepted an undefined kernel")
	}
}

// trajectory captures everything a kernel can influence: the full per-round
// statistics series, every observer callback in order, the consumed RNG
// position (via the final loads) and the checkpoint-visible end state.
type trajectory struct {
	maxLoad  []int32
	nonEmpty []int
	visited  [][2]int
	final    []int32
	width    Width
}

// runTraj steps a fresh State rounds times under kernel k and records its
// trajectory. withVisit steps the per-bin law (ReleaseUniform with a visit
// callback: one draw and one Deposit per released bin, the dense release
// taking the per-bin loop under either kernel) instead of the throw. After
// every round it holds the running statistics to a recount (checkStats),
// so a count that slips fails at its round.
func runTraj(t *testing.T, loads []int32, w Width, k Kernel, rounds int, seed uint64, withVisit bool) trajectory {
	t.Helper()
	var tr trajectory
	st, err := New(loads, Options{Width: w, Kernel: k})
	if err != nil {
		t.Fatal(err)
	}
	var visit func(u, dest int)
	if withVisit {
		visit = func(u, dest int) { tr.visited = append(tr.visited, [2]int{u, dest}) }
	}
	d := NewDrawer(rng.New(seed))
	for r := 0; r < rounds; r++ {
		st.ReleaseUniform(d, visit)
		st.Commit()
		checkStats(t, st, fmt.Sprintf("kernel %v round %d", k, r))
		tr.maxLoad = append(tr.maxLoad, st.MaxLoad())
		tr.nonEmpty = append(tr.nonEmpty, st.NonEmptyBins())
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("kernel %v: %v", k, err)
	}
	tr.final = st.LoadsCopy()
	tr.width = st.Width()
	return tr
}

// checkStats holds MaxLoad and NonEmptyBins to a recount of the loads.
// Unlike CheckInvariants it leaves the worklist alone, so a worklist that a
// dense round left stale is still rebuilt by the next sparse round's own
// path.
func checkStats(t *testing.T, st *State, where string) {
	t.Helper()
	var top int32
	nonEmpty := 0
	for _, l := range st.LoadsCopy() {
		top = max(top, l)
		if l > 0 {
			nonEmpty++
		}
	}
	if st.MaxLoad() != top || st.NonEmptyBins() != nonEmpty {
		t.Fatalf("%s: MaxLoad %d, NonEmptyBins %d; the loads hold %d and %d",
			where, st.MaxLoad(), st.NonEmptyBins(), top, nonEmpty)
	}
}

func constLoads(n int, v int32) []int32 {
	loads := make([]int32, n)
	for i := range loads {
		loads[i] = v
	}
	return loads
}

// TestKernelEquivalence pins the kernel contract: the batched kernel and
// the scalar loop produce byte-identical trajectories — same per-round
// statistics, same observer callbacks in the same order, same final loads
// and same widening decisions — across widths, occupancy regimes
// (including the sparse↔dense crossings) and observer variants. The
// perBin variant holds both kernels' throws to the per-bin law.
func TestKernelEquivalence(t *testing.T) {
	configs := []struct {
		name   string
		loads  []int32
		rounds int
	}{
		// Dense from round 0; n > 8 words exercises the SWAR body.
		{"onePerBin_n4096", onePerBin(4096), 300},
		// Sparse start, crosses into the dense regime as the balls spread.
		{"allInOne_n1024", allInOne(1024, 1024), 3000},
		// Stationary mid-occupancy mixture.
		{"uniform_n2048", uniformRandom(2048, 4096, rng.New(7)), 400},
		// Loads near the uint8 ceiling: stochastic maxima cross 255 while
		// dense, forcing the mid-commit 8→16 widen-resume in both kernels.
		{"widen_n512", constLoads(512, 250), 200},
		// Unaligned tail: n ∤ 8 exercises the scalar head/tail of the SWAR
		// passes.
		{"tail_n1013", onePerBin(1013), 300},
		// Occupancy between the two switch points: uniform m = n/4 keeps
		// 0.21n–0.23n bins non-empty, so every batched nil-visit round runs
		// dense (≥ n/6) while the scalar and visit rounds of the same
		// trajectory run sparse (< n/3). At the Width16 floor the batched
		// rounds take the SWAR pass, over a tail of n mod 8 = 3. (The
		// all-in-one start above crosses both switch points as it spreads.)
		{"between_n4099", uniformRandom(4099, 4099/4, rng.New(13)), 400},
	}
	for _, cfg := range configs {
		for _, w := range []Width{WidthAuto, Width8, Width16, Width32} {
			for _, variant := range []string{"plain", "visit", "perBin"} {
				name := fmt.Sprintf("%s/w%d/%s", cfg.name, w, variant)
				t.Run(name, func(t *testing.T) {
					const seed = 42
					if variant == "perBin" {
						checkPerBinLaw(t, cfg.loads, w, cfg.rounds, seed)
						return
					}
					vis := variant == "visit"
					a := runTraj(t, cfg.loads, w, KernelBatched, cfg.rounds, seed, vis)
					b := runTraj(t, cfg.loads, w, KernelScalar, cfg.rounds, seed, vis)
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("kernels diverged:\n batched: max=%v.. nonEmpty=%v.. width=%v\n scalar:  max=%v.. nonEmpty=%v.. width=%v",
							head(a.maxLoad), a.nonEmpty[:min(4, len(a.nonEmpty))], a.width,
							head(b.maxLoad), b.nonEmpty[:min(4, len(b.nonEmpty))], b.width)
					}
				})
			}
		}
	}
}

func head(s []int32) []int32 { return s[:min(4, len(s))] }

// checkPerBinLaw holds each kernel's nil-visit trajectory — the round's
// released balls thrown in blocks by ThrowUniform — to the per-bin law:
// KernelScalar with a visit callback, which draws and stages one ball per
// released bin in bin order. The visit log is the one field a nil-visit
// round cannot record, so it is excluded.
func checkPerBinLaw(t *testing.T, loads []int32, w Width, rounds int, seed uint64) {
	t.Helper()
	want := runTraj(t, loads, w, KernelScalar, rounds, seed, true)
	want.visited = nil
	for _, k := range []Kernel{KernelBatched, KernelScalar} {
		if got := runTraj(t, loads, w, k, rounds, seed, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("kernel %v: the throw diverged from the per-bin law: max=%v.. width=%v, want max=%v.. width=%v",
				k, head(got.maxLoad), got.width, head(want.maxLoad), want.width)
		}
	}
}

// FuzzKernelEquivalence drives randomized (config, width, observer, rounds)
// tuples through both kernels and requires identical trajectories, and
// both kernels' throws to match the per-bin law. The scalar loop is the
// oracle; any divergence is a kernel bug by definition.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint16(128), uint8(50), uint8(0))
	f.Add(uint64(2), uint16(500), uint16(500), uint8(80), uint8(1))
	f.Add(uint64(3), uint16(9), uint16(2000), uint8(40), uint8(6))
	f.Add(uint64(4), uint16(1013), uint16(1013), uint8(60), uint8(16))
	f.Add(uint64(5), uint16(256), uint16(60000), uint8(30), uint8(2))
	// Width16 floor, n = 1003 (n mod 8 = 3), m = n/4: between the switches.
	f.Add(uint64(6), uint16(1002), uint16(250), uint8(90), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, n16, m16 uint16, rounds8, flags uint8) {
		n := int(n16)%1024 + 1
		m := int(m16)
		rounds := int(rounds8)%120 + 1
		w := []Width{WidthAuto, Width8, Width16, Width32}[flags&3]
		withVisit := flags&8 != 0
		var loads []int32
		if flags&16 != 0 {
			loads = allInOne(n, m)
		} else {
			loads = uniformRandom(n, m, rng.New(seed^0x9e3779b97f4a7c15))
		}
		a := runTraj(t, loads, w, KernelBatched, rounds, seed, withVisit)
		b := runTraj(t, loads, w, KernelScalar, rounds, seed, withVisit)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("kernels diverged: n=%d m=%d rounds=%d w=%d flags=%#x", n, m, rounds, w, flags)
		}
		checkPerBinLaw(t, loads, w, rounds, seed)
	})
}

// TestDepositBatchOverflow pins the landing widen-resume contract of landW,
// in a dense round and a sparse one: the index whose cell would pass the
// width is returned mid-batch with nothing landed for it, and the replay
// from that index on the widened cells lands the rest of the batch
// exactly. The non-empty count and the landed maximum follow every ball,
// and in the sparse round so does the worklist bit of each bin filled from
// empty. Nothing is staged.
func TestDepositBatchOverflow(t *testing.T) {
	const offset = 10
	vs := []int32{offset + 2}
	for range 300 {
		vs = append(vs, offset+5)
	}
	vs = append(vs, offset+7)
	for _, sparse := range []bool{false, true} {
		// Bin 6 holds 4 balls after the release; stepMax starts at its 4.
		s := &State{n: 8, work: bitset.New(8), sparse: sparse, inRound: true, nonEmpty: 1, stepMax: 4}
		s.work.Set(6)
		load := []uint8{0, 0, 0, 0, 0, 0, 4, 0}
		ov := landW(s, load, math.MaxUint8, vs, offset, 0)
		if ov != 256 {
			t.Fatalf("sparse=%v: overflow index %d, want 256", sparse, ov)
		}
		if want := []uint8{0, 0, 1, 0, 0, 255, 4, 0}; !reflect.DeepEqual(load, want) || s.nonEmpty != 3 || s.stepMax != 255 {
			t.Fatalf("sparse=%v: at the overflow cells %v, nonEmpty %d, stepMax %d; want %v, 3, 255",
				sparse, load, s.nonEmpty, s.stepMax, want)
		}
		// The caller widens (the loads carry over) and resumes at ov.
		load16 := widenSlice[uint8, uint16](load)
		if ov2 := landW(s, load16, math.MaxUint16, vs, offset, ov); ov2 != -1 {
			t.Fatalf("sparse=%v: the resumed landing overflowed again at %d", sparse, ov2)
		}
		if want := []uint16{0, 0, 1, 0, 0, 300, 4, 1}; !reflect.DeepEqual(load16, want) || s.nonEmpty != 4 || s.stepMax != 300 {
			t.Fatalf("sparse=%v: after the resume cells %v, nonEmpty %d, stepMax %d; want %v, 4, 300",
				sparse, load16, s.nonEmpty, s.stepMax, want)
		}
		// A dense round leaves its worklist stale for the next sparse
		// round to rebuild; a sparse one sets the bit of each filled bin.
		want := uint64(1 << 6)
		if sparse {
			want |= 1<<2 | 1<<5 | 1<<7
		}
		if got := s.work.Word(0); got != want || len(s.touched) != 0 {
			t.Fatalf("sparse=%v: worklist %#b, touched %v; want %#b and nothing staged", sparse, got, s.touched, want)
		}
	}
}

// TestKernelReleaseEach pins the batched ReleaseEach fast path — the SWAR
// decrement at Width8, the branch-free one at Width16 and Width32 — against
// the generic loop.
func TestKernelReleaseEach(t *testing.T) {
	loads := uniformRandom(1013, 1500, rng.New(11))
	for _, w := range []Width{Width8, Width16, Width32} {
		run := func(k Kernel) ([]int32, int) {
			st, err := New(loads, Options{Width: w, Kernel: k})
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			d := NewDrawer(rng.New(3))
			for r := 0; r < 50; r++ {
				// Alternate ReleaseEach (self-loop decrement) with real
				// rounds so the occupancy keeps changing.
				total += st.ReleaseEach(nil)
				st.Commit()
				st.ReleaseUniform(d, nil)
				st.Commit()
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatalf("w%d kernel %v: %v", w, k, err)
			}
			if st.Width() != w {
				t.Fatalf("w%d kernel %v: width moved to %v", w, k, st.Width())
			}
			return st.LoadsCopy(), total
		}
		la, ta := run(KernelBatched)
		lb, tb := run(KernelScalar)
		if ta != tb || !reflect.DeepEqual(la, lb) {
			t.Fatalf("w%d: ReleaseEach diverged: released %d vs %d", w, ta, tb)
		}
	}
}

// TestDecDenseNZ checks the branch-free decrement bin by bin at the edges
// of the Width32 cells it serves, and the count of the bins it leaves
// empty.
func TestDecDenseNZ(t *testing.T) {
	l32 := []int32{math.MaxInt32, 0, 1, 0}
	if got := decDenseNZ(l32); got != 3 || !reflect.DeepEqual(l32, []int32{math.MaxInt32 - 1, 0, 0, 0}) {
		t.Fatalf("Width32: %d left empty, loads %v", got, l32)
	}
}

// TestDecDense16SWAR holds the Width16 pass to decDenseNZ, cell by cell and
// in the count of cells it leaves empty, on loads drawn from the lane edges
// (0, 1, 2, 65,534, 65,535) at every length from 0 to 40: every tail
// length n mod 8, after zero to four whole iterations, and every lane
// position of each edge value.
func TestDecDense16SWAR(t *testing.T) {
	edges := []uint16{0, 1, 2, math.MaxUint16 - 1, math.MaxUint16}
	r := rng.New(16)
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 50; trial++ {
			want := make([]uint16, n)
			for i := range want {
				want[i] = edges[r.Uint64n(uint64(len(edges)))]
			}
			got := slices.Clone(want)
			wantEmpty, gotEmpty := decDenseNZ(want), decDense16SWAR(got)
			if gotEmpty != wantEmpty || !slices.Equal(got, want) {
				t.Fatalf("n=%d: decDense16SWAR left %d empty, loads %v; decDenseNZ %d, %v", n, gotEmpty, got, wantEmpty, want)
			}
		}
	}
}

// TestSWARPrimitives checks the word-parallel building blocks lane by lane
// against their scalar definitions on random words.
func TestSWARPrimitives(t *testing.T) {
	r := rng.New(99)
	words := []uint64{0, ^uint64(0), swarH, swarL, 0x0100ff00017f80ff}
	for i := 0; i < 2000; i++ {
		words = append(words, r.Uint64n(^uint64(0)))
	}
	for _, x := range words[:200] {
		var wantZero uint64
		for lane := 0; lane < 8; lane++ {
			if (x>>(8*lane))&0xff == 0 {
				wantZero |= 0x80 << (8 * lane)
			}
		}
		if got := zeroMask8(x); got != wantZero {
			t.Fatalf("zeroMask8(%#016x) = %#016x, want %#016x", x, got, wantZero)
		}
	}
	for i := 0; i+1 < len(words); i += 2 {
		x, y := words[i], words[i+1]
		var want uint64
		for lane := 0; lane < 8; lane++ {
			a, b := (x>>(8*lane))&0xff, (y>>(8*lane))&0xff
			want |= max(a, b) << (8 * lane)
		}
		if got := maxU8x8(x, y); got != want {
			t.Fatalf("maxU8x8(%#016x, %#016x) = %#016x, want %#016x", x, y, got, want)
		}
	}
	// The 16-bit lane helpers, on words built from the lane edges and on
	// the random ones.
	edges := []uint64{0, 1, 2, 0x7fff, 0x8000, 0x8001, 0xfffe, 0xffff}
	for _, a := range edges {
		for _, b := range edges {
			words = append(words, a|b<<16|b<<32|a<<48, b|a<<16|a<<32|b<<48)
		}
	}
	for _, x := range words {
		var wantNZ, wantDec uint64
		wantKept := 0
		for lane := 0; lane < 4; lane++ {
			l := (x >> (16 * lane)) & 0xffff
			if l != 0 {
				wantNZ |= 0x8000 << (16 * lane)
				wantDec |= (l - 1) << (16 * lane)
			}
			if l >= 2 {
				wantKept++
			}
		}
		if got := nonZero16(x); got != wantNZ {
			t.Fatalf("nonZero16(%#016x) = %#016x, want %#016x", x, got, wantNZ)
		}
		if got, kept := dec16x4(x); got != wantDec || kept != wantKept {
			t.Fatalf("dec16x4(%#016x) = %#016x, %d kept; want %#016x, %d", x, got, kept, wantDec, wantKept)
		}
	}
}

// TestDenseRoundAllocs: once warm, dense rounds allocate nothing under
// either kernel.
func TestDenseRoundAllocs(t *testing.T) {
	for _, k := range []Kernel{KernelBatched, KernelScalar} {
		t.Run(k.String(), func(t *testing.T) {
			st, err := New(onePerBin(1<<14), Options{Kernel: k})
			if err != nil {
				t.Fatal(err)
			}
			d := NewDrawer(rng.New(5))
			for i := 0; i < 16; i++ {
				st.ReleaseUniform(d, nil)
				st.Commit()
			}
			allocs := testing.AllocsPerRun(64, func() {
				st.ReleaseUniform(d, nil)
				st.Commit()
			})
			if allocs != 0 {
				t.Errorf("dense round allocates %v times per round, want 0", allocs)
			}
		})
	}
}

// TestSparseRoundAllocs: the sparse path stays allocation-free too. With
// m = n/8 balls at most n/8 bins are ever non-empty, below the lowest
// dense threshold (sparseDenomBatched), so every measured round is sparse
// by construction.
func TestSparseRoundAllocs(t *testing.T) {
	for _, k := range []Kernel{KernelBatched, KernelScalar} {
		t.Run(k.String(), func(t *testing.T) {
			n := 1 << 16
			st, err := New(uniformRandom(n, n/8, rng.New(2)), Options{Kernel: k})
			if err != nil {
				t.Fatal(err)
			}
			d := NewDrawer(rng.New(5))
			for i := 0; i < 200; i++ {
				st.ReleaseUniform(d, nil)
				st.Commit()
			}
			allocs := testing.AllocsPerRun(64, func() {
				st.ReleaseUniform(d, nil)
				st.Commit()
			})
			if allocs != 0 {
				t.Errorf("sparse round allocates %v times per round, want 0", allocs)
			}
		})
	}
}

// TestScratchBytes: LoadBytes stays a pure function of (n, width) under
// both kernels — it feeds byte-compared summaries — and a round keeps no
// per-bin scratch beside the cells: a fresh State's first dense round at
// n = 2^20 allocates under 4 KiB.
func TestScratchBytes(t *testing.T) {
	loads := onePerBin(1 << 12)
	mk := func(k Kernel) *State {
		st, err := New(loads, Options{Kernel: k})
		if err != nil {
			t.Fatal(err)
		}
		d := NewDrawer(rng.New(1))
		for i := 0; i < 4; i++ {
			st.ReleaseUniform(d, nil)
			st.Commit()
		}
		return st
	}
	batched, scalar := mk(KernelBatched), mk(KernelScalar)
	if batched.LoadBytes() != scalar.LoadBytes() {
		t.Errorf("LoadBytes depends on the kernel: %d vs %d", batched.LoadBytes(), scalar.LoadBytes())
	}

	st, err := New(onePerBin(1<<20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDrawer(rng.New(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st.ReleaseUniform(d, nil)
	st.Commit()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4096 {
		t.Errorf("first dense round at n = 2^20 allocates %d bytes, want < 4096", got)
	}
}
