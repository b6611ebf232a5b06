// Package engine is the shared stepping layer under every synchronous
// process in this repository: each shard of shard.Process (the paper's
// process and, under the batch rules, the Tetris and batches processes,
// sequential or sharded), walks.Traversal (the §4 traversal, the token
// process included), core.ChoicesProcess and coupling.Coupled. A State
// reports nothing during a round; an observer (such as the Lemma 4
// tracker, shard.EmptyTracker) reads the loads between rounds.
//
// The paper's headline regime is sparse: after self-stabilization most bins
// hold O(1) balls, and from the worst-case AllInOne start only a handful of
// bins are non-empty for a long prefix of the run. A State therefore keeps
// the set of non-empty bins as an incrementally maintained worklist
// (internal/bitset, iterated in increasing bin order) and updates max-load
// and empty-count from the bins actually touched in a round, instead of
// rescanning all n bins. When the worklist grows past a constant fraction
// of n the State switches to a dense scan for that round — the dense scan
// is cheaper per bin, and the switch is invisible to callers.
//
// # Load representation
//
// The same max-load bound makes loads tiny: Θ(log n) w.h.p. means a bin
// load rarely needs more than one byte. A State therefore stores the load
// vector and the arrival staging area at the narrowest of uint8, uint16 or
// int32 that fits (Options.Width can pin a floor), and widens — 8→16→32,
// never back — the moment any value would overflow the current type. The
// widening check is exact and its trigger is order-independent within a
// round: a landed cell, a staged count or a merged sum passes the type's
// range exactly when some bin ends the round above it, whatever the order
// the increments arrive in. Only the point inside the round where a widen
// fires depends on how arrivals come; the width after any round is a pure
// function of the trajectory and the floor, identical across transports,
// worker counts and snapshot/resume cuts. All accessors keep their int32
// signatures; representation is invisible to callers except through
// Width/LoadBytes.
//
// # Round protocol
//
// A synchronous round against a State is:
//
//	state.ReleaseEach(visit)        // or ReleaseUniform(drawer, visit)
//	state.Deposit(v)                // zero or more, any time before Commit
//	state.ThrowUniform(src, k)      // or DepositBatch, after the release
//	state.Commit()
//
// Release* removes exactly one ball from every non-empty bin, visiting bins
// in increasing bin order. Deposit stages an arrival in the staging cells;
// staged arrivals are not visible through Load until Commit merges them.
// DepositBatch and ThrowUniform land their arrivals in the load cells
// themselves, after the round's release, so they show through Load at
// once, and they keep the round's statistics exact as they go: a Commit
// with nothing staged does no scan. Commit completes the round and
// refreshes MaxLoad/EmptyBins. Deposits may also be staged before the
// round's Release* call (the coupling construction needs this); the effect
// is identical. A batch may not land before the release (DepositBatch
// panics outside a round). Nothing may be staged or landed from inside the
// State's own ReleaseEach visit callback: an arrival that widened the cells
// would leave the rest of the scan on the old ones, so Deposit,
// DepositBatch and ThrowUniform panic there. A caller whose visit draws
// destinations records them and stages or lands them after the scan.
//
// # RNG draw-order contract
//
// Sparse and dense rounds consume randomness identically: whatever draws
// the caller performs happen once per released bin, in increasing bin
// order, because that is the order both release paths visit bins in.
// ReleaseUniform itself draws exactly one bounded value per released ball
// from the supplied Drawer, after the release scan (ThrowUniform). That
// lands the same arrivals as one draw per non-empty bin in bin order —
// the destinations are i.i.d. and arrivals are counts — so a State
// produces byte-identical trajectories to the historical dense engines
// for any seed; the golden tests pin this. Widening never consumes a draw
// and never changes a value, so the trajectory is also independent of
// the width.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/bitset"
	"repro/internal/rng"
)

// trailingZeros is a local alias keeping the worklist drain loops compact.
func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }

// sparseDenom sets the sparse/dense switch: a round runs sparse when
// |W| * sparseDenom < n. The dense per-bin constant is a few ns while the
// sparse per-bin constant is roughly 3× that, so n/3 is the break-even.
const sparseDenom = 3

// Width is the storage width of the load vector and arrival staging area.
// The zero value (WidthAuto) means "narrowest that fits, widen on demand";
// the explicit widths are floors — a State never stores narrower than its
// floor and never narrower than its values require.
type Width uint8

const (
	// WidthAuto picks the narrowest width that fits the initial loads.
	WidthAuto Width = 0
	// Width8 stores loads as uint8 (range [0, 255]).
	Width8 Width = 8
	// Width16 stores loads as uint16 (range [0, 65535]).
	Width16 Width = 16
	// Width32 stores loads as int32 — the historical representation and
	// the widest supported one.
	Width32 Width = 32
)

// String returns the flag spelling of the width.
func (w Width) String() string {
	if w == WidthAuto {
		return "auto"
	}
	return fmt.Sprintf("%d", uint8(w))
}

// ParseWidth parses a load-width name: "auto" (or empty), "8", "16", "32".
func ParseWidth(s string) (Width, error) {
	switch s {
	case "", "auto":
		return WidthAuto, nil
	case "8":
		return Width8, nil
	case "16":
		return Width16, nil
	case "32":
		return Width32, nil
	}
	return 0, fmt.Errorf("engine: unknown load width %q (want auto|8|16|32)", s)
}

// valid reports whether w is one of the defined Width values.
func (w Width) valid() bool {
	return w == WidthAuto || w == Width8 || w == Width16 || w == Width32
}

// fitWidth returns the narrowest width representing max.
func fitWidth(max int32) Width {
	switch {
	case max <= math.MaxUint8:
		return Width8
	case max <= math.MaxUint16:
		return Width16
	default:
		return Width32
	}
}

// maxWidth returns the wider of a and b (the widths are ordered by their
// numeric bit counts, with WidthAuto = 0 below all of them).
func maxWidth(a, b Width) Width {
	if a > b {
		return a
	}
	return b
}

// WidthFor returns the storage width a fresh State with the given floor
// picks for a load vector whose maximum is max — the single definition of
// the auto rule, shared with shard.InitialSnapshot (which must predict the
// width a worker's State will report without constructing one).
func WidthFor(max int32, floor Width) Width {
	w := maxWidth(floor, fitWidth(max))
	if w == WidthAuto {
		w = Width8
	}
	return w
}

// loadElem is the set of storage types a load vector can use.
type loadElem interface {
	uint8 | uint16 | int32
}

// Options configures a State.
type Options struct {
	// Width is the storage-width floor (default WidthAuto: narrowest that
	// fits). The trajectory is independent of it; only memory and the
	// recorded snapshot width depend on it.
	Width Width
	// Kernel selects the dense release decrement and the Width8 dense
	// merge of staged arrivals (default KernelBatched). The trajectory is
	// independent of it; only speed depends on it.
	Kernel Kernel
}

// State is a load vector with an incrementally maintained non-empty-bin
// worklist and O(touched) per-round statistics. Create with New, NewFill
// or Restore; not safe for concurrent use.
//
// Exactly one of the (load8, arr8)/(load16, arr16)/(load32, arr32) pairs is
// live, selected by width; every public accessor dispatches on it. The
// widening ratchet only ever moves 8→16→32, mid-round included (widening is
// a pure value-preserving representation change).
type State struct {
	n     int
	width Width
	work  *bitset.Set

	load8, arr8   []uint8
	load16, arr16 []uint16
	load32, arr32 []int32

	nonEmpty int
	maxLoad  int32

	minWidth  Width   // Options.Width floor (never narrower than this)
	loadsView []int32 // lazily allocated Loads() view for narrow widths

	touched []int32 // bins with arrivals staged by Deposit

	stepMax   int32 // max load a released (sparse rounds) or landed bin reached this round
	sparse    bool  // mode of the in-flight round
	inRound   bool
	scanning  bool // inside a ReleaseEach visit callback: staging and landing panic
	workStale bool // worklist bits out of date (rebuilt lazily after dense rounds)
	kernel    Kernel
}

// Fill writes the loads of bins [lo, lo+len(dst)) into dst: the source a
// State is built from (see NewFill).
type Fill func(lo int, dst []int32)

// fillBins is the length of NewFill's chunk: 8 KiB of int32, so a chunk
// is still in L1 when it is stored, and a multiple of 64, so every chunk
// but the last fills whole worklist words.
const fillBins = 2048

// New builds a State over a copy of loads: NewFill over the vector. It
// returns an error if loads is empty, contains a negative entry, or
// opts.Width is not a defined Width.
func New(loads []int32, opts Options) (*State, error) {
	s, _, err := NewFill(len(loads), CopyFill(loads), opts)
	return s, err
}

// CopyFill serves loads as a Fill.
func CopyFill(loads []int32) Fill {
	return func(lo int, dst []int32) { copy(dst, loads[lo:]) }
}

// NewFill builds a State over the n bins fill serves, in one pass a chunk
// at a time, and returns it with its ball count. fill is asked for bins
// [0, n) in increasing order through one fixed chunk, and each chunk is
// validated and stored as it arrives: the cells are allocated at the
// width the first chunk needs and widen on demand, and the same pass sets
// the worklist words and counts the non-empty bins, the maximum load and
// the balls. The whole configuration is therefore never held as an
// []int32, and the cells are allocated, and the loads written, by the
// goroutine that calls NewFill. It returns an error if n < 1, a load is
// negative (naming the lowest such bin), or opts.Width is not a defined
// Width.
func NewFill(n int, fill Fill, opts Options) (*State, int64, error) {
	if n < 1 {
		return nil, 0, errors.New("engine: New with no bins")
	}
	if !opts.Width.valid() {
		return nil, 0, fmt.Errorf("engine: invalid load width %d", uint8(opts.Width))
	}
	if !opts.Kernel.valid() {
		return nil, 0, fmt.Errorf("engine: invalid kernel %d", uint8(opts.Kernel))
	}
	s := &State{
		n:        n,
		work:     bitset.New(n),
		minWidth: opts.Width,
		kernel:   opts.Kernel,
	}
	noteKernel(opts.Kernel)
	var balls int64
	buf := make([]int32, min(n, fillBins))
	for lo := 0; lo < n; lo += fillBins {
		chunk := buf[:min(fillBins, n-lo)]
		fill(lo, chunk)
		top, sum, err := checkLoads(chunk, lo)
		if err != nil {
			return nil, 0, err
		}
		balls += sum
		s.maxLoad = max(s.maxLoad, top)
		want := WidthFor(s.maxLoad, s.minWidth)
		if s.width == WidthAuto {
			s.width = want
			switch want {
			case Width8:
				s.load8, s.arr8 = make([]uint8, n), make([]uint8, n)
			case Width16:
				s.load16, s.arr16 = make([]uint16, n), make([]uint16, n)
			default:
				s.load32, s.arr32 = make([]int32, n), make([]int32, n)
			}
		}
		for s.width < want {
			s.widenCells()
		}
		s.nonEmpty += s.store(lo, chunk)
	}
	return s, balls, nil
}

// checkLoads returns the maximum and the sum of loads, the bins
// [lo, lo+len(loads)), or an error naming the lowest bin with a negative
// load. Summing here, not in store, keeps each loop's state in registers.
func checkLoads(loads []int32, lo int) (int32, int64, error) {
	var top int32
	var sum int64
	for v, l := range loads {
		if l < 0 {
			return 0, 0, fmt.Errorf("engine: bin %d has negative load %d", lo+v, l)
		}
		top = max(top, l)
		sum += int64(l)
	}
	return top, sum, nil
}

// Reload replaces the configuration wholesale and refreshes all statistics
// — the §4.1 adversarial reassignment. It must not be called mid-round,
// and it leaves the State unchanged when it fails. The storage width
// ratchets: Reload widens if the new loads need it but never narrows (so
// snapshot widths stay monotone over a State's lifetime).
func (s *State) Reload(loads []int32) error {
	if len(loads) != s.n {
		return fmt.Errorf("engine: Reload with %d bins, want %d", len(loads), s.n)
	}
	if s.inRound {
		return errors.New("engine: Reload mid-round")
	}
	top, _, err := checkLoads(loads, 0)
	if err != nil {
		return err
	}
	// Widening preserves any staged arrivals, which Reload never touches.
	for s.width < WidthFor(top, s.minWidth) {
		s.widen()
	}
	s.nonEmpty = s.store(0, loads)
	s.maxLoad = top
	s.workStale = false
	return nil
}

// store writes loads, already validated and fitting the current width, as
// bins [lo, lo+len(loads)) — lo a multiple of 64 — sets their worklist
// words, and returns how many of them are non-empty.
func (s *State) store(lo int, loads []int32) int {
	switch s.width {
	case Width8:
		return storeW(s, s.load8[lo:lo+len(loads)], lo, loads)
	case Width16:
		return storeW(s, s.load16[lo:lo+len(loads)], lo, loads)
	default:
		return storeW(s, s.load32[lo:lo+len(loads)], lo, loads)
	}
}

func storeW[L loadElem](s *State, load []L, lo int, loads []int32) int {
	nonEmpty := 0
	for base := 0; base < len(loads); base += 64 {
		src := loads[base:min(base+64, len(loads))]
		dst := load[base : base+len(src)]
		var w uint64
		for v, l := range src {
			dst[v] = L(l)
			var bit uint64
			if l != 0 {
				bit = 1
			}
			w |= bit << (uint(v) & 63) // the mask spares the shift its range check
		}
		s.work.SetWord((lo+base)>>6, w)
		nonEmpty += bits.OnesCount64(w)
	}
	return nonEmpty
}

// widen moves the backing arrays one step up the 8→16→32 ladder (see
// widenCells) and records the ratchet.
func (s *State) widen() {
	s.widenCells()
	noteWiden(s.width)
}

// widenCells moves the backing arrays one step up the 8→16→32 ladder,
// preserving every load and staged arrival exactly. Safe mid-round: the
// worklist, touched list and statistics all refer to bin indices
// and values, none of which change. Widening past int32 is impossible by
// construction (the total ball count of every supported configuration
// fits int32), so requesting it panics rather than silently wrapping.
// NewFill widens through it directly: a build that outgrows its first
// chunk's width is no ratchet of the run.
func (s *State) widenCells() {
	switch s.width {
	case Width8:
		s.load16, s.arr16 = widenSlice[uint8, uint16](s.load8), widenSlice[uint8, uint16](s.arr8)
		s.load8, s.arr8 = nil, nil
		s.width = Width16
	case Width16:
		s.load32, s.arr32 = widenSlice[uint16, int32](s.load16), widenSlice[uint16, int32](s.arr16)
		s.load16, s.arr16 = nil, nil
		s.width = Width32
	default:
		panic("engine: widen past int32 (ball count exceeds int32 range)")
	}
}

// widenSlice converts src into a freshly allocated wider representation.
func widenSlice[A, B loadElem](src []A) []B {
	out := make([]B, len(src))
	for i, v := range src {
		out[i] = B(v)
	}
	return out
}

// WidenTo ratchets the storage width up to at least w (no-op when the State
// is already that wide or wider; WidthAuto is a no-op). Restore paths use
// it to reapply the width recorded in a snapshot, which may be wider than
// the current values require — keeping resumed runs' snapshot bytes
// identical to uninterrupted ones.
func (s *State) WidenTo(w Width) error {
	if !w.valid() {
		return fmt.Errorf("engine: invalid load width %d", uint8(w))
	}
	for s.width < w {
		s.widen()
	}
	return nil
}

// Width returns the current storage width (Width8, Width16 or Width32).
func (s *State) Width() Width { return s.width }

// LoadBytes returns the bytes of the load vector and the arrival staging
// area at the current width. It is a formula, a pure function of (n,
// width), since it feeds byte-compared run summaries: a run that stages
// nothing never writes its staging cells, so their pages need not be
// resident.
func (s *State) LoadBytes() int64 {
	return int64(s.n) * 2 * int64(uint8(s.width)/8)
}

// MaxLoad returns the current maximum bin load.
func (s *State) MaxLoad() int32 { return s.maxLoad }

// EmptyBins returns the current number of empty bins.
func (s *State) EmptyBins() int { return s.n - s.nonEmpty }

// NonEmptyBins returns |W|, the current number of non-empty bins.
func (s *State) NonEmptyBins() int { return s.nonEmpty }

// Load returns the load of bin u. Between a Release* call and Commit it
// reflects the post-departure load plus the arrivals landed so far by
// DepositBatch or ThrowUniform; arrivals staged by Deposit show only after
// Commit (the d-choices rule, which deposits, compares against exactly the
// post-departure snapshot).
func (s *State) Load(u int) int32 {
	switch s.width {
	case Width8:
		return int32(s.load8[u])
	case Width16:
		return int32(s.load16[u])
	default:
		return s.load32[u]
	}
}

// Loads returns the load vector as int32 values. At Width32 this is the
// live backing array; at narrower widths it is a per-State view refreshed
// on every call. Callers must not modify it and must copy it if they need
// it across rounds (a later call may overwrite the view).
func (s *State) Loads() []int32 {
	if s.width == Width32 {
		return s.load32
	}
	if s.loadsView == nil {
		s.loadsView = make([]int32, s.n)
	}
	switch s.width {
	case Width8:
		for i, l := range s.load8 {
			s.loadsView[i] = int32(l)
		}
	default:
		for i, l := range s.load16 {
			s.loadsView[i] = int32(l)
		}
	}
	return s.loadsView
}

// AppendLoads appends the load vector (as int32) to dst and returns the
// extended slice — the allocation-free alternative to Loads for callers
// assembling a global vector from shards.
func (s *State) AppendLoads(dst []int32) []int32 {
	switch s.width {
	case Width8:
		for _, l := range s.load8 {
			dst = append(dst, int32(l))
		}
	case Width16:
		for _, l := range s.load16 {
			dst = append(dst, int32(l))
		}
	default:
		dst = append(dst, s.load32...)
	}
	return dst
}

// LoadsCopy returns a fresh copy of the current load vector.
func (s *State) LoadsCopy() []int32 {
	return s.AppendLoads(make([]int32, 0, s.n))
}

// Sum returns the total number of balls in the load cells (arrivals staged
// by Deposit excluded).
func (s *State) Sum() int64 {
	switch s.width {
	case Width8:
		return sumW(s.load8)
	case Width16:
		return sumW(s.load16)
	default:
		return sumW(s.load32)
	}
}

func sumW[L loadElem](load []L) int64 {
	var t int64
	for _, l := range load {
		t += int64(l)
	}
	return t
}

// Deposit stages one arriving ball at bin v. Staged balls become visible at
// Commit, which merges them, and ResetDeposits can discard them.
func (s *State) Deposit(v int) {
	s.checkStage("Deposit")
	for {
		switch s.width {
		case Width8:
			if a := s.arr8[v]; a != math.MaxUint8 {
				if a == 0 {
					s.touched = append(s.touched, int32(v))
				}
				s.arr8[v] = a + 1
				return
			}
		case Width16:
			if a := s.arr16[v]; a != math.MaxUint16 {
				if a == 0 {
					s.touched = append(s.touched, int32(v))
				}
				s.arr16[v] = a + 1
				return
			}
		default:
			if s.arr32[v] == 0 {
				s.touched = append(s.touched, int32(v))
			}
			s.arr32[v]++
			return
		}
		s.widen()
	}
}

// DepositBatch lands one arriving ball at bin v−offset for every v in vs —
// the bulk arrival of ThrowUniform, of the sharded drains (whose arrivals
// come pre-collected in per-shard rows) and of the coupling's original
// process. Unlike Deposit it writes the load cells themselves, so it must
// come after the round's release: it panics outside a round. The arrivals
// show through Load at once, the round's maximum and non-empty count stay
// exact as they land, and ResetDeposits cannot roll them back.
func (s *State) DepositBatch(vs []int32, offset int32) {
	s.checkStage("DepositBatch")
	if !s.inRound {
		panic("engine: DepositBatch outside a round")
	}
	start := 0
	for {
		var ov int
		switch s.width {
		case Width8:
			ov = landW(s, s.load8, math.MaxUint8, vs, offset, start)
		case Width16:
			ov = landW(s, s.load16, math.MaxUint16, vs, offset, start)
		default:
			ov = landW(s, s.load32, math.MaxInt32, vs, offset, start)
		}
		if ov < 0 {
			return
		}
		s.widen()
		start = ov
	}
}

// landW lands vs[start:] on load and returns the index whose cell would
// pass lim (the caller widens and resumes there; nothing is written for
// it), or −1 when done. Each landed ball raises stepMax to its bin's new
// load, and a bin filled from empty counts as non-empty: without a branch
// in a dense round, whose worklist is stale anyway, and with its worklist
// bit in a sparse one.
func landW[L loadElem](s *State, load []L, lim L, vs []int32, offset int32, start int) int {
	top, nonEmpty := s.stepMax, s.nonEmpty
	ov := -1
	if s.sparse {
		for i := start; i < len(vs); i++ {
			u := vs[i] - offset
			a := load[u]
			if a == lim {
				ov = i
				break
			}
			if a == 0 {
				s.work.Set(int(u))
				nonEmpty++
			}
			load[u] = a + 1
			top = max(top, int32(a)+1)
		}
	} else {
		for i := start; i < len(vs); i++ {
			u := vs[i] - offset
			a := load[u]
			if a == lim {
				ov = i
				break
			}
			load[u] = a + 1
			top = max(top, int32(a)+1)
			nonEmpty += int((uint64(a) - 1) >> 63) // 1 iff a == 0
		}
	}
	s.stepMax, s.nonEmpty = top, nonEmpty
	return ov
}

// checkStage panics when op stages or lands arrivals from inside the
// State's own ReleaseEach visit callback, like the other misuse guards: a
// widen there would leave the rest of the scan decrementing the old cells.
func (s *State) checkStage(op string) {
	if s.scanning {
		panic("engine: " + op + " inside the State's own ReleaseEach scan")
	}
}

// ResetDeposits discards every arrival staged by Deposit (the coupling's
// case (ii) redraw needs this). Arrivals landed by DepositBatch or
// ThrowUniform are in the load cells and stay.
func (s *State) ResetDeposits() {
	switch s.width {
	case Width8:
		for _, v := range s.touched {
			s.arr8[v] = 0
		}
	case Width16:
		for _, v := range s.touched {
			s.arr16[v] = 0
		}
	default:
		for _, v := range s.touched {
			s.arr32[v] = 0
		}
	}
	s.touched = s.touched[:0]
}

// beginRound decides the round's mode and resets per-round scratch. Dense
// rounds do not maintain the worklist bits (they never read them); the
// first sparse round after a dense one rebuilds the bits in a single pass,
// so the rebuild cost is amortized across the dense stretch.
func (s *State) beginRound() {
	if s.inRound {
		panic("engine: Release called twice without Commit")
	}
	s.inRound = true
	s.sparse = s.nonEmpty*sparseDenom < s.n
	s.stepMax = 0
	if s.sparse && s.workStale {
		s.rebuildWork()
	}
	if !s.sparse {
		s.workStale = true
	}
}

// rebuildWork reconstructs the worklist bits from the load vector.
func (s *State) rebuildWork() {
	switch s.width {
	case Width8:
		rebuildWorkW(s, s.load8)
	case Width16:
		rebuildWorkW(s, s.load16)
	default:
		rebuildWorkW(s, s.load32)
	}
	s.workStale = false
}

func rebuildWorkW[L loadElem](s *State, load []L) {
	var w uint64
	bit := uint64(1)
	wi := 0
	for v := range load {
		if load[v] > 0 {
			w |= bit
		}
		if bit <<= 1; bit == 0 {
			s.work.SetWord(wi, w)
			wi, w, bit = wi+1, 0, 1
		}
	}
	if len(load)&63 != 0 {
		s.work.SetWord(wi, w)
	}
}

// ReleaseEach removes one ball from every non-empty bin, calling visit(u)
// (if non-nil) per bin in increasing bin order, and returns the number of
// released balls. Loads observed through Load during the callbacks are
// post-departure for bins at or before u and pre-departure after it.
// visit must not stage or land arrivals on s (Deposit, DepositBatch and
// ThrowUniform panic inside the scan); it may record destinations for the
// caller to stage or land after ReleaseEach returns.
func (s *State) ReleaseEach(visit func(u int)) int {
	s.beginRound()
	if visit != nil {
		s.scanning = true
		defer func() { s.scanning = false }()
	}
	if !s.sparse {
		// Every non-empty bin releases, and the scan counts the bins it
		// leaves empty, so the non-empty count stays exact; the worklist
		// bits are rebuilt by the next sparse round.
		released := s.nonEmpty
		var empty int
		switch {
		case s.kernel == KernelBatched && visit == nil:
			// Nothing observes per-bin order: the batched kernel's
			// decrement is the whole dense release.
			empty = s.decDense()
		case s.width == Width8:
			empty = releaseEachDenseW(s.load8, visit)
		case s.width == Width16:
			empty = releaseEachDenseW(s.load16, visit)
		default:
			empty = releaseEachDenseW(s.load32, visit)
		}
		s.nonEmpty = s.n - empty
		return released
	}
	switch s.width {
	case Width8:
		return releaseEachW(s, s.load8, visit)
	case Width16:
		return releaseEachW(s, s.load16, visit)
	default:
		return releaseEachW(s, s.load32, visit)
	}
}

func releaseEachW[L loadElem](s *State, load []L, visit func(u int)) int {
	released := 0
	for wi, nw := 0, s.work.NumWords(); wi < nw; wi++ {
		w := s.work.Word(wi)
		base := wi << 6
		for w != 0 {
			u := base + trailingZeros(w)
			w &= w - 1
			l := load[u] - 1
			load[u] = l
			if l == 0 {
				s.work.Clear(u)
				s.nonEmpty--
			} else if int32(l) > s.stepMax {
				s.stepMax = int32(l)
			}
			if visit != nil {
				visit(u)
			}
			released++
		}
	}
	return released
}

// releaseEachDenseW is the dense-mode ReleaseEach: a straight scan, cheaper
// per bin once most bins are occupied. It returns the number of bins it
// leaves empty.
func releaseEachDenseW[L loadElem](load []L, visit func(u int)) int {
	empty := 0
	for u, l := range load {
		if l > 0 {
			l--
			load[u] = l
			if visit != nil {
				visit(u)
			}
		}
		if l == 0 {
			empty++
		}
	}
	return empty
}

// ReleaseUniform removes one ball from every non-empty bin and sends each
// released ball to a destination drawn uniformly from [0, n) — the
// repeated balls-into-bins law — drawing exactly one bounded value per
// released ball, and returns the number of released balls. With a nil
// visit it is ReleaseEach followed by ThrowUniform of the released count,
// which lands the balls. With a non-nil visit it is the per-bin law
// itself: visit(u, dest) is invoked per released bin u in increasing bin
// order, dest drawn by d.Intn and staged by Deposit, one ball at a time,
// and Commit merges them — the independent reference the throw is tested
// against. It stages after the release scan, not inside it: a Deposit
// that widened the cells mid-scan would leave the scan decrementing the
// old ones. The two paths deliver the same arrivals from the same draws:
// the destinations are independent of the bins that released them, and
// arrivals are counts.
func (s *State) ReleaseUniform(d *Drawer, visit func(u, dest int)) int {
	if visit == nil {
		released := s.ReleaseEach(nil)
		s.ThrowUniform(d.src, released)
		return released
	}
	var bins []int
	released := s.ReleaseEach(func(u int) { bins = append(bins, u) })
	for _, u := range bins {
		dest := d.Intn(s.n)
		s.Deposit(dest)
		visit(u, dest)
	}
	return released
}

// throwBlock is the length of ThrowUniform's draw block: 2 KiB of
// destinations, landed while they are still in L1.
const throwBlock = 512

// ThrowUniform lands k balls at destinations drawn uniformly from [0, n)
// by src: the values of k successive src.Uint64n(n) calls, drawn
// throwBlock at a time by one Fill32n each and landed by DepositBatch, so
// it too must follow the round's release. It is the one throw of every
// uniform round — ReleaseUniform's and a single-shard sharded round's, so
// the sequential process's and the sequential Tetris process's — and it
// needs n ≤ 2³¹ (Fill32n's bound).
func (s *State) ThrowUniform(src *rng.Source, k int) {
	s.checkStage("ThrowUniform")
	var blk [throwBlock]int32
	for k > 0 {
		b := blk[:min(k, throwBlock)]
		k -= len(b)
		src.Fill32n(b, uint64(s.n))
		s.DepositBatch(b, 0)
	}
}

// Commit merges the arrivals staged by Deposit and refreshes MaxLoad and
// EmptyBins. It completes the round opened by ReleaseEach/ReleaseUniform.
// The release and the landed arrivals keep the non-empty count exact, so
// a sparse round merges only its touched bins, and a dense round merges
// with a full scan only when something was staged. A dense round with
// nothing staged does no scan: its new maximum is the larger of the old
// maximum − 1 and the largest landed load. A bin that got no arrival ends
// at most at the old maximum − 1, and one that held the old maximum ends
// exactly there; a landed bin's last increment is its final load. This
// holds for any number of arrivals.
func (s *State) Commit() {
	if !s.inRound {
		panic("engine: Commit without Release")
	}
	s.inRound = false
	switch {
	case s.sparse:
		s.commitSparse()
	case len(s.touched) > 0:
		s.commitDense()
	default:
		s.maxLoad = max(s.maxLoad-1, s.stepMax) // stepMax ≥ 0
	}
}

// commitSparse merges only the touched bins. Every bin that can hold a ball
// after the round is a released bin (its post-release load entered
// stepMax), a landed bin (its final load entered stepMax) or a touched
// bin (merged here), so the maximum over all three is the exact new
// maximum.
func (s *State) commitSparse() {
	max := s.stepMax
	start := 0
	for {
		var ov int
		switch s.width {
		case Width8:
			max, ov = commitSparseW(s, s.load8, s.arr8, math.MaxUint8, start, max)
		case Width16:
			max, ov = commitSparseW(s, s.load16, s.arr16, math.MaxUint16, start, max)
		default:
			max, ov = commitSparseW(s, s.load32, s.arr32, math.MaxInt32, start, max)
		}
		if ov < 0 {
			break
		}
		s.widen()
		start = ov
	}
	s.touched = s.touched[:0]
	s.maxLoad = max
}

// commitSparseW merges touched bins from index start, returning the updated
// maximum and the index whose merged load would overflow (the caller widens
// and resumes there; nothing is written for that bin), or −1 when done.
func commitSparseW[L loadElem](s *State, load, arr []L, lim int64, start int, max int32) (int32, int) {
	for i := start; i < len(s.touched); i++ {
		v := s.touched[i]
		old := load[v]
		sum := int64(old) + int64(arr[v])
		if sum > lim {
			return max, i
		}
		arr[v] = 0
		load[v] = L(sum)
		if old == 0 {
			s.work.Set(int(v))
			s.nonEmpty++
		}
		if int32(sum) > max {
			max = int32(sum)
		}
	}
	return max, -1
}

// commitDense merges the staged arrivals with a full scan, which recounts
// the maximum and the empty bins, landed arrivals included.
func (s *State) commitDense() {
	var max int32
	empty := 0
	start := 0
	for {
		var ov int
		switch s.width {
		case Width8:
			if s.kernel == KernelBatched {
				max, empty, ov = commitDense8SWAR(s.load8, s.arr8, start, max, empty)
			} else {
				max, empty, ov = commitDenseW(s.load8, s.arr8, math.MaxUint8, start, max, empty)
			}
		case Width16:
			max, empty, ov = commitDenseW(s.load16, s.arr16, math.MaxUint16, start, max, empty)
		default:
			max, empty, ov = commitDenseW(s.load32, s.arr32, math.MaxInt32, start, max, empty)
		}
		if ov < 0 {
			break
		}
		s.widen()
		start = ov
	}
	s.touched = s.touched[:0]
	s.maxLoad = max
	s.nonEmpty = s.n - empty
}

// commitDenseW merges bins [start, n), returning the running maximum, the
// running empty count, and the bin whose merged load would overflow (the
// caller widens and resumes there), or −1 when the scan completes.
func commitDenseW[L loadElem](load, arr []L, lim int64, start int, max int32, empty int) (int32, int, int) {
	// Two flat conditionals (not one nested block): `l == 0` is a 40/60
	// coin flip in the stationary regime, and this shape lets the compiler
	// emit a branchless increment for it.
	for v := start; v < len(load); v++ {
		sum := int64(load[v]) + int64(arr[v])
		if sum > lim {
			return max, empty, v
		}
		arr[v] = 0
		load[v] = L(sum)
		if int32(sum) > max {
			max = int32(sum)
		}
		if sum == 0 {
			empty++
		}
	}
	return max, empty, -1
}

// Snapshot returns a copy of the load vector (as int32, regardless of the
// storage width) and of the worklist words for checkpointing. The worklist
// is derivable from the loads; serializing both lets Restore cross-check
// them, so a corrupted snapshot is rejected instead of silently resuming
// from an inconsistent state. It must not be called mid-round (between a
// Release* call and Commit).
func (s *State) Snapshot() (loads []int32, work []uint64, err error) {
	if err := s.syncWork("Snapshot"); err != nil {
		return nil, nil, err
	}
	loads = s.LoadsCopy()
	work = make([]uint64, s.work.NumWords())
	for i := range work {
		work[i] = s.work.Word(i)
	}
	return loads, work, nil
}

// AppendLoadBytes appends the load vector at its storage width to dst —
// one byte per bin at Width8, little-endian uint16 or int32 values at
// Width16 and Width32 — and returns the extended slice. It reads the live
// backing array (at Width8 the whole append is one byte copy), so a
// checkpoint writer serializes the loads without an int32 copy of them.
func (s *State) AppendLoadBytes(dst []byte) []byte {
	switch s.width {
	case Width8:
		return append(dst, s.load8...)
	case Width16:
		dst = slices.Grow(dst, 2*s.n)
		for _, l := range s.load16 {
			dst = binary.LittleEndian.AppendUint16(dst, l)
		}
	default:
		dst = slices.Grow(dst, 4*s.n)
		for _, l := range s.load32 {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(l))
		}
	}
	return dst
}

// AppendWorkBytes appends the worklist words (the ones Snapshot copies) to
// dst as little-endian uint64 values and returns the extended slice. Words
// a dense round left stale are rebuilt first. Like Snapshot it must not be
// called mid-round.
func (s *State) AppendWorkBytes(dst []byte) ([]byte, error) {
	if err := s.syncWork("AppendWorkBytes"); err != nil {
		return dst, err
	}
	nw := s.work.NumWords()
	dst = slices.Grow(dst, 8*nw)
	for i := range nw {
		dst = binary.LittleEndian.AppendUint64(dst, s.work.Word(i))
	}
	return dst, nil
}

// syncWork readies the worklist bits for a reader between rounds,
// rebuilding them if a dense round left them stale; op names the caller in
// the mid-round error.
func (s *State) syncWork(op string) error {
	if s.inRound {
		return fmt.Errorf("engine: %s mid-round", op)
	}
	if s.workStale {
		s.rebuildWork()
	}
	return nil
}

// Restore builds a State from a snapshot taken with Snapshot: NewFill over
// loads, then a check that work matches the worklist that pass derived,
// bit for bit, so a corrupted snapshot is rejected instead of resumed. It
// returns the State with its ball count. The storage width is the one a
// fresh State over loads picks; callers restoring a snapshot that
// recorded a wider width apply it with WidenTo afterwards.
func Restore(loads []int32, work []uint64, opts Options) (*State, int64, error) {
	s, balls, err := NewFill(len(loads), CopyFill(loads), opts)
	if err != nil {
		return nil, 0, err
	}
	if len(work) != s.work.NumWords() {
		return nil, 0, fmt.Errorf("engine: Restore with %d worklist words, want %d", len(work), s.work.NumWords())
	}
	for i := range work {
		if work[i] != s.work.Word(i) {
			return nil, 0, fmt.Errorf("engine: worklist word %d inconsistent with loads", i)
		}
	}
	return s, balls, nil
}

// CheckInvariants verifies that the worklist, counters and cached maximum
// agree with the load vector; tests call it after arbitrary rounds.
func (s *State) CheckInvariants() error {
	if err := s.syncWork("CheckInvariants"); err != nil {
		return err
	}
	if s.width < s.minWidth {
		return fmt.Errorf("engine: width %d below floor %d", uint8(s.width), uint8(s.minWidth))
	}
	switch s.width {
	case Width8:
		return checkInvariantsW(s, s.load8, s.arr8)
	case Width16:
		return checkInvariantsW(s, s.load16, s.arr16)
	default:
		return checkInvariantsW(s, s.load32, s.arr32)
	}
}

func checkInvariantsW[L loadElem](s *State, load, arr []L) error {
	var max int32
	nonEmpty := 0
	for u, l := range load {
		if int32(l) < 0 {
			return fmt.Errorf("engine: bin %d negative load %d", u, int32(l))
		}
		if (l > 0) != s.work.Test(u) {
			return fmt.Errorf("engine: worklist bit %d = %v for load %d", u, s.work.Test(u), l)
		}
		if l > 0 {
			nonEmpty++
			if int32(l) > max {
				max = int32(l)
			}
		}
		if arr[u] != 0 {
			return fmt.Errorf("engine: leftover staged arrival at bin %d", u)
		}
	}
	if nonEmpty != s.nonEmpty {
		return fmt.Errorf("engine: nonEmpty %d, counted %d", s.nonEmpty, nonEmpty)
	}
	if max != s.maxLoad {
		return fmt.Errorf("engine: maxLoad %d, counted %d", s.maxLoad, max)
	}
	return nil
}
