// Dense-round kernels.
//
// The stationary regime of the paper's process (λ near 1, m = n) spends
// almost every cycle in the dense release/commit scan, and the scalar loop's
// cost there is dominated by one random write per ball into an arrival
// staging area of up to n cells — a latency-bound pointer chase once the
// state outgrows the last-level cache (1 GiB at the n = 2³⁰ scale of
// E23/E24). The batched kernel restructures the round so every pass streams
// memory sequentially:
//
//  1. a tight decrement pass over the load vector that counts releasing bins
//     (SWAR, 8 cells per word, at Width8; branch-free at Width16/32);
//  2. one Drawer.Fill bulk draw for all destinations — exactly the released
//     count of bounded draws, in bin order, so the consumed RNG sequence is
//     identical to the scalar loop's (the sparse path has always used Fill
//     under the same contract);
//  3. when the staging area is large enough to thrash the dTLB (more than
//     directSegMax segments), a radix partition of the destinations by high
//     bits into ~4 MiB segments, then per-segment staging into arr — every
//     segment's stores land in a ~1024-page window, so the scatter becomes
//     TLB- and cache-resident (staged arrivals are commutative counts; see
//     DESIGN.md §2.13 for why the reordering is trajectory-neutral); below
//     the threshold the batch is staged directly in draw order;
//  4. a SWAR commit at Width8 that merges load+arr, zero-detects and
//     max-reduces 8 cells per uint64 word.
//
// The historical one-pass loop is kept as KernelScalar — the equivalence
// oracle (FuzzKernelEquivalence diffs final checkpoints) and the fallback
// for callers that observe mid-round order (a non-nil visit callback).
package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Kernel selects the dense-round implementation. The trajectory is
// independent of it — both kernels consume the identical draw sequence and
// produce byte-identical states and widening decisions — so it lives on the
// placement plane of spec.RunSpec (excluded from ResultKey), with the same
// contract as transport and width.
type Kernel uint8

const (
	// KernelBatched is the default: the cache-blocked batched round above.
	KernelBatched Kernel = iota
	// KernelScalar is the historical one-pass dense loop, kept as the
	// equivalence oracle and as the path for mid-round observers.
	KernelScalar
)

// String returns the flag spelling of the kernel.
func (k Kernel) String() string {
	switch k {
	case KernelBatched:
		return "batched"
	case KernelScalar:
		return "scalar"
	}
	return fmt.Sprintf("kernel(%d)", uint8(k))
}

// ParseKernel parses a kernel name: "batched" (or empty) or "scalar".
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "", "batched":
		return KernelBatched, nil
	case "scalar":
		return KernelScalar, nil
	}
	return 0, fmt.Errorf("engine: unknown kernel %q (want batched|scalar)", s)
}

// valid reports whether k is one of the defined Kernel values.
func (k Kernel) valid() bool {
	return k == KernelBatched || k == KernelScalar
}

// segmentShift returns the radix-partition shift for the width: destinations
// sharing their high bits above the shift land in one segment of arr
// spanning ≈4 MiB (2^22 uint8 cells, 2^21 uint16, 2^20 int32) — ~1024
// base pages, so a segment's staging stores stay dTLB- and cache-resident
// even when arr itself is orders of magnitude larger.
func segmentShift(w Width) uint {
	switch w {
	case Width8:
		return 22
	case Width16:
		return 21
	default:
		return 20
	}
}

// directSegMax is the partition threshold. The partition costs one extra
// read+write of the whole destination batch (the counting-sort scatter,
// whose bucket-cursor updates serialize through store-to-load forwarding);
// with nb ≤ directSegMax segments the staging area is close enough to the
// segment budget that direct draw-order staging is already TLB-resident
// and the scatter cannot pay for itself. Measured on the recording box
// (BENCH_kernel.json): direct wins up to 4 segments, partitioned wins from
// 8 segments up.
const directSegMax = 4

// kernelSegShift and kernelDirectSegMax are the live partition policy —
// variables only so kernel tests can shrink the segments and drive the
// partitioned path at unit-test sizes. The trajectory is policy-independent
// (DESIGN.md §2.13); only speed depends on these.
var (
	kernelSegShift     = segmentShift
	kernelDirectSegMax = directSegMax
)

// releaseUniformDenseBatched is the batched dense ReleaseUniform (nil-visit
// callers only; a visit callback observes the scalar loop's interleaved
// order, so those rounds take the scalar path regardless of kernel).
func (s *State) releaseUniformDenseBatched(d *Drawer) int {
	// Pass 1: decrement every non-empty bin, counting releases.
	released := s.decDense()
	if released == 0 {
		return 0
	}
	// Pass 2: one bulk draw — released bounded draws in bin order, the
	// identical RNG consumption of the scalar loop. When the state spans
	// more than one segment the draw is fused with the partition histogram
	// (pass 3) so the batch is read once, not twice.
	if cap(s.dests) < released {
		s.dests = make([]int32, s.n)
	}
	dests := s.dests[:released]
	// Pass 3: partition by destination segment, then stage segment by
	// segment so the stores stay cache-resident.
	seq := s.drawPartitioned(d, dests)
	start := 0
	for {
		var ov int
		switch s.width {
		case Width8:
			ov = stageDenseW(s.arr8, math.MaxUint8, seq, start)
		case Width16:
			ov = stageDenseW(s.arr16, math.MaxUint16, seq, start)
		default:
			ov = stageDenseW(s.arr32, math.MaxInt32, seq, start)
		}
		if ov < 0 {
			break
		}
		s.widen()
		start = ov
	}
	return released
}

// decDense is pass 1 of the batched round and the whole dense ReleaseEach
// when nothing observes per-bin order: decrement every non-empty bin and
// return the number of releases. Without an OnEmptied callback the pass has
// no data-dependent branch — SWAR at Width8, decDenseNZ at Width16/32 — so
// the ~50/50 empty/non-empty pattern of a dense round costs no
// mispredictions.
func (s *State) decDense() int {
	if s.onEmptied != nil {
		// Emptied bins are tracked in increasing bin order, the order the
		// scalar loop reports them in.
		switch s.width {
		case Width8:
			return releaseEachDenseW(s, s.load8, nil)
		case Width16:
			return releaseEachDenseW(s, s.load16, nil)
		default:
			return releaseEachDenseW(s, s.load32, nil)
		}
	}
	switch s.width {
	case Width8:
		return decDense8SWAR(s.load8)
	case Width16:
		return decDenseNZ(s.load16)
	default:
		return decDenseNZ(s.load32)
	}
}

// decDenseNZ decrements every non-empty bin without branching on the load:
// nz is 1 for a positive load and 0 for an empty bin (uint64(l)−1 has its
// top bit set only when l = 0; loads are never negative).
func decDenseNZ[L loadElem](load []L) int {
	released := 0
	for u, l := range load {
		nz := 1 - int((uint64(l)-1)>>63)
		load[u] = l - L(nz)
		released += nz
	}
	return released
}

// drawPartitioned draws len(dests) destinations (the exact Fill sequence)
// and returns them reordered so destinations sharing a segment (high bits
// ≥ segmentShift) are contiguous, preserving the relative order within
// each segment (a stable counting sort, histogram fused into the draw
// loop). Returns dests itself — unpartitioned, in draw order — when the
// state spans at most directSegMax segments. The reordering only changes
// the order arrivals are staged in; staged arrivals are commutative
// counts, so the post-round state and the widening decision are unchanged
// (DESIGN.md §2.13).
func (s *State) drawPartitioned(d *Drawer, dests []int32) []int32 {
	shift := kernelSegShift(s.width)
	nb := ((s.n - 1) >> shift) + 1
	if nb <= kernelDirectSegMax {
		d.Fill(dests, s.n)
		return dests
	}
	if cap(s.bucketOff) < nb+1 {
		s.bucketOff = make([]int32, nb+1)
	}
	off := s.bucketOff[:nb+1]
	clear(off)
	// Histogram into off[b+1] while drawing, prefix-sum so off[b] becomes
	// bucket b's write cursor, then scatter.
	d.FillHist(dests, s.n, off, shift)
	for i := 1; i <= nb; i++ {
		off[i] += off[i-1]
	}
	if cap(s.dests2) < len(dests) {
		s.dests2 = make([]int32, s.n)
	}
	out := s.dests2[:len(dests)]
	for _, v := range dests {
		b := v >> shift
		out[off[b]] = v
		off[b]++
	}
	return out
}

// stageDenseW stages the partitioned destinations from index start,
// returning the index whose staged count would overflow the current width
// (the caller widens and resumes there; nothing is staged for that index),
// or −1 when done. Dense rounds skip the touched list — commitDense drains
// arr wholesale and never reads it.
func stageDenseW[L loadElem](arr []L, lim L, seq []int32, start int) int {
	for i := start; i < len(seq); i++ {
		v := seq[i]
		a := arr[v]
		if a == lim {
			return i
		}
		arr[v] = a + 1
	}
	return -1
}

// SWAR constants: the per-byte high-bit mask and its complement.
const (
	swarH = uint64(0x8080808080808080)
	swarL = ^swarH // 0x7f7f7f7f7f7f7f7f
)

// zeroMask8 returns the high bit of every all-zero byte lane of v — exact
// (no inter-lane carries: v&^swarH keeps each lane ≤ 0x7f, so lane sums stay
// ≤ 0xfe). Per lane: the high bit of (v&0x7f)+0x7f is set iff the low seven
// bits are non-zero; OR-ing v back in folds the lane's own high bit; the
// complement's high bit is therefore set iff the lane is zero.
func zeroMask8(v uint64) uint64 {
	return ^(((v &^ swarH) + swarL) | v) & swarH
}

// decDense8SWAR decrements every non-zero byte lane of load and returns the
// number of lanes decremented — decDense at Width8.
// Decremented lanes hold ≥ 1, so the word-wide subtraction never borrows
// across lanes.
func decDense8SWAR(load []uint8) int {
	released := 0
	i := 0
	for ; i+8 <= len(load); i += 8 {
		v := binary.LittleEndian.Uint64(load[i:])
		if v == 0 {
			continue
		}
		nz := zeroMask8(v) ^ swarH
		binary.LittleEndian.PutUint64(load[i:], v-(nz>>7))
		released += bits.OnesCount64(nz)
	}
	for ; i < len(load); i++ {
		if load[i] > 0 {
			load[i]--
			released++
		}
	}
	return released
}

// maxU8x8 returns the lane-wise unsigned max of two words of byte lanes.
// t's lanes hold (x&0x7f)+0x80−(y&0x7f) ∈ [0x01, 0xff] — no inter-lane
// borrow — and t's high bit is set iff the low seven bits of x are ≥ y's.
// Combining with the lanes' own high bits yields the full unsigned x<y
// mask, which selects y's lanes.
func maxU8x8(x, y uint64) uint64 {
	t := ((x &^ swarH) | swarH) - (y &^ swarH)
	lt := ((^x & y) | (^(x ^ y) & ^t)) & swarH
	mask := (lt >> 7) * 0xff
	return x ^ ((x ^ y) & mask)
}

// foldMax8 folds a word of byte lanes into the running scalar maximum.
func foldMax8(max int32, w uint64) int32 {
	for ; w != 0; w >>= 8 {
		if b := int32(w & 0xff); b > max {
			max = b
		}
	}
	return max
}

// commitDense8SWAR is the Width8 dense commit of the batched kernel: merge
// load+arr, zero arr, count empties and max-reduce, 8 cells per word. Same
// contract as commitDenseW — returns the running maximum, the running empty
// count, and the cell whose merged load would overflow uint8 (the caller
// widens and resumes there; nothing is written for that cell), or −1 when
// the scan completes. A word with a lane carry falls back to the scalar
// loop for that word, which finds the exact overflowing cell.
func commitDense8SWAR(load, arr []uint8, start int, max int32, empty int) (int32, int, int) {
	n := len(load)
	head := start + (-start & 7)
	if head > n {
		head = n
	}
	v := start
	for ; v < head; v++ {
		sum := int32(load[v]) + int32(arr[v])
		if sum > math.MaxUint8 {
			return max, empty, v
		}
		arr[v] = 0
		load[v] = uint8(sum)
		if sum > max {
			max = sum
		}
		if sum == 0 {
			empty++
		}
	}
	var maxw uint64
	for ; v+8 <= n; v += 8 {
		l := binary.LittleEndian.Uint64(load[v:])
		a := binary.LittleEndian.Uint64(arr[v:])
		sum := l
		if a != 0 {
			// Lane-safe byte add: sum the low seven bits of every lane,
			// then XOR the high bits (with their carries) back in.
			sum = ((l &^ swarH) + (a &^ swarH)) ^ ((l ^ a) & swarH)
			// Full-adder carry out of each lane's high bit: a set bit means
			// that lane's true sum exceeds 0xff.
			carry := ((l & a) | ((l | a) &^ sum)) & swarH
			if carry != 0 {
				max = foldMax8(max, maxw)
				maxw = 0
				for u := v; u < v+8; u++ {
					sc := int32(load[u]) + int32(arr[u])
					if sc > math.MaxUint8 {
						return max, empty, u
					}
					arr[u] = 0
					load[u] = uint8(sc)
					if sc > max {
						max = sc
					}
					if sc == 0 {
						empty++
					}
				}
				continue
			}
			binary.LittleEndian.PutUint64(load[v:], sum)
			binary.LittleEndian.PutUint64(arr[v:], 0)
		}
		empty += bits.OnesCount64(zeroMask8(sum))
		maxw = maxU8x8(maxw, sum)
	}
	max = foldMax8(max, maxw)
	for ; v < n; v++ {
		sum := int32(load[v]) + int32(arr[v])
		if sum > math.MaxUint8 {
			return max, empty, v
		}
		arr[v] = 0
		load[v] = uint8(sum)
		if sum > max {
			max = sum
		}
		if sum == 0 {
			empty++
		}
	}
	return max, empty, -1
}
