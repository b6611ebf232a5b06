// Dense-round kernels.
//
// A dense round is a release scan over every cell, which counts the bins
// it leaves empty, and a throw (ThrowUniform: the released balls'
// destinations drawn in 512-entry blocks and landed in the cells by
// DepositBatch, the same under every kernel), which keeps the maximum and
// the non-empty count as it goes; its Commit does no scan. Arrivals staged
// by Deposit (the per-bin law, the walks, d-choices, the coupling's Tetris
// side) end the round with a commit scan that merges them. The kernels
// differ only in those two scans:
//
//   - the release decrement: the batched kernel decrements every non-empty
//     cell and counts the empty ones without a data-dependent branch
//     (SWAR, 8 cells per word, at Width8; decDenseNZ at Width16/32), the
//     scalar kernel with the per-bin loop;
//   - the Width8 merge of staged arrivals: the batched kernel merges
//     load+arr, zero-detects and max-reduces 8 cells per uint64 word
//     (commitDense8SWAR), the scalar kernel one cell at a time.
//
// A round with a visit callback takes the per-bin loop under either
// kernel: it observes the release in bin order.
// The scalar kernel is the equivalence oracle: TestKernelEquivalence and
// FuzzKernelEquivalence hold both kernels to it, and to the per-bin law.
package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Kernel selects the dense release decrement and the Width8 dense merge.
// The trajectory is independent of it — both kernels draw nothing
// themselves and produce byte-identical states and widening decisions — so
// it lives on the placement plane of spec.RunSpec (excluded from
// ResultKey), with the same contract as transport and width.
type Kernel uint8

const (
	// KernelBatched is the default: the branch-free decrement and the SWAR
	// merge above.
	KernelBatched Kernel = iota
	// KernelScalar is the per-bin dense loop, kept as the equivalence
	// oracle.
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

// decDense is the batched kernel's dense ReleaseEach when nothing observes
// per-bin order: decrement every non-empty bin and return the number of
// bins left empty. The pass has no data-dependent branch — SWAR at Width8,
// decDenseNZ at Width16/32 — so the ~50/50 empty/non-empty pattern of a
// dense round costs no mispredictions.
func (s *State) decDense() int {
	switch s.width {
	case Width8:
		return decDense8SWAR(s.load8)
	case Width16:
		return decDenseNZ(s.load16)
	default:
		return decDenseNZ(s.load32)
	}
}

// decDenseNZ decrements every non-empty bin without branching on the load
// and returns the number of bins it leaves empty: (uint64(l)−1)>>63 is 1
// for an empty bin and 0 for a positive load (loads are never negative),
// tested once to decrement and once on the result to count.
func decDenseNZ[L loadElem](load []L) int {
	empty := 0
	for u, l := range load {
		l -= L(1 - (uint64(l)-1)>>63)
		load[u] = l
		empty += int((uint64(l) - 1) >> 63)
	}
	return empty
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
// number of lanes it leaves zero — decDense at Width8: the popcount of
// zeroMask8 of each decremented word. Decremented lanes hold ≥ 1, so the
// word-wide subtraction never borrows across lanes.
func decDense8SWAR(load []uint8) int {
	empty := 0
	i := 0
	for ; i+8 <= len(load); i += 8 {
		v := binary.LittleEndian.Uint64(load[i:])
		if v == 0 {
			empty += 8
			continue
		}
		v -= (zeroMask8(v) ^ swarH) >> 7
		binary.LittleEndian.PutUint64(load[i:], v)
		empty += bits.OnesCount64(zeroMask8(v))
	}
	for ; i < len(load); i++ {
		if load[i] > 0 {
			load[i]--
		}
		if load[i] == 0 {
			empty++
		}
	}
	return empty
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

// commitDense8SWAR is the Width8 dense merge of the batched kernel: merge
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
