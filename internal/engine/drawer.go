package engine

import "repro/internal/rng"

// Drawer adapts a *rng.Source for the stepping layer: it exposes the same
// bounded draw the engines have always used (Lemire's method via
// Source.Intn) plus a batched form that fills a whole destination slice
// through Source.Fill32n. Batching does not change the draw sequence —
// Fill performs exactly len(dst) bounded draws in order, so a trajectory is
// identical whether destinations are drawn one at a time or in a batch.
// A Drawer is not safe for concurrent use.
type Drawer struct {
	src *rng.Source
}

// NewDrawer wraps src. The Drawer draws directly from src: interleaving
// calls on the Drawer and on src preserves the overall sequence.
func NewDrawer(src *rng.Source) *Drawer {
	return &Drawer{src: src}
}

// Intn returns one uniform draw in [0, n).
func (d *Drawer) Intn(n int) int { return d.src.Intn(n) }

// Fill sets dst[i] to an independent uniform draw in [0, bound) for every
// i, in index order, consuming exactly len(dst) bounded draws.
func (d *Drawer) Fill(dst []int32, bound int) {
	d.src.Fill32n(dst, uint64(bound))
}

// histBlock is the FillHist draw block: 2 KiB of destinations, counted
// while they are still in L1.
const histBlock = 512

// FillHist is Fill fused with a draw histogram: dst[i] receives the i-th
// draw exactly as Fill would produce it, and hist[(dst[i]>>shift)+1] is
// incremented per draw. The batched dense kernel radix-partitions the
// batch right after drawing it; counting each block as soon as it is drawn
// saves rereading the whole batch from memory. The consumed draw sequence
// is identical to Fill's.
func (d *Drawer) FillHist(dst []int32, bound int, hist []int32, shift uint) {
	for len(dst) > 0 {
		blk := dst[:min(len(dst), histBlock)]
		d.src.Fill32n(blk, uint64(bound))
		for _, v := range blk {
			hist[(v>>shift)+1]++
		}
		dst = dst[len(blk):]
	}
}
