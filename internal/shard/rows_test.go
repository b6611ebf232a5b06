package shard

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/config"
)

// roundAllocs returns the bytes and allocations of rounds Steps of p.
// Collection is off meanwhile: a cycle running during the rounds adds the
// runtime's own small allocations to the count.
func roundAllocs(p *Process, rounds int) (bytes, allocs uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.Run(int64(rounds))
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestFirstRoundRowAllocs pins the exchange rows' memory. Each shard
// reserves its out rows once per round for the round's arrivals, so the
// first round from one-per-bin at n = 2²⁰, S = 8 — every bin releases —
// allocates the rows it needs, 4n bytes plus slack, once: at most one
// allocation per row plus the per-shard draw blocks, where growing the
// rows ball by ball allocated 16.6 MiB in over a thousand allocations.
// And a sparse all-in-one start, whose arrivals grow round after round,
// regrows its rows geometrically: its first 4 096 rounds at n = 2¹⁶ stay
// within a few allocations per row.
func TestFirstRoundRowAllocs(t *testing.T) {
	const n = 1 << 20
	p, err := NewProcess(config.OnePerBin(n), 5, Options{Shards: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bytes, allocs := roundAllocs(p, 1)
	p.Close()
	t.Logf("one-per-bin n=2^20 S=8: round 1 allocated %d bytes in %d allocations", bytes, allocs)
	if limit := uint64(5 * n); bytes >= limit { // 1.25 × 4n
		t.Errorf("round 1 allocated %d bytes, want < %d", bytes, limit)
	}
	if limit := uint64(8*8 + 8); allocs > limit {
		t.Errorf("round 1 made %d allocations, want ≤ %d (one per row plus the draw blocks)", allocs, limit)
	}

	const m = 1 << 16
	q, err := NewProcess(config.AllInOne(m, m), 5, Options{Shards: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	bytes, allocs = roundAllocs(q, 4096)
	t.Logf("all-in-one n=2^16 S=8: 4096 rounds allocated %d bytes in %d allocations", bytes, allocs)
	if allocs > 600 {
		t.Errorf("4096 rounds from all-in-one made %d allocations, want ≤ 600", allocs)
	}
}
