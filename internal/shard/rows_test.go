package shard

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/config"
	"repro/internal/rng"
	"repro/internal/shard/transport"
	"repro/internal/shard/transport/local"
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

// TestFirstRoundRowAllocs pins the exchange rows' memory. An in-process
// round throws at most C = roundChunk balls a shard between drains, and
// each shard reserves its out rows once for one such throw, so the first
// round from one-per-bin at S = 8 — every bin releases, 2¹⁷ and 2¹⁹ balls
// a shard — allocates rows for S·C balls, whatever n: under 1.25·S·C·4
// bytes (the reservation's six standard deviations and the allocator's
// page rounding add an eighth to S·C·4, the draw blocks 16 KiB) in at most
// one allocation per row plus the per-shard draw blocks, at n = 2²⁰ and at
// 2²² alike, where Release's whole-round rows take 16.5 MiB at 2²². And a
// sparse all-in-one start, whose arrivals grow round after round, regrows
// its rows geometrically: its first 4 096 rounds at n = 2¹⁶ stay within a
// few allocations per row.
func TestFirstRoundRowAllocs(t *testing.T) {
	const shards = 8
	for _, n := range []int{1 << 20, 1 << 22} {
		st, err := config.NewStart(config.GenOnePerBin, n, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProcessFill(n, st.Fill, 5, Options{Shards: shards, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		bytes, allocs := roundAllocs(p, 1)
		p.Close()
		t.Logf("one-per-bin n=%d S=8: round 1 allocated %d bytes in %d allocations", n, bytes, allocs)
		if limit := uint64(5 * shards * roundChunk); bytes >= limit { // 1.25·S·C·4
			t.Errorf("n=%d: round 1 allocated %d bytes, want < %d", n, bytes, limit)
		}
		if limit := uint64(shards*shards + shards); allocs > limit {
			t.Errorf("n=%d: round 1 made %d allocations, want ≤ %d (one per row plus the draw blocks)", n, allocs, limit)
		}
	}

	const m = 1 << 16
	q, err := NewProcess(config.AllInOne(m, m), 5, Options{Shards: shards, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	bytes, allocs := roundAllocs(q, 4096)
	t.Logf("all-in-one n=2^16 S=8: 4096 rounds allocated %d bytes in %d allocations", bytes, allocs)
	if allocs > 600 {
		t.Errorf("4096 rounds from all-in-one made %d allocations, want ≤ 600", allocs)
	}
}

// TestWholeRoundRowRegrowth: rows that must grow past their reservation
// grow with headroom, so a run switching from sub-round rows to the whole
// rows of Release and Commit (a tcp worker's round) regrows them once. At
// n = 2¹⁴, S = 8, after 65 rounds with C lowered to 64, the first whole
// round regrows each of the S² rows and the next 127 allocate nothing.
// Every allocation is counted (runtime.MemStats.Mallocs), not averaged.
func TestWholeRoundRowRegrowth(t *testing.T) {
	const n, shards, chunk = 1 << 14, 8, 64
	p, err := NewProcess(config.OnePerBin(n), 3, Options{Shards: shards, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.g.setChunk(chunk)
	p.Run(65)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	for r := 1; r <= 128; r++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		p.g.Release(p.arrive)
		p.g.Commit()
		runtime.ReadMemStats(&ms)
		allocs := ms.Mallocs - before
		switch {
		case r == 1 && allocs > shards*shards:
			t.Errorf("whole round 1 made %d allocations, want ≤ %d (one per row)", allocs, shards*shards)
		case r > 1 && allocs != 0:
			t.Errorf("whole round %d made %d allocations, want 0", r, allocs)
		}
	}
}

// rowCheck is a pool that checks the group's exchange rows after every
// phase: no shard's rows hold more than min(k, C) balls, where k is the
// shard's arrival count of the round. It counts the phases.
type rowCheck struct {
	transport.Runner
	t      *testing.T
	g      *Group
	phases int
}

func (r *rowCheck) Run(f func(i int)) {
	r.Runner.Run(f)
	r.phases++
	if r.g == nil { // the build
		return
	}
	for i := range r.g.parts {
		sh := &r.g.parts[i]
		held := 0
		for _, row := range sh.out {
			held += len(row)
		}
		if limit := min(sh.staged, r.g.chunk); held > limit {
			r.t.Fatalf("phase %d: shard %d's rows hold %d balls, want ≤ min(k = %d, C = %d)", r.phases, i, held, sh.staged, r.g.chunk)
		}
	}
}

// TestRoundRowsBounded steps Round on groups whose pool checks the rows
// after every phase, and counts the phases: a round whose largest
// per-shard arrival count is k takes ⌈k/C⌉ throws, so 2·⌈k/C⌉ phases.
// The shapes take the shift router (n = 2¹⁴, S = 8) and the divide router
// (n = 3001, S = 3), from one-per-bin.
func TestRoundRowsBounded(t *testing.T) {
	relaunch := func(_, released int, _ *rng.Source) int { return released }
	for _, tc := range []struct{ n, shards, chunk int }{{1 << 14, 8, 64}, {1 << 14, 8, 1000}, {3001, 3, 7}} {
		run := &rowCheck{Runner: local.NewPool(tc.shards, 2), t: t}
		g, err := NewGroup(tc.n, tc.shards, 0, tc.shards, config.OnePerBin(tc.n), 9, run, GroupOptions{})
		if err != nil {
			t.Fatal(err)
		}
		run.g = g
		g.setChunk(tc.chunk)
		for r := 0; r < 6; r++ {
			run.phases = 0
			g.Round(relaunch)
			k := 0
			for i := range g.parts {
				k = max(k, g.parts[i].staged)
			}
			if want := 2 * max(1, (k+tc.chunk-1)/tc.chunk); run.phases != want {
				t.Errorf("n=%d S=%d C=%d round %d: %d phases for k ≤ %d, want %d", tc.n, tc.shards, tc.chunk, r+1, run.phases, k, want)
			}
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if s := g.Sum(); s != int64(tc.n) {
			t.Fatalf("n=%d S=%d: %d balls after 6 rounds, want %d", tc.n, tc.shards, s, tc.n)
		}
		g.Close()
	}
}

// TestExchangeBallsCounter: rbb_exchange_balls_total counts the
// cross-shard balls a round drains, so an in-process round adds what the
// whole-round path's rows carry between Release and Commit — counted here
// from Outgoing — whatever its sub-round chunk.
func TestExchangeBallsCounter(t *testing.T) {
	const n, shards, seed = 1 << 14, 8, 21
	whole, err := NewProcess(config.OnePerBin(n), seed, Options{Shards: shards, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	var subs []*Process
	for _, c := range []int{0, 64, 7} {
		p, err := NewProcess(config.OnePerBin(n), seed, Options{Shards: shards, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if c > 0 {
			p.g.setChunk(c)
		}
		subs = append(subs, p)
	}
	for r := 1; r <= 20; r++ {
		before := mExchangeBalls.Value()
		whole.g.Release(whole.arrive)
		rows := 0
		for src := 0; src < shards; src++ {
			for dst := 0; dst < shards; dst++ {
				if src != dst {
					rows += len(whole.g.Outgoing(src, dst))
				}
			}
		}
		whole.g.Commit()
		if got := mExchangeBalls.Value() - before; got != uint64(rows) {
			t.Fatalf("round %d: whole-round path counted %d exchanged balls, its rows carried %d", r, got, rows)
		}
		for _, p := range subs {
			before := mExchangeBalls.Value()
			p.Step()
			if got := mExchangeBalls.Value() - before; got != uint64(rows) {
				t.Fatalf("round %d, C = %d: counted %d exchanged balls, the whole-round path %d", r, p.g.chunk, got, rows)
			}
		}
	}
}

// TestRoundNeedsWholeGroup: a group holding some of the shards must ship
// its remote rows between Release and Commit, so Round refuses it.
func TestRoundNeedsWholeGroup(t *testing.T) {
	g, err := NewGroup(64, 4, 1, 3, config.OnePerBin(32), 1, local.NewPool(2, 1), GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	defer func() {
		if r := recover(); r == nil {
			t.Error("Round on shards [1,3) of 4 did not panic")
		}
	}()
	g.Round(func(_, released int, _ *rng.Source) int { return released })
}
