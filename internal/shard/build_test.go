package shard

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/shard/transport/local"
)

// TestParallelBuildMatchesOracle: a process built on the pool — each
// worker building its own shards, a chunk at a time — holds exactly the
// state the whole start vector describes, whatever the shard count, the
// worker count and the width floor, and so does its restore. The oracle
// is computed from config.Make's vector: per shard the loads, worklist
// words, storage width and rng state, plus the run's MaxLoad, EmptyBins
// and Balls. n = 20011 gives shards of several fill chunks, all-in-one
// and zipf hold shards past width 8, and S = 7 an uneven partition.
func TestParallelBuildMatchesOracle(t *testing.T) {
	const n, seed = 20011, 29
	for _, g := range config.Generators() {
		loads, err := config.Make(g, n, n, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []int{1, 7, 8} {
			for _, w := range []int{1, 3, 8} {
				for _, floor := range []engine.Width{engine.WidthAuto, engine.Width16} {
					name := fmt.Sprintf("%s S=%d W=%d floor=%v", g, s, w, floor)
					st, err := config.NewStart(g, n, n, rng.New(seed))
					if err != nil {
						t.Fatal(err)
					}
					opts := Options{Shards: s, Workers: w, Width: floor}
					p, err := NewProcessFill(n, st.Fill, seed, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					snap := checkAgainstOracle(t, name, p, loads, seed, floor)
					p.Close()
					r, err := RestoreProcess(snap, opts)
					if err != nil {
						t.Fatalf("%s: restore: %v", name, err)
					}
					checkAgainstOracle(t, name+" restored", r, loads, seed, floor)
					r.Close()
				}
			}
		}
	}
}

// checkAgainstOracle compares p's round-zero state with the one loads
// describes and returns p's snapshot.
func checkAgainstOracle(t *testing.T, name string, p *Process, loads []int32, seed uint64, floor engine.Width) *EngineSnapshot {
	t.Helper()
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	n, s := len(loads), p.Shards()
	var (
		top   int32
		empty int
		balls int64
	)
	for i, sh := range snap.Shards {
		base, size := PartitionStart(n, s, i), PartitionSize(n, s, i)
		want := loads[base : base+size]
		work := make([]uint64, (size+63)/64)
		var shardTop int32
		for u, l := range want {
			balls += int64(l)
			shardTop = max(shardTop, l)
			if l == 0 {
				empty++
			} else {
				work[u/64] |= 1 << (u % 64)
			}
		}
		top = max(top, shardTop)
		if !slices.Equal(sh.Loads, want) || !slices.Equal(sh.Work, work) {
			t.Errorf("%s: shard %d loads or worklist words differ from the oracle's", name, i)
		}
		if wantW := uint8(engine.WidthFor(shardTop, floor)); sh.Width != wantW {
			t.Errorf("%s: shard %d width %d, want %d", name, i, sh.Width, wantW)
		}
		if wantRNG := rng.NewStream(seed, uint64(i)).State(); sh.RNG != wantRNG {
			t.Errorf("%s: shard %d rng state differs from stream %d's", name, i, i)
		}
	}
	if p.MaxLoad() != top || p.EmptyBins() != empty || p.Balls() != balls {
		t.Errorf("%s: max %d empty %d balls %d, want %d %d %d", name, p.MaxLoad(), p.EmptyBins(), p.Balls(), top, empty, balls)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	return snap
}

// TestParallelBuildFailure: with negative loads in shards 5 and 6 of 8,
// built by three workers at once, the build reports shard 5 — the shard
// the sequential loop stopped at — and leaves no pool goroutine behind.
func TestParallelBuildFailure(t *testing.T) {
	const n, s = 8000, 8
	bad := func(i int) int { return PartitionStart(n, s, i) + 3 }
	fill := func(lo int, dst []int32) {
		for u := range dst {
			dst[u] = 1
			if v := lo + u; v == bad(5) || v == bad(6) {
				dst[u] = -1
			}
		}
	}
	before := runtime.NumGoroutine()
	_, err := NewProcessFill(n, fill, 1, Options{Shards: s, Workers: 3})
	if err == nil || !strings.HasPrefix(err.Error(), "shard 5: ") {
		t.Fatalf("build error %v, want one naming shard 5", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed build, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupFromShardsStreams: the streamed source keeps its contract on a
// three-worker pool — next(i) is called exactly once per owned shard, in
// increasing order — and a failing entry stops the build there.
func TestGroupFromShardsStreams(t *testing.T) {
	const n, s, lo, hi = 10007, 8, 1, 7
	p, err := NewProcess(make([]int32, n), 5, Options{Shards: s, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := p.Snapshot()
	p.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, failAt := range []int{-1, 4} {
		var calls []int
		next := func(i int) (ShardSnapshot, error) {
			calls = append(calls, i)
			if i == failAt {
				return ShardSnapshot{}, fmt.Errorf("frame %d lost", i)
			}
			return snap.Shards[i], nil
		}
		runner := local.NewPool(hi-lo, 3)
		g, err := NewGroupFromShards(n, s, lo, hi, next, runner, GroupOptions{})
		wantCalls := []int{1, 2, 3, 4, 5, 6}
		if failAt >= 0 {
			wantCalls = wantCalls[:failAt-lo+1]
			if err == nil || err.Error() != "shard 4: frame 4 lost" {
				t.Errorf("failing entry: %v, want shard 4's error", err)
			}
			runner.Close()
		} else {
			if err != nil {
				t.Fatal(err)
			}
			g.Close()
		}
		if !slices.Equal(calls, wantCalls) {
			t.Errorf("fail at %d: next called for %v, want %v", failAt, calls, wantCalls)
		}
	}
}
