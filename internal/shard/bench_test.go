package shard

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rng"
)

// obsSetEnabledForBench flips the global telemetry switch for one benchmark
// and restores the default (enabled) afterwards, so the Obs pair never
// leaks state into the other benchmarks or tests in the package.
func obsSetEnabledForBench(b *testing.B, on bool) {
	b.Helper()
	obs.SetEnabled(on)
	b.Cleanup(func() { obs.SetEnabled(true) })
}

// The recorded comparison (BENCH_shard.json, CI bench-smoke): the sharded
// engine against the sequential internal/engine path at n = 2²², on the
// balanced (dense regime) and all-in-one (sparse regime) starts, with the
// shard count held fixed at 8 while the worker count varies — so the W1 vs
// WMax pair isolates pure parallel speedup on identical work.
const (
	benchN      = 1 << 22
	benchShards = 8
)

func benchSharded(b *testing.B, loads []int32, workers int) {
	p, err := NewProcess(loads, 1, Options{Shards: benchShards, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.SetBytes(int64(len(loads)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

func benchSequential(b *testing.B, loads []int32) {
	p, err := core.NewProcess(loads, rng.NewStream(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(loads)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

func BenchmarkShardBalancedW1(b *testing.B) {
	benchSharded(b, config.OnePerBin(benchN), 1)
}

func BenchmarkShardBalancedWMax(b *testing.B) {
	benchSharded(b, config.OnePerBin(benchN), runtime.GOMAXPROCS(0))
}

func BenchmarkSeqBalanced(b *testing.B) {
	benchSequential(b, config.OnePerBin(benchN))
}

func BenchmarkShardAllInOneW1(b *testing.B) {
	benchSharded(b, config.AllInOne(benchN, benchN), 1)
}

func BenchmarkShardAllInOneWMax(b *testing.B) {
	benchSharded(b, config.AllInOne(benchN, benchN), runtime.GOMAXPROCS(0))
}

func BenchmarkSeqAllInOne(b *testing.B) {
	benchSequential(b, config.AllInOne(benchN, benchN))
}

// The persistent pool at the two shapes of the recorded transport ablation
// (BENCH_pool.json, EXPERIMENTS E23): many short phases (small bins per
// shard, S = 64, where per-phase fixed costs are a visible fraction of the
// round) and the big-n shape of the recorded BENCH_shard.json comparison.
const (
	ablateSmallN = 1 << 16
	ablateShards = 64
)

func benchPool(b *testing.B, n, shards int) {
	p, err := NewProcess(config.OnePerBin(n), 1,
		Options{Shards: shards, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

// The storage-width ablation pair (BENCH_compact.json): the identical
// dense balanced round stepped with loads held in uint8 cells (the auto
// steady state — max load is Θ(log n) w.h.p.) versus a pinned int32 floor,
// the pre-compaction representation. Same trajectory, 4× less load-vector
// traffic per round at width 8.
func benchWidth(b *testing.B, w engine.Width) {
	p, err := NewProcess(config.OnePerBin(benchN), 1,
		Options{Shards: benchShards, Workers: 1, Width: w})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.SetBytes(int64(benchN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

func BenchmarkShardDenseWidth8(b *testing.B) {
	benchWidth(b, engine.Width8)
}

func BenchmarkShardDenseWidth32(b *testing.B) {
	benchWidth(b, engine.Width32)
}

// The instrumentation-overhead pair (BENCH_obs.json): the recorded dense
// balanced round with the obs metrics/span hot paths enabled (the default)
// versus globally disabled. The design target is <2% — a handful of atomic
// adds per phase, one add per shard per round for the exchange tallies,
// never per-ball work.
func BenchmarkShardBalancedObsOff(b *testing.B) {
	obsSetEnabledForBench(b, false)
	benchSharded(b, config.OnePerBin(benchN), runtime.GOMAXPROCS(0))
}

func BenchmarkShardBalancedObsOn(b *testing.B) {
	obsSetEnabledForBench(b, true)
	benchSharded(b, config.OnePerBin(benchN), runtime.GOMAXPROCS(0))
}

func BenchmarkShardPoolSmallS64(b *testing.B) {
	benchPool(b, ablateSmallN, ablateShards)
}

func BenchmarkShardPoolBigS8(b *testing.B) {
	benchPool(b, benchN, benchShards)
}
