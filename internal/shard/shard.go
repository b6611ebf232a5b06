// Package shard is the data-parallel single-run engine: it executes one
// synchronous balls-into-bins round across multiple cores by partitioning
// the bins into contiguous shards, so a single run scales to n = 10⁷–10⁸
// bins — the regime where the paper's Θ(log n) max-load plateau (and the
// tight constants of Los & Sauerwald 2022) become visually unambiguous.
//
// # Partitioning
//
// The n bins are split into S contiguous shards of near-equal size (the
// first n mod S shards hold one extra bin). Shard s owns its slice of the
// load vector wrapped in its own engine.State — bitset worklist, local
// MaxLoad/EmptyBins and the hybrid sparse/dense round execution all come
// from the sequential stepping layer — plus an independent deterministic
// RNG stream rng.NewStream(seed, s).
//
// # Round protocol
//
// A round runs in two parallel phases separated by barriers:
//
//	release  — every shard removes one ball from each of its non-empty
//	           bins, decides its arrival count, draws that many uniform
//	           destinations in [0, n) from its own stream, and stages them
//	           in per-(src,dst) message buffers, each reserved once per
//	           round for its expected share of the draws.
//	exchange — every buffer reaches its destination shard: in-process
//	           destinations read their source buffers in place, remote
//	           destinations (multi-process transport) receive serialized
//	           copies.
//	commit   — every shard drains the buffers addressed to it (in source
//	           shard order), landing the arrivals in its local State's
//	           load cells, and refreshes its local statistics.
//
// After the commit barrier the coordinator folds the per-shard statistics
// into the global MaxLoad/EmptyBins in O(S). No shard ever touches another
// shard's state; the buffers are written only by their source shard during
// release and drained only by their destination shard during commit, with
// the phase barrier ordering the two.
//
// # Building
//
// Every group is built by one function, and every shard state by one
// engine constructor (engine.NewFill) that reads the shard's bins a fixed
// chunk at a time and, in the same pass, validates and stores them,
// sets the worklist words and counts the non-empty bins, maximum load and
// balls. A fresh shard reads its chunks from a Fill — the caller's loads
// (NewGroup, NewProcess, NewSequential) or the start's range form
// (NewProcessFill) — and a restored one from its snapshot entry
// (RestoreProcess, NewGroupFromShards). Where the source is random
// access, the shards are built through the runner: each pool worker
// builds, and so first touches, exactly the shards it will step, all
// workers at once. The streamed source of a multi-process worker
// (NewGroupFromShards) is read in shard order, one join frame at a time,
// so its shards are built in that order on the calling goroutine. A
// fresh run therefore never holds its start, nor a whole shard of it, as
// an []int32; its resident memory is the compact shard state plus one
// round of in-flight destinations. The multi-process coordinator's join
// frames are the exception: InitialShards serves each shard's entry from
// one shard-sized scratch, because a frame carries the shard's loads.
//
// # Transports
//
// The protocol kernel (Group) is placement-agnostic: where the per-shard
// phase work executes is delegated to a transport. In process it is the
// persistent worker pool with shard→worker affinity (local.Pool): each
// shard is stepped by the same long-lived goroutine for the process's
// lifetime. Across processes, internal/shard/transport/tcp runs shard
// ranges in worker processes — self-spawned on loopback or daemons on
// other hosts — each stepping its range on its own pool. All transports
// execute the identical protocol, so the trajectory never depends on the
// choice — only wall-clock does.
//
// # Steppers
//
// One type steps a whole run in process, sequential or sharded: Process,
// a Group owning every shard, driven by the ArrivalRule of its Options.
// The rule's Arrivals closure decides each shard's arrival count, so the
// paper's process (relaunch), the §3.3 Tetris device (quota) and the
// leaky-bins batches (binomial, poisson) are one synchronous round under
// different rules. Process is the in-process twin of tcp.Engine, which
// steps the same rules across worker processes. NewProcess, NewProcessFill
// and NewSequential step any rule, and spec.Build runs NewProcessFill on
// the pool for every process kind; RestoreProcess resumes relaunch.
// NewSequential builds the sequential process — one shard, one worker, no
// goroutine, drawing from the caller's rng.Source — that the experiments,
// the rbb facade and the §4.1 adversary step. Its group is quiet: a round
// writes no process-wide telemetry, so many sequential trials stepped in
// parallel share no cache line per round. The Lemma 4 first-emptying
// rounds are an observer's (EmptyTracker): it reads the loads between
// rounds and draws nothing, so a tracked run steps the plain trajectory.
//
// # Determinism contract
//
// A run is a pure function of (seed, n, S): shard s performs its arrival-
// count draws and then exactly one destination draw per staged ball, in
// local bin order, from its private stream, so neither the number of
// workers, their placement (pool, processes), nor their scheduling can
// affect the trajectory (Workers only changes wall-clock; the P-invariance
// and transport-invariance tests pin this).
//
// The sharded run is law-equivalent — NOT trajectory-equivalent — to the
// sequential one: with S shards the destination draws come from S
// independent streams instead of one, so for the same seed the sampled
// path differs while the sampled distribution is identical (i.i.d.
// uniform destinations, one per released ball). With S = 1 the draw
// sequence collapses to the sequential one: NewProcess(loads, seed,
// Options{Shards: 1, Rule: rule}) steps the trajectory of
// NewSequential(loads, rng.NewStream(seed, 0), rule). The sequential
// process draws each round's
// batch size (under the binomial and poisson rules) and then one uniform
// destination per arrival; FuzzSteppers replays exactly those draws
// through the update rule on plain loads and checks every round against
// the steppers, and the law cross-check compares S > 1 with S = 1 in
// distribution.
package shard

import (
	"errors"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/engine"
	"repro/internal/rng"
)

// Options configures a Process.
type Options struct {
	// Rule is the arrival rule every round steps (default: relaunch, the
	// paper's process). It is part of the random law: results are a pure
	// function of (seed, n, Shards, Rule).
	Rule ArrivalRule
	// Shards is the number of contiguous bin partitions S (clamped to n).
	// It selects the random law's decomposition: results are a pure
	// function of (seed, n, Shards). 0 means runtime.GOMAXPROCS(0); pass
	// an explicit value for results that reproduce across machines.
	Shards int
	// Workers is the number of goroutines executing shard phases (clamped
	// to Shards). 0 means min(GOMAXPROCS, Shards). The trajectory is
	// independent of Workers.
	Workers int
	// Width is the per-shard load-storage floor (default engine.WidthAuto:
	// each shard stores at the narrowest width fitting its loads and widens
	// on demand). The trajectory is independent of it; only memory and the
	// recorded snapshot widths depend on it.
	Width engine.Width
	// Kernel selects the dense-round implementation of every shard's state
	// (default engine.KernelBatched). The trajectory is independent of it;
	// only speed depends on it.
	Kernel engine.Kernel
}

// resolve clamps the shard and worker counts against n.
func (o Options) resolve(n int) (s, w int) {
	s = o.Shards
	if s <= 0 {
		s = runtime.GOMAXPROCS(0)
	}
	if s > n {
		s = n
	}
	w = o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > s {
		w = s
	}
	return s, w
}

// Arrivals decides how many uniformly-placed balls shard s contributes in
// the round that just released `released` balls from s's bins. It runs in
// the release phase on s's worker and may draw from src (the shard's
// private stream); those draws precede the destination draws in the
// shard's sequence. It must not retain src.
type Arrivals func(s, released int, src *rng.Source) int

// ShardSnapshot is the checkpointed state of one shard: its private rng
// stream, its local load slice, its local worklist words (the latter are
// derivable from the loads; carrying both lets restore cross-check them)
// and its storage width. The width is part of the deterministic state — the
// engine-level ratchet may hold a shard wider than its current values
// require, and a resumed run must keep that width so later snapshots stay
// byte-identical to the uninterrupted run's. Width 0 means "unrecorded"
// (format v1 checkpoints): restore re-derives the narrowest fitting width.
type ShardSnapshot struct {
	RNG   [4]uint64
	Loads []int32
	Work  []uint64
	Width uint8
}

// EngineSnapshot is the complete deterministic state of a sharded run
// between rounds: everything the round protocol reads is either here or
// derived from it, so a restored process continues the trajectory exactly.
// It is plain data; internal/checkpoint owns the serialized form.
type EngineSnapshot struct {
	N      int
	Round  int64
	Shards []ShardSnapshot
}

// InitialSnapshot builds the round-zero EngineSnapshot of a fresh run —
// exactly the state NewProcess(loads, seed, Options{Shards: shards,
// Width: width}) would snapshot before its first Step — without
// constructing a process. shards follows the Options.Shards convention (0
// means GOMAXPROCS, clamped to n) and width the Options.Width one (the
// floor of each shard's auto-fitted storage width).
func InitialSnapshot(loads []int32, seed uint64, shards int, width engine.Width) (*EngineSnapshot, error) {
	n := len(loads)
	if n < 1 {
		return nil, errors.New("shard: InitialSnapshot with no bins")
	}
	s, at := InitialShards(n, func(lo int, dst []int32) { copy(dst, loads[lo:]) }, seed, shards, width)
	snap := &EngineSnapshot{N: n, Shards: make([]ShardSnapshot, s)}
	for i := range snap.Shards {
		ss, err := at(i)
		if err != nil {
			return nil, err
		}
		ss.Loads = slices.Clone(ss.Loads)
		snap.Shards[i] = ss
	}
	return snap, nil
}

// InitialShards serves the round-zero snapshot of a fresh run over the
// n ≥ 1 bins fill serves, one shard at a time: it resolves the shard count
// S as InitialSnapshot does and returns it with a function yielding entry
// i — the entry InitialSnapshot would hold, except that its Loads live in
// a scratch, sized for the first (largest) shard, that the next call
// reuses. The multi-process coordinator encodes each worker's join frames
// from it, so a fresh multi-process run never holds its whole start.
func InitialShards(n int, fill Fill, seed uint64, shards int, width engine.Width) (int, func(i int) (ShardSnapshot, error)) {
	s, _ := Options{Shards: shards}.resolve(n)
	var scratch []int32
	return s, func(i int) (ShardSnapshot, error) {
		base, size := PartitionStart(n, s, i), PartitionSize(n, s, i)
		if cap(scratch) < size {
			scratch = make([]int32, size)
		}
		loads := scratch[:size]
		fill(base, loads)
		work := make([]uint64, (size+63)/64)
		var max int32
		for u, l := range loads {
			if l < 0 {
				return ShardSnapshot{}, fmt.Errorf("shard: bin %d has negative load %d", base+u, l)
			}
			if l > 0 {
				work[u>>6] |= 1 << uint(u&63)
				if l > max {
					max = l
				}
			}
		}
		return ShardSnapshot{
			RNG:   rng.NewStream(seed, uint64(i)).State(),
			Loads: loads,
			Work:  work,
			Width: uint8(engine.WidthFor(max, width)),
		}, nil
	}
}
