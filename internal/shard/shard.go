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
//	           in per-(src,dst) message buffers.
//	exchange — every buffer reaches its destination shard: in-process
//	           destinations read their source buffers in place, remote
//	           destinations (multi-process transport) receive serialized
//	           copies.
//	commit   — every shard drains the buffers addressed to it (in source
//	           shard order), merges the arrivals into its local State, and
//	           refreshes its local statistics.
//
// After the commit barrier the coordinator folds the per-shard statistics
// into the global MaxLoad/EmptyBins in O(S). No shard ever touches another
// shard's state; the buffers are written only by their source shard during
// release and drained only by their destination shard during commit, with
// the phase barrier ordering the two.
//
// # Transports
//
// The protocol kernel (Group) is placement-agnostic: where the per-shard
// phase work executes is delegated to a transport. In-process, Options.
// Transport selects between a persistent worker pool with shard→worker
// affinity (TransportPool, the default — each shard is stepped by the same
// long-lived goroutine for the engine's lifetime) and per-phase goroutine
// spawning (TransportSpawn, the original behavior). Across processes,
// internal/shard/transport/proc runs shard ranges in worker processes
// connected by pipes. All transports execute the identical protocol, so
// the trajectory never depends on the choice — only wall-clock does.
//
// # Determinism contract
//
// A run is a pure function of (seed, n, S): shard s performs its arrival-
// count draws and then exactly one destination draw per staged ball, in
// local bin order, from its private stream, so neither the number of
// workers, their placement (pool, spawn, processes), nor their scheduling
// can affect the trajectory (Workers and Transport only change wall-clock;
// the P-invariance and transport-invariance tests pin this).
//
// The layer is law-equivalent — NOT trajectory-equivalent — to
// internal/engine: with S shards the destination draws come from S
// independent streams instead of one, so for the same seed the sampled
// path differs from core.Process while the sampled distribution is
// identical (i.i.d. uniform destinations, one per released ball). With
// S = 1 the draw sequence collapses to exactly the sequential one, and the
// equivalence becomes trajectory-exact against a process driven by
// rng.NewStream(seed, 0); the test suite pins both facts.
package shard

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/shard/transport"
	"repro/internal/shard/transport/local"
)

// TransportKind selects the in-process phase-execution transport of an
// Engine. The trajectory is independent of the choice by construction.
type TransportKind int

const (
	// TransportPool is the persistent worker pool with shard→worker
	// affinity (the default): W long-lived goroutines, each stepping a
	// fixed contiguous block of shards for the engine's lifetime, so a
	// shard's working set stays in one core's cache hierarchy and its
	// lazily-faulted pages are first-touched on the stepping worker.
	TransportPool TransportKind = iota
	// TransportSpawn launches fresh goroutines for every phase — the
	// pre-pool behavior, kept as the ablation baseline and for callers
	// that create many short-lived engines.
	TransportSpawn
)

// String returns the flag spelling of the kind.
func (k TransportKind) String() string {
	switch k {
	case TransportPool:
		return "pool"
	case TransportSpawn:
		return "spawn"
	}
	return fmt.Sprintf("TransportKind(%d)", int(k))
}

// ParseTransportKind parses a transport name: "pool" (or empty, the
// default) and "spawn".
func ParseTransportKind(s string) (TransportKind, error) {
	switch s {
	case "", "pool":
		return TransportPool, nil
	case "spawn":
		return TransportSpawn, nil
	}
	return 0, fmt.Errorf("shard: unknown transport %q (want pool|spawn)", s)
}

// newRunner builds the in-process runner for the kind.
func (k TransportKind) newRunner(shards, workers int) (transport.Runner, error) {
	switch k {
	case TransportPool:
		return local.NewPool(shards, workers), nil
	case TransportSpawn:
		return local.NewSpawn(shards, workers), nil
	}
	return nil, fmt.Errorf("shard: unknown transport kind %d", int(k))
}

// Options configures an Engine.
type Options struct {
	// Shards is the number of contiguous bin partitions S (clamped to n).
	// It selects the random law's decomposition: results are a pure
	// function of (seed, n, Shards). 0 means runtime.GOMAXPROCS(0); pass
	// an explicit value for results that reproduce across machines.
	Shards int
	// Workers is the number of goroutines executing shard phases (clamped
	// to Shards). 0 means min(GOMAXPROCS, Shards). The trajectory is
	// independent of Workers.
	Workers int
	// Transport selects the in-process phase transport (default
	// TransportPool). The trajectory is independent of it.
	Transport TransportKind
	// OnEmptied, if non-nil, is invoked during the commit phase for every
	// bin (global index) that was non-empty at the start of the round and
	// is empty after arrivals merge. Calls for bins of one shard arrive in
	// increasing bin order from that shard's worker; calls for bins of
	// different shards may be concurrent, so the callback must only touch
	// per-bin (or otherwise shard-disjoint) state.
	OnEmptied func(u int)
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

// groupOptions lowers the engine-facing options into the group layer.
func (o Options) groupOptions() GroupOptions {
	return GroupOptions{OnEmptied: o.OnEmptied, Width: o.Width, Kernel: o.Kernel}
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

// Engine is the sharded round executor over an in-process transport: a
// Group owning every shard of the run. Create with NewEngine; drive it
// with Step; Close it to release the transport's workers (an abandoned,
// unclosed engine is reaped by the garbage collector eventually, but
// long-lived callers creating many engines should Close deterministically).
// Not safe for concurrent use (each Step internally fans out to the
// transport's workers and joins them before returning).
type Engine struct {
	g       *Group
	workers int

	round    int64
	maxLoad  int32
	empty    int
	released int
	staged   int
}

// NewEngine partitions loads into shards and returns the engine. The
// initial configuration is copied. It returns an error if loads is empty
// or contains a negative entry.
func NewEngine(loads []int32, seed uint64, opts Options) (*Engine, error) {
	n := len(loads)
	if n < 1 {
		return nil, errors.New("shard: NewEngine with no bins")
	}
	s, w := opts.resolve(n)
	runner, err := opts.Transport.newRunner(s, w)
	if err != nil {
		return nil, err
	}
	g, err := NewGroup(n, s, 0, s, loads, seed, runner, opts.groupOptions())
	if err != nil {
		runner.Close()
		return nil, err
	}
	e := &Engine{g: g, workers: w}
	e.refreshStats()
	return e, nil
}

// refreshStats folds the per-shard statistics into the global ones.
func (e *Engine) refreshStats() {
	e.maxLoad = e.g.MaxLoad()
	e.empty = e.g.EmptyBins()
}

// Step advances one synchronous round: release in parallel (departures,
// arrival-count decision, destination draws into the message buffers),
// barrier, commit in parallel (drain buffers, merge, local stats),
// barrier, then fold the global statistics. arrivals must not be nil.
func (e *Engine) Step(arrivals Arrivals) {
	e.g.Release(arrivals)
	e.g.Commit()
	e.released = e.g.Released()
	e.staged = e.g.Staged()
	e.refreshStats()
	e.round++
	mRounds.Inc()
}

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

// EngineSnapshot is the complete deterministic state of an Engine between
// rounds: everything the round protocol reads is either here or derived
// from it, so a restored engine continues the trajectory exactly. It is
// plain data; internal/checkpoint owns the serialized form.
type EngineSnapshot struct {
	N      int
	Round  int64
	Shards []ShardSnapshot
}

// InitialSnapshot builds the round-zero EngineSnapshot of a fresh run —
// exactly the state NewEngine(loads, seed, Options{Shards: shards,
// Width: width}) would snapshot before its first Step — without
// constructing an engine. The proc transport uses it (serialized through
// internal/checkpoint) as the worker join payload; shards follows the
// Options.Shards convention (0 means GOMAXPROCS, clamped to n) and width
// the Options.Width one (the floor of each shard's auto-fitted storage
// width).
func InitialSnapshot(loads []int32, seed uint64, shards int, width engine.Width) (*EngineSnapshot, error) {
	n := len(loads)
	if n < 1 {
		return nil, errors.New("shard: InitialSnapshot with no bins")
	}
	s, _ := Options{Shards: shards}.resolve(n)
	snap := &EngineSnapshot{N: n, Shards: make([]ShardSnapshot, s)}
	base := 0
	for i := range snap.Shards {
		size := PartitionSize(n, s, i)
		part := loads[base : base+size]
		work := make([]uint64, (size+63)/64)
		var max int32
		for u, l := range part {
			if l < 0 {
				return nil, fmt.Errorf("shard: bin %d has negative load %d", base+u, l)
			}
			if l > 0 {
				work[u>>6] |= 1 << uint(u&63)
				if l > max {
					max = l
				}
			}
		}
		snap.Shards[i] = ShardSnapshot{
			RNG:   rng.NewStream(seed, uint64(i)).State(),
			Loads: append([]int32(nil), part...),
			Work:  work,
			Width: uint8(engine.WidthFor(max, width)),
		}
		base += size
	}
	return snap, nil
}

// Snapshot captures the full engine state. Step returns only after both
// phase barriers, so a snapshot taken by the driving goroutine between
// Steps is always a consistent whole-run cut — no draining or quiescing
// protocol is needed beyond "not during a Step call".
func (e *Engine) Snapshot() (*EngineSnapshot, error) {
	snap := &EngineSnapshot{
		N:      e.g.N(),
		Round:  e.round,
		Shards: make([]ShardSnapshot, e.g.Shards()),
	}
	for i := range snap.Shards {
		ss, err := e.g.SnapshotShard(i)
		if err != nil {
			return nil, err
		}
		snap.Shards[i] = ss
	}
	return snap, nil
}

// RestoreEngine rebuilds an engine from a snapshot. The shard count comes
// from the snapshot (opts.Shards is ignored — it is part of the saved
// random law); Workers, Transport and OnEmptied are taken from opts as
// usual. Every structural property is validated: the per-shard slice sizes
// must match the canonical partition of N into len(Shards) shards, the
// worklist words must agree with the loads, and the rng states must be
// valid. The restored engine's Released/Staged read 0 until its first Step
// (the in-flight counters of the pre-snapshot round are not part of the
// trajectory).
func RestoreEngine(snap *EngineSnapshot, opts Options) (*Engine, error) {
	if snap == nil {
		return nil, errors.New("shard: RestoreEngine with nil snapshot")
	}
	s := len(snap.Shards)
	if s < 1 || s > snap.N {
		return nil, fmt.Errorf("shard: snapshot has %d shards for %d bins", s, snap.N)
	}
	opts.Shards = s
	_, w := opts.resolve(snap.N)
	runner, err := opts.Transport.newRunner(s, w)
	if err != nil {
		return nil, err
	}
	g, err := NewGroupFromSnapshot(snap, 0, s, runner, opts.groupOptions())
	if err != nil {
		runner.Close()
		return nil, err
	}
	e := &Engine{g: g, workers: w, round: snap.Round}
	e.refreshStats()
	return e, nil
}

// Group returns the protocol kernel holding every shard of the engine.
// internal/checkpoint reads it (Group.ShardView) to stream a checkpoint
// straight from live shard memory; callers must not step it.
func (e *Engine) Group() *Group { return e.g }

// Close releases the engine's transport resources (the pool's persistent
// workers). The engine must not be stepped afterwards. Idempotent.
func (e *Engine) Close() error { return e.g.Close() }

// N returns the number of bins.
func (e *Engine) N() int { return e.g.N() }

// Shards returns the number of shards S.
func (e *Engine) Shards() int { return e.g.Shards() }

// Workers returns the number of workers used per phase.
func (e *Engine) Workers() int { return e.workers }

// Round returns the number of completed rounds.
func (e *Engine) Round() int64 { return e.round }

// MaxLoad returns the current global maximum bin load.
func (e *Engine) MaxLoad() int32 { return e.maxLoad }

// EmptyBins returns the current global number of empty bins.
func (e *Engine) EmptyBins() int { return e.empty }

// NonEmptyBins returns |W(t)|, the current number of non-empty bins.
func (e *Engine) NonEmptyBins() int { return e.g.N() - e.empty }

// Released returns the number of balls released in the last round (0
// before the first round).
func (e *Engine) Released() int { return e.released }

// Staged returns the number of balls thrown in the last round (0 before
// the first round).
func (e *Engine) Staged() int { return e.staged }

// shardOf returns the shard owning global bin v.
func (e *Engine) shardOf(v int) int { return e.g.ShardOf(v) }

// shardSize returns the bin count of shard i.
func (e *Engine) shardSize(i int) int { return PartitionSize(e.g.N(), e.g.Shards(), i) }

// Load returns the load of global bin u.
func (e *Engine) Load(u int) int32 { return e.g.Load(u) }

// LoadsCopy returns a fresh copy of the full load vector.
func (e *Engine) LoadsCopy() []int32 {
	return e.g.AppendLoads(make([]int32, 0, e.g.N()))
}

// Sum returns the total number of balls currently in the system.
func (e *Engine) Sum() int64 { return e.g.Sum() }

// LoadBytes returns the resident bytes of the engine's load vectors and
// arrival staging areas at their current storage widths — the memory the
// compact representation is accountable for (worklists, buffers and
// scratch are excluded). Deterministic for a given trajectory, so it is
// safe to report in byte-compared summaries.
func (e *Engine) LoadBytes() int64 { return e.g.LoadBytes() }

// ScratchBytes returns the resident bytes of the shards' per-round scratch
// buffers (destination staging, the batched kernel's partition buffer and
// bucket cursors). Unlike LoadBytes it depends on the kernel and on how far
// the run has progressed, so it must never enter byte-compared summaries —
// it exists for memory accounting and the zero-alloc steady-state tests.
func (e *Engine) ScratchBytes() int64 { return e.g.ScratchBytes() }

// CheckInvariants verifies every shard's internal invariants, the
// partition bookkeeping and the aggregated statistics.
func (e *Engine) CheckInvariants() error {
	if err := e.g.CheckInvariants(); err != nil {
		return err
	}
	if max := e.g.MaxLoad(); max != e.maxLoad {
		return fmt.Errorf("shard: aggregate max load %d, shards say %d", e.maxLoad, max)
	}
	if empty := e.g.EmptyBins(); empty != e.empty {
		return fmt.Errorf("shard: aggregate empty count %d, shards say %d", e.empty, empty)
	}
	return nil
}
