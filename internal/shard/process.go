package shard

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/shard/transport/local"
	"repro/internal/tetris"
)

// Process is the in-process sharded stepper: a Group owning every shard
// of the run, stepped on a persistent local.Pool under one ArrivalRule.
// Each round every non-empty bin releases one ball and the rule decides
// how many balls land uniformly at random — the released ones under
// relaunch (the law of core.Process), a batch under the Tetris rules. It
// implements engine.Stepper. Create with NewProcess or RestoreProcess
// (relaunch) or NewTetris (batch rules); Close it to release the pool's
// workers (an abandoned, unclosed process is reaped by the garbage
// collector eventually, but long-lived callers creating many processes
// should Close deterministically). One Step fans out to the workers and
// joins them before returning, so a *Process itself must not be shared
// between goroutines.
type Process struct {
	g       *Group
	workers int
	rule    ArrivalRule
	arrive  Arrivals

	round    int64
	maxLoad  int32
	empty    int
	released int
	staged   int
	balls    int64
}

// NewProcess builds a sharded repeated balls-into-bins process over a
// copy of loads. Shard s draws from rng.NewStream(seed, s); the run is a
// pure function of (seed, len(loads), opts.Shards). It returns an error if
// loads is empty or contains a negative entry.
func NewProcess(loads []int32, seed uint64, opts Options) (*Process, error) {
	return newProcess(len(loads), loadsFill(loads, 0), seed, opts, ArrivalRule{}, nil)
}

// NewProcessFill is NewProcess over the n-bin start that fill serves,
// built shard by shard (see Fill): the same process NewProcess builds
// over the whole vector.
func NewProcessFill(n int, fill Fill, seed uint64, opts Options) (*Process, error) {
	return newProcess(n, fill, seed, opts, ArrivalRule{}, nil)
}

// newProcess builds a process over the n-bin start fill serves, stepping
// rule, with onEmptied (global bin indices) as the group's OnEmptied hook.
func newProcess(n int, fill Fill, seed uint64, opts Options, rule ArrivalRule, onEmptied func(u int)) (*Process, error) {
	if n < 1 {
		return nil, errors.New("shard: NewProcess with no bins")
	}
	s, w := opts.resolve(n)
	runner := local.NewPool(s, w)
	g, balls, err := buildGroup(n, s, 0, s, runner, GroupOptions{OnEmptied: onEmptied, Width: opts.Width, Kernel: opts.Kernel}, false, freshShards(fill, seed))
	if err != nil {
		runner.Close()
		return nil, err
	}
	return bind(g, w, rule, 0, balls)
}

// RestoreProcess rebuilds a relaunch process from a snapshot taken with
// Snapshot. The shard count comes from the snapshot (opts.Shards is
// ignored — it is part of the saved random law); Workers, Width and Kernel
// are taken from opts as usual (Width is the restore-side floor; a shard
// never restores narrower than its snapshot recorded, so resumed runs
// keep the ratchet). Every structural property is validated: the
// per-shard slice sizes must match the canonical partition of N into
// len(Shards) shards, the worklist words must agree with the loads, and
// the rng states must be valid. Each shard is restored on the pool worker
// that steps it. The restored process continues the trajectory exactly:
// for any round r past the snapshot, its loads are byte-identical to
// those of the uninterrupted run. Its Released/Staged read 0 until its
// first Step (the in-flight counters of the pre-snapshot round are not
// part of the trajectory).
func RestoreProcess(snap *EngineSnapshot, opts Options) (*Process, error) {
	if snap == nil {
		return nil, errors.New("shard: RestoreProcess with nil snapshot")
	}
	s := len(snap.Shards)
	if s < 1 || s > snap.N {
		return nil, fmt.Errorf("shard: snapshot has %d shards for %d bins", s, snap.N)
	}
	if snap.Round < 0 {
		return nil, fmt.Errorf("shard: snapshot round %d < 0", snap.Round)
	}
	opts.Shards = s
	_, w := opts.resolve(snap.N)
	runner := local.NewPool(s, w)
	at := func(i int) (ShardSnapshot, error) { return snap.Shards[i], nil }
	g, balls, err := buildGroup(snap.N, s, 0, s, runner, GroupOptions{Width: opts.Width, Kernel: opts.Kernel}, false, restoredShards(at))
	if err != nil {
		runner.Close()
		return nil, err
	}
	return bind(g, w, ArrivalRule{}, snap.Round, balls)
}

// bind wraps a built group holding balls balls into a process stepping
// rule from round, and folds its starting statistics. A conserving rule
// keeps every ball in play, so all of them must fit one int32 bin. On
// error the group is closed.
func bind(g *Group, workers int, rule ArrivalRule, round, balls int64) (*Process, error) {
	arrive, err := rule.Arrivals(g.N(), g.Shards())
	if err == nil && rule.Conserves() && balls > math.MaxInt32 {
		err = fmt.Errorf("shard: %d balls exceed int32 bin capacity", balls)
	}
	if err != nil {
		g.Close()
		return nil, err
	}
	p := &Process{g: g, workers: workers, rule: rule, arrive: arrive, round: round, balls: balls}
	p.maxLoad, p.empty = g.MaxLoad(), g.EmptyBins()
	return p, nil
}

// Step advances one synchronous round: release in parallel (departures,
// the rule's arrival count, destination draws into the message buffers),
// barrier, commit in parallel (drain buffers, merge, local stats),
// barrier, then fold the global statistics and the ball count.
func (p *Process) Step() {
	p.g.Release(p.arrive)
	p.g.Commit()
	p.released, p.staged = p.g.Released(), p.g.Staged()
	p.balls += int64(p.staged) - int64(p.released)
	p.maxLoad, p.empty = p.g.MaxLoad(), p.g.EmptyBins()
	p.round++
	mRounds.Inc()
}

// Run advances the process by k rounds.
func (p *Process) Run(k int64) {
	for i := int64(0); i < k; i++ {
		p.Step()
	}
}

// Snapshot captures the full process state for checkpointing. Step
// returns only after both phase barriers, so a snapshot taken by the
// driving goroutine between Steps is always a consistent whole-run cut.
// The snapshot does not record the rule: only relaunch runs are
// checkpointed (checkpoint.Run refuses the others), and RestoreProcess
// resumes relaunch.
func (p *Process) Snapshot() (*EngineSnapshot, error) {
	snap := &EngineSnapshot{N: p.g.N(), Round: p.round, Shards: make([]ShardSnapshot, p.g.Shards())}
	for i := range snap.Shards {
		ss, err := p.g.SnapshotShard(i)
		if err != nil {
			return nil, err
		}
		snap.Shards[i] = ss
	}
	return snap, nil
}

// Rule returns the canonical arrival rule the process steps.
func (p *Process) Rule() ArrivalRule { return p.rule }

// Group returns the protocol kernel holding every shard of the run.
// internal/checkpoint reads it (Group.ShardView) to stream a checkpoint
// straight from live shard memory; callers must not step it.
func (p *Process) Group() *Group { return p.g }

// Close releases the pool's persistent workers. The process must not be
// stepped afterwards. Idempotent.
func (p *Process) Close() error { return p.g.Close() }

// N returns the number of bins.
func (p *Process) N() int { return p.g.N() }

// Shards returns the number of shards S.
func (p *Process) Shards() int { return p.g.Shards() }

// Workers returns the number of workers used per phase.
func (p *Process) Workers() int { return p.workers }

// Balls returns the current total number of balls: constant under
// relaunch, moved by every round's batch under the Tetris rules.
func (p *Process) Balls() int64 { return p.balls }

// Round returns the number of completed rounds.
func (p *Process) Round() int64 { return p.round }

// MaxLoad returns the current maximum bin load.
func (p *Process) MaxLoad() int32 { return p.maxLoad }

// EmptyBins returns the current number of empty bins.
func (p *Process) EmptyBins() int { return p.empty }

// NonEmptyBins returns |W(t)|, the current number of non-empty bins.
func (p *Process) NonEmptyBins() int { return p.g.N() - p.empty }

// Released returns the number of balls released in the last round (0
// before the first round).
func (p *Process) Released() int { return p.released }

// Staged returns the number of balls thrown in the last round (0 before
// the first round).
func (p *Process) Staged() int { return p.staged }

// Load returns the load of bin u.
func (p *Process) Load(u int) int32 { return p.g.Load(u) }

// LoadsCopy returns a fresh copy of the current load vector.
func (p *Process) LoadsCopy() []int32 { return p.g.AppendLoads(make([]int32, 0, p.g.N())) }

// LoadBytes returns the resident bytes of the load vectors and arrival
// staging areas at their current storage widths — the memory the compact
// representation is accountable for (worklists, buffers and scratch are
// excluded). Deterministic for a given trajectory, so it is safe to report
// in byte-compared summaries.
func (p *Process) LoadBytes() int64 { return p.g.LoadBytes() }

// CheckInvariants verifies every shard's internal invariants, the
// partition bookkeeping, the aggregated statistics and the ball count.
func (p *Process) CheckInvariants() error {
	if err := p.g.CheckInvariants(); err != nil {
		return err
	}
	if max := p.g.MaxLoad(); max != p.maxLoad {
		return fmt.Errorf("shard: aggregate max load %d, shards say %d", p.maxLoad, max)
	}
	if empty := p.g.EmptyBins(); empty != p.empty {
		return fmt.Errorf("shard: aggregate empty count %d, shards say %d", p.empty, empty)
	}
	if s := p.g.Sum(); s != p.balls {
		return fmt.Errorf("shard: ball counter %d != actual %d", p.balls, s)
	}
	return nil
}

// TetrisOptions configures a sharded Tetris process.
type TetrisOptions struct {
	// Options configures the sharding.
	Options
	// Law is the arrival law (default tetris.Deterministic).
	Law tetris.ArrivalLaw
	// Lambda is the arrival rate per bin; 0 means the paper's 3/4.
	Lambda float64
}

// Tetris is the sharded Tetris / batched-arrival ("leaky bins") process:
// every round each non-empty bin discards one ball and K fresh balls land
// uniformly at random. It is a Process under the batch rule of its law
// (see ArrivalRule.Arrivals for the exact per-shard decomposition: fixed
// quotas summing to K = ⌈λn⌉ under tetris.Deterministic, Binomial(n_s, λ)
// and Poisson(λ·n_s) per shard under tetris.BinomialArrivals and
// tetris.PoissonArrivals), plus the Lemma 4 tracker of the first round at
// which each bin was empty.
type Tetris struct {
	*Process

	// firstEmpty[u] is the first round at which global bin u was empty (0
	// if it started empty), or −1 if it has never been empty. Written only
	// by u's owning shard during commit (disjoint slices ⇒ race-free);
	// perShardNever counts that shard's never-emptied bins.
	firstEmpty    []int64
	perShardNever []int64
}

// NewTetris builds a sharded Tetris process over a copy of loads.
func NewTetris(loads []int32, seed uint64, opts TetrisOptions) (*Tetris, error) {
	return newTetris(len(loads), loadsFill(loads, 0), seed, opts)
}

// NewTetrisFill is NewTetris over the n-bin start that fill serves, built
// shard by shard (see Fill).
func NewTetrisFill(n int, fill Fill, seed uint64, opts TetrisOptions) (*Tetris, error) {
	return newTetris(n, fill, seed, opts)
}

// newTetris builds a Tetris process over the n-bin start fill serves,
// initialising the Lemma 4 tracker from each chunk of the start as the
// chunk's shard is built.
func newTetris(n int, fill Fill, seed uint64, opts TetrisOptions) (*Tetris, error) {
	rule, err := RuleForLaw(opts.Law, opts.Lambda)
	if err != nil {
		return nil, err
	}
	if rule, err = rule.Normalize(); err != nil {
		return nil, err
	}
	t := &Tetris{firstEmpty: make([]int64, max(n, 0))}
	track := func(lo int, dst []int32) {
		fill(lo, dst)
		for u, l := range dst {
			t.firstEmpty[lo+u] = -1
			if l == 0 {
				t.firstEmpty[lo+u] = 0
			}
		}
	}
	if t.Process, err = newProcess(n, track, seed, opts.Options, rule, t.markEmptied); err != nil {
		return nil, err
	}
	t.perShardNever = make([]int64, t.Shards())
	for i := range t.perShardNever {
		sh := &t.g.parts[i]
		t.perShardNever[i] = int64(sh.size - sh.state.EmptyBins())
	}
	return t, nil
}

// markEmptied is the group's OnEmptied hook. It runs during the commit
// phase on the owning shard's worker, while the embedded round still
// counts the rounds before the one in flight; different shards touch
// disjoint firstEmpty entries and their own perShardNever slot.
func (t *Tetris) markEmptied(u int) {
	if t.firstEmpty[u] < 0 {
		t.firstEmpty[u] = t.round + 1
		t.perShardNever[t.g.ShardOf(u)]--
	}
}

// FirstEmptyRound returns the first round at which bin u was empty, or −1
// if it has not emptied yet.
func (t *Tetris) FirstEmptyRound(u int) int64 { return t.firstEmpty[u] }

// AllEmptiedRound returns the first round by which every bin had been
// empty at least once, or −1 if some bin has never emptied (Lemma 4: from
// any start this is at most 5n w.h.p.).
func (t *Tetris) AllEmptiedRound() (int64, bool) {
	for _, c := range t.perShardNever {
		if c > 0 {
			return -1, false
		}
	}
	var worst int64
	for _, r := range t.firstEmpty {
		if r > worst {
			worst = r
		}
	}
	return worst, true
}

// Steppers (compile-time check).
var (
	_ engine.Stepper = (*Process)(nil)
	_ engine.Stepper = (*Tetris)(nil)
)
