package shard

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/shard/transport/local"
)

// Process is the in-process sharded stepper: a Group owning every shard
// of the run, stepped on a persistent local.Pool under one ArrivalRule.
// Each round every non-empty bin releases one ball and the rule decides
// how many balls land uniformly at random — the released ones under
// relaunch (the paper's process), a batch under the Tetris rules. It
// implements engine.Stepper. Create with NewProcess, NewProcessFill or
// NewSequential (any rule) or RestoreProcess (relaunch); Close it to
// release the pool's workers (an abandoned, unclosed process is reaped by
// the garbage collector eventually, but long-lived callers creating many
// processes should Close deterministically; a one-worker process, such as
// a sequential one, starts no goroutine and needs no Close). One Step
// fans out to the workers and joins them before returning, so a *Process
// itself must not be shared between goroutines.
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

// NewProcess builds a sharded process stepping opts.Rule over a copy of
// loads. Shard s draws from rng.NewStream(seed, s); the run is a pure
// function of (seed, len(loads), opts.Shards, opts.Rule). It returns an
// error if loads is empty or contains a negative entry, or the rule is
// invalid.
func NewProcess(loads []int32, seed uint64, opts Options) (*Process, error) {
	return newProcess(len(loads), loadsFill(loads, 0), seedStreams(seed), opts)
}

// NewProcessFill builds the process NewProcess builds, over the n-bin
// start that fill serves, shard by shard (see Fill). It returns an error
// if n < 1, a load is negative, or the rule is invalid.
func NewProcessFill(n int, fill Fill, seed uint64, opts Options) (*Process, error) {
	return newProcess(n, fill, seedStreams(seed), opts)
}

// NewSequential builds the sequential process stepping rule over a copy
// of loads: one shard, stepped on the calling goroutine, that draws each
// round's batch size (under the binomial and poisson rules) and then its
// destinations from src itself (no copy is taken, so draws the caller
// makes from src between rounds move the process's sequence with them).
// With src = rng.NewStream(seed, 0) it is the process NewProcess(loads,
// seed, Options{Shards: 1, Rule: rule}) builds, except that its rounds
// write no process-wide telemetry (no phase timers or spans, no
// rbb_rounds_total): a sequential process is the building block of trial
// loops that export no metrics. It returns an error if loads is empty or
// contains a negative entry, src is nil, or the rule is invalid.
func NewSequential(loads []int32, src *rng.Source, rule ArrivalRule) (*Process, error) {
	if src == nil {
		return nil, errors.New("shard: NewSequential with nil rng source")
	}
	p, err := newProcess(len(loads), loadsFill(loads, 0), fixedStream(src), Options{Shards: 1, Workers: 1, Rule: rule})
	if err != nil {
		return nil, err
	}
	p.g.quiet = true
	return p, nil
}

// fixedStream gives the one shard of a sequential process src.
func fixedStream(src *rng.Source) func(i int) *rng.Source {
	return func(int) *rng.Source { return src }
}

// newProcess builds a process over the n-bin start fill serves, shard i
// drawing from stream(i), stepping opts.Rule.
func newProcess(n int, fill Fill, stream func(i int) *rng.Source, opts Options) (*Process, error) {
	if n < 1 {
		return nil, errors.New("shard: NewProcess with no bins")
	}
	rule, err := opts.Rule.Normalize()
	if err != nil {
		return nil, err
	}
	s, w := opts.resolve(n)
	runner := local.NewPool(s, w)
	g, balls, err := buildGroup(n, s, 0, s, runner, GroupOptions{Width: opts.Width, Kernel: opts.Kernel}, false, freshShards(fill, stream))
	if err != nil {
		runner.Close()
		return nil, err
	}
	return bind(g, w, rule, 0, balls)
}

// RestoreProcess rebuilds a relaunch process from a snapshot taken with
// Snapshot. The shard count comes from the snapshot (opts.Shards is
// ignored — it is part of the saved random law), and opts.Rule must be
// relaunch, the only rule a snapshot resumes; Workers, Width and Kernel
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
	if opts.Rule != (ArrivalRule{}) {
		return nil, fmt.Errorf("shard: RestoreProcess under the %v rule (a snapshot resumes only relaunch)", opts.Rule)
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

// Step advances one synchronous round through Group.Round: release in
// parallel (departures, the rule's arrival count, the first destination
// draws into the exchange rows), drains and further throws in sub-rounds
// of at most roundChunk balls a shard, commit in parallel (last drain,
// local stats), each phase ended by a barrier, then fold the global
// statistics and the ball count.
func (p *Process) Step() {
	p.g.Round(p.arrive)
	p.released, p.staged = p.g.Released(), p.g.Staged()
	p.balls += int64(p.staged) - int64(p.released)
	p.maxLoad, p.empty = p.g.MaxLoad(), p.g.EmptyBins()
	p.round++
	if !p.g.quiet && obs.Enabled() {
		mRounds.Inc()
	}
}

// Run advances the process by k rounds.
func (p *Process) Run(k int64) {
	for i := int64(0); i < k; i++ {
		p.Step()
	}
}

// RunUntil steps until pred returns true or maxRounds steps have elapsed
// (whichever first), and reports whether pred was satisfied. pred is
// evaluated after each step, and once before the first, so a process
// already satisfying it takes no step.
func (p *Process) RunUntil(pred func(*Process) bool, maxRounds int64) bool {
	if pred(p) {
		return true
	}
	for i := int64(0); i < maxRounds; i++ {
		p.Step()
		if pred(p) {
			return true
		}
	}
	return false
}

// ConvergenceTime steps until the maximum load is at most threshold and
// returns the number of rounds taken. ok is false if the bound was not
// reached within maxRounds.
func (p *Process) ConvergenceTime(threshold int32, maxRounds int64) (rounds int64, ok bool) {
	start := p.round
	reached := p.RunUntil(func(q *Process) bool { return q.maxLoad <= threshold }, maxRounds)
	return p.round - start, reached
}

// SetLoads replaces the configuration between rounds — the §4.1
// adversarial model, where in a faulty round an adversary reassigns all
// balls arbitrarily. loads must cover every bin and hold the process's
// balls, and the rule must conserve balls: the adversary reassigns the
// process's balls, which only relaunch keeps from round to round.
// Each shard reloads its own bins (engine.State.Reload, whose storage
// width never narrows); on error nothing changes.
func (p *Process) SetLoads(loads []int32) error {
	if !p.rule.Conserves() {
		return fmt.Errorf("shard: SetLoads under the %v rule", p.rule)
	}
	if len(loads) != p.g.N() {
		return fmt.Errorf("shard: SetLoads with %d bins, want %d", len(loads), p.g.N())
	}
	var balls int64
	for u, l := range loads {
		if l < 0 {
			return fmt.Errorf("shard: SetLoads bin %d negative load %d", u, l)
		}
		balls += int64(l)
	}
	if balls != p.balls {
		return fmt.Errorf("shard: SetLoads with %d balls, want %d", balls, p.balls)
	}
	for i := range p.g.parts {
		sh := &p.g.parts[i]
		if err := sh.state.Reload(loads[sh.base : sh.base+sh.size]); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	p.maxLoad, p.empty = p.g.MaxLoad(), p.g.EmptyBins()
	return nil
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

// EmptyTracker is the Lemma 4 tracker: an engine.Observer, bound to one
// Process, that records the first round at which each bin was empty. It
// draws nothing: it reads the loads once when it is built, then after each
// observed round only the bins that have not emptied yet, so a tracked run
// steps the plain Process's trajectory. Observe it after every round
// (engine.Run does) or step through RunUntilAllEmptied.
type EmptyTracker struct {
	p *Process
	// round is the process's round at the last observation.
	round int64
	// firstEmpty[u] is the first observed round at which bin u was empty,
	// or −1 if it has not been; pending lists the bins still at −1, in
	// increasing order.
	firstEmpty []int64
	pending    []int32
}

// NewEmptyTracker starts tracking p at its current round: every bin empty
// now reads p.Round(), so on a fresh process the initially empty bins
// read 0.
func NewEmptyTracker(p *Process) *EmptyTracker {
	t := &EmptyTracker{p: p, round: p.round, firstEmpty: make([]int64, p.N()), pending: make([]int32, 0, p.NonEmptyBins())}
	for u, l := range p.LoadsCopy() {
		t.firstEmpty[u] = -1
		if l == 0 {
			t.firstEmpty[u] = p.round
		} else {
			t.pending = append(t.pending, int32(u))
		}
	}
	return t
}

// Observe implements engine.Observer for the tracked process, whatever
// stepper it is handed: a bin that had never been empty was non-empty when
// the round began, so if it reads 0 now, it emptied in this round. It
// panics unless the process advanced exactly one round since the last
// observation, since a bin could have emptied in a round it did not see.
func (t *EmptyTracker) Observe(engine.Stepper) {
	if r := t.p.round; r != t.round+1 {
		panic(fmt.Sprintf("shard: EmptyTracker observes round %d after round %d", r, t.round))
	}
	t.round++
	kept := t.pending[:0]
	for _, u := range t.pending {
		if t.p.g.Load(int(u)) == 0 {
			t.firstEmpty[u] = t.round
		} else {
			kept = append(kept, u)
		}
	}
	t.pending = kept
}

// FirstEmptyRound returns the first round at which bin u was empty, or −1
// if it has not emptied yet.
func (t *EmptyTracker) FirstEmptyRound(u int) int64 { return t.firstEmpty[u] }

// AllEmptiedRound returns the first round by which every bin had been
// empty at least once, or −1 if some bin has never emptied (Lemma 4: from
// any start this is at most 5n w.h.p.).
func (t *EmptyTracker) AllEmptiedRound() (int64, bool) {
	if len(t.pending) > 0 {
		return -1, false
	}
	var worst int64
	for _, r := range t.firstEmpty {
		worst = max(worst, r)
	}
	return worst, true
}

// RunUntilAllEmptied steps the process, observing every round, until every
// bin has been empty at least once or maxRounds rounds elapse, and returns
// AllEmptiedRound.
func (t *EmptyTracker) RunUntilAllEmptied(maxRounds int64) (int64, bool) {
	for i := int64(0); len(t.pending) > 0 && i < maxRounds; i++ {
		t.p.Step()
		t.Observe(t.p)
	}
	return t.AllEmptiedRound()
}

// Compile-time checks.
var (
	_ engine.Stepper  = (*Process)(nil)
	_ engine.Observer = (*EmptyTracker)(nil)
)
