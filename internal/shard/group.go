package shard

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/shard/transport"
)

// shardPart is one contiguous partition: a sequential engine.State over the
// local bins, a private RNG stream, and the outgoing message buffers.
type shardPart struct {
	base  int // global index of the first owned bin
	size  int
	state *engine.State
	src   *rng.Source
	// out[d] holds the global destination bins of balls this shard sends
	// to global shard d in the current round. Written by this shard during
	// release; in-process destinations are drained (and reset) by shard d
	// during commit, remote destinations are shipped by the transport
	// between the phases and reset after commit. The phase barrier orders
	// writers and readers.
	out [][]int32
	// blk is the release phase's draw block: destinations are drawn
	// drawBlock at a time and routed while the block is in L1. Allocated on
	// the shard's first release.
	blk *[drawBlock]int32

	released int // release count of the in-flight round
	staged   int // arrival count of the in-flight round
}

// drawBlock is the length of a shard's release draw block (2 KiB).
const drawBlock = 512

// MaxBins is the largest supported bin count, 2³¹: destinations travel as
// int32 bin indices and are drawn by rng.Source.Fill32n, whose bound may
// not exceed 2³¹. Every frontend rejects a larger n before allocating.
const MaxBins = 1 << 31

// Group is the in-process kernel of the round protocol: it holds shards
// [Lo, Hi) of a run partitioned into Shards contiguous shards over N bins,
// and executes the per-shard release and commit phases on them through a
// transport.Runner. The in-process Process steps a Group owning every
// shard; a tcp worker process steps a Group owning a sub-range, with the
// remote legs of the exchange carried by Outgoing/Deliver.
//
// A Group is driven strictly phase-sequentially by one goroutine:
// Release, then (for sub-range groups) ship Outgoing buffers and Deliver
// inbound ones, then Commit. Each phase call returns only after every
// owned shard's work completed — the runner is the phase barrier.
type Group struct {
	n      int // global bins
	s      int // global shard count
	lo, hi int // owned shard range [lo, hi)
	// shift routes a destination to its shard with v >> shift when every
	// shard has the same power-of-two size (the common n = 2^k case);
	// −1 selects the general divide-based router.
	shift  int
	parts  []shardPart // parts[i] is global shard lo+i
	runner transport.Runner

	// inbox[i][src] is the delivered buffer for owned shard lo+i from
	// remote shard src (nil/empty for in-process sources, which are read
	// straight out of their part's out row). Written by Deliver between
	// the phases, drained and reset by Commit.
	inbox [][][]int32

	// The per-shard phase bodies, bound once at build (so a round hands
	// the runner no fresh closure), and the release phase's arrival rule.
	releaseFn, commitFn func(i int)
	arrivals            Arrivals
}

// PartitionSize returns the canonical size of shard i when n bins are
// split into s contiguous shards: the first n mod s shards hold one extra
// bin. It is the single definition of the partition arithmetic —
// checkpoint decoding validates serialized shard sizes against it.
func PartitionSize(n, s, i int) int {
	size := n / s
	if i < n%s {
		size++
	}
	return size
}

// PartitionStart returns the global index of the first bin of shard i
// under the canonical partition of n bins into s shards.
func PartitionStart(n, s, i int) int {
	q, r := n/s, n%s
	if i <= r {
		return i * (q + 1)
	}
	return r*(q+1) + (i-r)*q
}

// GroupOptions carries the per-shard engine configuration into a group's
// states: the OnEmptied callback (invoked with global bin indices), the
// storage-width floor, and the dense-round kernel. Width and Kernel are
// trajectory-neutral; the zero value is the default configuration.
type GroupOptions struct {
	// OnEmptied, if non-nil, is invoked during the commit phase for every
	// bin that was non-empty at the start of the round and is empty after
	// arrivals merge. Calls for bins of one shard arrive in increasing bin
	// order from that shard's worker; calls for bins of different shards
	// may be concurrent, so the callback must only touch per-bin (or
	// otherwise shard-disjoint) state.
	OnEmptied func(u int)
	Width     engine.Width
	Kernel    engine.Kernel
}

// Fill writes the round-zero loads of bins [lo, lo+len(dst)) of a fresh
// run into dst; config.Start.Fill is the one the frontends pass. A group
// built from a Fill asks it for each shard's bins a chunk at a time (see
// engine.NewFill), so it holds neither the whole start nor a whole shard
// of it as an []int32.
type Fill func(lo int, dst []int32)

// NewGroup builds fresh shard states for shards [lo, hi) of a run over n
// bins split into s shards, copying the owned bins from loads (which must
// hold exactly the bins of those shards, i.e. the global range
// [PartitionStart(lo), PartitionStart(hi))). Shard i draws from
// rng.NewStream(seed, i). The group takes ownership of runner and closes it
// with Close.
func NewGroup(n, s, lo, hi int, loads []int32, seed uint64, runner transport.Runner, gopts GroupOptions) (*Group, error) {
	if err := checkGroupRange(n, s, lo, hi); err != nil {
		return nil, err
	}
	off := PartitionStart(n, s, lo)
	if want := PartitionStart(n, s, hi) - off; len(loads) != want {
		return nil, fmt.Errorf("shard: group loads hold %d bins, shards [%d,%d) own %d", len(loads), lo, hi, want)
	}
	g, _, err := buildGroup(n, s, lo, hi, runner, gopts, false, freshShards(loadsFill(loads, off), seed))
	return g, err
}

// loadsFill serves loads, which hold the bins from off on, as a Fill.
func loadsFill(loads []int32, off int) Fill {
	return func(lo int, dst []int32) { copy(dst, loads[lo-off:]) }
}

// NewGroupFromShards builds the kernel for shards [lo, hi) of a run over n
// bins split into s shards from checkpointed entries served one at a
// time: it calls next(i) once per owned shard i, in increasing order, and
// builds shard i from the entry before asking for the next one, keeping
// none of its slices. Each shard's loads, worklist, rng stream and storage
// width are restored with the same structural cross-checks as
// RestoreProcess (gopts.Width is the restore-side floor; a shard never
// restores narrower than its entry recorded, so resumed runs keep the
// ratchet). A multi-process worker builds its range this way as each
// shard's join frame arrives, so it never decodes the whole range first.
// An error from next is returned, decorated with the shard.
func NewGroupFromShards(n, s, lo, hi int, next func(i int) (ShardSnapshot, error), runner transport.Runner, gopts GroupOptions) (*Group, error) {
	g, _, err := buildGroup(n, s, lo, hi, runner, gopts, true, restoredShards(next))
	return g, err
}

// shardBuild makes global shard i's engine state (with eopts) and rng
// stream in its part, and returns the shard's ball count.
type shardBuild func(sh *shardPart, i int, eopts engine.Options) (int64, error)

// freshShards builds the shards of a fresh run over the start fill
// serves; shard i draws from rng.NewStream(seed, i).
func freshShards(fill Fill, seed uint64) shardBuild {
	return func(sh *shardPart, i int, eopts engine.Options) (int64, error) {
		base := sh.base
		st, balls, err := engine.NewFill(sh.size, func(lo int, dst []int32) { fill(base+lo, dst) }, eopts)
		if err != nil {
			return 0, err
		}
		sh.state, sh.src = st, rng.NewStream(seed, uint64(i))
		return balls, nil
	}
}

// restoredShards builds each shard from its checkpointed entry, which at
// serves: the worklist words must match the loads, and the recorded
// storage width is reapplied.
func restoredShards(at func(i int) (ShardSnapshot, error)) shardBuild {
	return func(sh *shardPart, i int, eopts engine.Options) (int64, error) {
		ss, err := at(i)
		if err != nil {
			return 0, err
		}
		if len(ss.Loads) != sh.size {
			return 0, fmt.Errorf("holds %d bins, partition wants %d", len(ss.Loads), sh.size)
		}
		st, balls, err := engine.Restore(ss.Loads, ss.Work, eopts)
		if err != nil {
			return 0, err
		}
		if err := st.WidenTo(engine.Width(ss.Width)); err != nil {
			return 0, err
		}
		src := rng.New(0)
		if err := src.SetState(ss.RNG); err != nil {
			return 0, err
		}
		sh.state, sh.src = st, src
		return balls, nil
	}
}

// buildGroup is behind every group constructor: it makes every owned
// shard with build and returns the group with its ball count.
// The shards are built through the runner, so each one is built — its
// cells first touched — by the worker that will step it; with streamed
// set they are built instead in increasing order on the calling
// goroutine, stopping at the first failure, because build reads a stream.
// A failure reports the lowest failing shard either way. On error the
// runner is left to the caller.
func buildGroup(n, s, lo, hi int, runner transport.Runner, gopts GroupOptions, streamed bool, build shardBuild) (*Group, int64, error) {
	g, err := newGroupFrame(n, s, lo, hi, runner)
	if err != nil {
		return nil, 0, err
	}
	balls := make([]int64, len(g.parts))
	errs := make([]error, len(g.parts))
	one := func(i int) {
		sh := &g.parts[i]
		eopts := engine.Options{Width: gopts.Width, Kernel: gopts.Kernel}
		if onEmptied, base := gopts.OnEmptied, sh.base; onEmptied != nil {
			eopts.OnEmptied = func(u int) { onEmptied(base + u) }
		}
		balls[i], errs[i] = build(sh, lo+i, eopts)
	}
	if streamed {
		for i := range g.parts {
			if one(i); errs[i] != nil {
				break
			}
		}
	} else {
		runner.Run(one)
	}
	var total int64
	for i, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("shard %d: %w", lo+i, err)
		}
		total += balls[i]
	}
	return g, total, nil
}

// newGroupFrame allocates the group skeleton (partition bookkeeping,
// buffers) without shard states.
func newGroupFrame(n, s, lo, hi int, runner transport.Runner) (*Group, error) {
	if err := checkGroupRange(n, s, lo, hi); err != nil {
		return nil, err
	}
	if runner == nil {
		return nil, errors.New("shard: group with nil runner")
	}
	g := &Group{
		n:      n,
		s:      s,
		lo:     lo,
		hi:     hi,
		shift:  -1,
		parts:  make([]shardPart, hi-lo),
		runner: runner,
	}
	g.releaseFn, g.commitFn = g.releaseShard, g.commitShard
	if q, r := n/s, n%s; r == 0 && q&(q-1) == 0 {
		g.shift = bits.TrailingZeros(uint(q))
	}
	for i := range g.parts {
		g.parts[i] = shardPart{
			base: PartitionStart(n, s, lo+i),
			size: PartitionSize(n, s, lo+i),
			out:  make([][]int32, s),
		}
	}
	if lo > 0 || hi < s {
		g.inbox = make([][][]int32, hi-lo)
		for i := range g.inbox {
			g.inbox[i] = make([][]int32, s)
		}
	}
	return g, nil
}

// checkGroupRange validates a group's partition: n bins in [1, MaxBins],
// s shards in [1, n], and a non-empty owned range [lo, hi) inside them.
func checkGroupRange(n, s, lo, hi int) error {
	if n < 1 || n > MaxBins {
		return fmt.Errorf("shard: %d bins outside [1, %d]", n, MaxBins)
	}
	if s < 1 || s > n {
		return fmt.Errorf("shard: %d shards for %d bins", s, n)
	}
	if lo < 0 || hi > s || lo >= hi {
		return fmt.Errorf("shard: group range [%d,%d) outside %d shards", lo, hi, s)
	}
	return nil
}

// ShardOf returns the global shard owning global bin v. The first n mod S
// shards hold q+1 bins, the rest q; with a uniform power-of-two partition
// the lookup is a single shift (the hot path of destination routing).
func (g *Group) ShardOf(v int) int {
	if g.shift >= 0 {
		return v >> g.shift
	}
	q, r := g.n/g.s, g.n%g.s
	big := r * (q + 1)
	if v < big {
		return v / (q + 1)
	}
	return r + (v-big)/q
}

// owns reports whether global shard s is held by this group.
func (g *Group) owns(s int) bool { return s >= g.lo && s < g.hi }

// Release runs the release phase on every owned shard: remove one ball
// from each non-empty bin, decide the shard's arrival count via arrivals,
// draw that many uniform destinations in [0, n) from the shard's private
// stream, and stage them in the per-destination outgoing buffers (with a
// single shard, straight into its state). Returns after the phase barrier.
func (g *Group) Release(arrivals Arrivals) {
	sp := obs.StartSpan("release", obs.LanePhases)
	tm := obs.StartTimer()
	g.arrivals = arrivals
	g.runner.Run(g.releaseFn)
	g.arrivals = nil
	tm.ObserveSeconds(mPhaseRelease)
	sp.End()
}

// releaseShard is owned shard i's release. The destinations are drawn in
// drawBlock blocks — the identical Uint64n sequence, one bulk Fill32n per
// block — and each block is appended to the out rows of its destination
// shards, reserved for the round's k balls before the first draw (see
// reserveRows). With a single shard, routing is the identity: each block
// is staged straight into the state, exactly as Commit would stage the row
// (staged arrivals are counts, so staging them a phase early changes
// nothing), and no row is written or read back.
func (g *Group) releaseShard(i int) {
	sh := &g.parts[i]
	released := sh.state.ReleaseEach(nil)
	k := g.arrivals(g.lo+i, released, sh.src)
	sh.released, sh.staged = released, k
	if k == 0 {
		return
	}
	if sh.blk == nil {
		sh.blk = new([drawBlock]int32)
	}
	bound, out := uint64(g.n), sh.out
	if g.s > 1 {
		g.reserveRows(out, k)
	}
	for k > 0 {
		blk := sh.blk[:min(k, drawBlock)]
		k -= len(blk)
		sh.src.Fill32n(blk, bound)
		switch {
		case g.s == 1:
			sh.state.DepositBatch(blk, 0)
		case g.shift >= 0:
			shift := uint(g.shift)
			for _, v := range blk {
				d := v >> shift
				out[d] = append(out[d], v)
			}
		default:
			for _, v := range blk {
				d := g.ShardOf(int(v))
				out[d] = append(out[d], v)
			}
		}
	}
}

// Row reservation: a row is reserved for its expected arrivals plus
// rowSlack standard deviations plus rowPad.
const (
	rowSlack = 6
	rowPad   = 16
)

// reserveRows readies a shard's out rows for a round that throws k balls.
// Row d receives Binomial(k, size_d/n) of them, so every row is reserved
// once, before the draws, for the largest shard's mean plus rowSlack
// standard deviations, and routing never grows a row ball by ball; append
// stays as the overflow path of a row that draws past its reservation,
// which the slack makes vanishingly rare. Rows are empty between rounds,
// so a short row is replaced rather than copied, by one at least 3/2 its
// capacity: a run whose arrivals grow over many rounds (a sparse start
// densifying) regrows each row O(log n) times, its rows ending below 3/2
// of its largest round, and a warm round, whose rows already fit,
// allocates nothing.
func (g *Group) reserveRows(out [][]int32, k int) {
	mean := float64(k) * float64(PartitionSize(g.n, g.s, 0)) / float64(g.n)
	want := int(mean+rowSlack*math.Sqrt(mean)) + rowPad
	for d, row := range out {
		if cap(row) < want {
			out[d] = make([]int32, 0, max(want, cap(row)+cap(row)/2))
		}
	}
}

// Outgoing returns the staged buffer from owned shard src to global shard
// dst — the remote leg of the exchange. Valid between Release and Commit;
// the caller must not retain the slice past Commit (which resets it).
func (g *Group) Outgoing(src, dst int) []int32 {
	return g.parts[src-g.lo].out[dst]
}

// Deliver stages an inbound exchange buffer from remote shard src to owned
// shard dst, copying it into the group's retained buffer. It must be
// called between Release and Commit, and at most once per (src, dst) pair
// per round.
func (g *Group) Deliver(src, dst int, buf []int32) {
	i := dst - g.lo
	g.inbox[i][src] = append(g.inbox[i][src][:0], buf...)
}

// Commit runs the commit phase on every owned shard: drain the buffers
// addressed to it — in global source-shard order, in-process sources read
// directly, remote sources from the delivered inbox — merge the arrivals,
// and refresh the shard statistics. After the phase barrier the
// remote-destined outgoing buffers (already shipped by the transport) are
// reset for the next round.
func (g *Group) Commit() {
	sp := obs.StartSpan("commit", obs.LanePhases)
	tm := obs.StartTimer()
	g.runner.Run(g.commitFn)
	if g.lo > 0 || g.hi < g.s {
		for i := range g.parts {
			out := g.parts[i].out
			for d := range out {
				if !g.owns(d) {
					out[d] = out[d][:0]
				}
			}
		}
	}
	tm.ObserveSeconds(mPhaseCommit)
	sp.End()
}

// commitShard is owned shard i's commit.
func (g *Group) commitShard(i int) {
	sh := &g.parts[i]
	d := g.lo + i
	base := int32(sh.base)
	count := obs.Enabled()
	balls, msgs := 0, 0
	for s := 0; s < g.s; s++ {
		var buf []int32
		if g.owns(s) {
			buf = g.parts[s-g.lo].out[d]
			sh.state.DepositBatch(buf, base)
			g.parts[s-g.lo].out[d] = buf[:0]
		} else {
			buf = g.inbox[i][s]
			sh.state.DepositBatch(buf, base)
			g.inbox[i][s] = buf[:0]
		}
		if count && len(buf) > 0 && s != d {
			balls += len(buf)
			msgs++
		}
	}
	sh.state.Commit()
	if count {
		// One atomic add per shard per round, never per ball.
		mExchangeBalls.Add(uint64(balls))
		mExchangeMsgs.Add(uint64(msgs))
	}
}

// N returns the global number of bins.
func (g *Group) N() int { return g.n }

// Shards returns the global shard count S.
func (g *Group) Shards() int { return g.s }

// Lo returns the first owned shard.
func (g *Group) Lo() int { return g.lo }

// Hi returns the shard after the last owned one.
func (g *Group) Hi() int { return g.hi }

// MaxLoad returns the maximum load over the owned shards. Valid between
// rounds (after Commit).
func (g *Group) MaxLoad() int32 {
	var max int32
	for i := range g.parts {
		if m := g.parts[i].state.MaxLoad(); m > max {
			max = m
		}
	}
	return max
}

// EmptyBins returns the number of empty bins over the owned shards. Valid
// between rounds (after Commit).
func (g *Group) EmptyBins() int {
	empty := 0
	for i := range g.parts {
		empty += g.parts[i].state.EmptyBins()
	}
	return empty
}

// Released returns the number of balls the owned shards released in the
// last round (0 before the first). Valid from Release on.
func (g *Group) Released() int {
	t := 0
	for i := range g.parts {
		t += g.parts[i].released
	}
	return t
}

// Staged returns the number of balls the owned shards threw in the last
// round (0 before the first). Valid from Release on.
func (g *Group) Staged() int {
	t := 0
	for i := range g.parts {
		t += g.parts[i].staged
	}
	return t
}

// Sum returns the total number of balls currently in the owned shards.
func (g *Group) Sum() int64 {
	var t int64
	for i := range g.parts {
		t += g.parts[i].state.Sum()
	}
	return t
}

// Load returns the load of global bin u, which must be owned by the group.
func (g *Group) Load(u int) int32 {
	sh := &g.parts[g.ShardOf(u)-g.lo]
	return sh.state.Load(u - sh.base)
}

// AppendLoads appends the owned shards' loads (in global bin order) to dst
// and returns the extended slice.
func (g *Group) AppendLoads(dst []int32) []int32 {
	for i := range g.parts {
		dst = g.parts[i].state.AppendLoads(dst)
	}
	return dst
}

// LoadBytes returns the resident bytes of the owned shards' load vectors
// and staging areas at their current storage widths.
func (g *Group) LoadBytes() int64 {
	var t int64
	for i := range g.parts {
		t += g.parts[i].state.LoadBytes()
	}
	return t
}

// SnapshotShard captures the checkpoint state of owned shard s (global
// id). Valid between rounds.
func (g *Group) SnapshotShard(s int) (ShardSnapshot, error) {
	sh := &g.parts[s-g.lo]
	loads, work, err := sh.state.Snapshot()
	if err != nil {
		return ShardSnapshot{}, fmt.Errorf("shard %d: %w", s, err)
	}
	return ShardSnapshot{RNG: sh.src.State(), Loads: loads, Work: work, Width: uint8(sh.state.Width())}, nil
}

// ShardView is one owned shard's checkpoint state read in place: the
// fields of its ShardSnapshot, with the loads and worklist words appended
// straight from live memory instead of copied out as []int32/[]uint64.
// Valid between rounds, until the group's next Release.
type ShardView struct {
	RNG   [4]uint64 // rng stream state
	Width uint8     // storage width of the loads, in bits
	Size  int       // owned bins
	state *engine.State
}

// ShardView returns the in-place checkpoint view of owned shard s (global
// id).
func (g *Group) ShardView(s int) ShardView {
	sh := &g.parts[s-g.lo]
	return ShardView{RNG: sh.src.State(), Width: uint8(sh.state.Width()), Size: sh.size, state: sh.state}
}

// AppendLoads appends the shard's loads at its storage width (see
// engine.State.AppendLoadBytes).
func (v ShardView) AppendLoads(dst []byte) []byte { return v.state.AppendLoadBytes(dst) }

// AppendWork appends the shard's worklist words, little-endian, rebuilding
// them first if a dense round left them stale (see
// engine.State.AppendWorkBytes).
func (v ShardView) AppendWork(dst []byte) ([]byte, error) { return v.state.AppendWorkBytes(dst) }

// CheckInvariants verifies every owned shard's internal invariants and the
// partition bookkeeping, including that no staged exchange buffer leaked
// past its round.
func (g *Group) CheckInvariants() error {
	for i := range g.parts {
		sh := &g.parts[i]
		if want := PartitionStart(g.n, g.s, g.lo+i); sh.base != want {
			return fmt.Errorf("shard: shard %d base %d, want %d", g.lo+i, sh.base, want)
		}
		if err := sh.state.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", g.lo+i, err)
		}
		for d, buf := range sh.out {
			if len(buf) != 0 {
				return fmt.Errorf("shard: leftover %d staged balls %d→%d", len(buf), g.lo+i, d)
			}
		}
	}
	for i := range g.inbox {
		for s, buf := range g.inbox[i] {
			if len(buf) != 0 {
				return fmt.Errorf("shard: leftover %d delivered balls %d→%d", len(buf), s, g.lo+i)
			}
		}
	}
	return nil
}

// Close releases the group's runner. The group must not be used
// afterwards.
func (g *Group) Close() error { return g.runner.Close() }
