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
	// to global shard d. Written by this shard when it throws; in-process
	// destinations are drained (and reset) by shard d, remote destinations
	// are shipped by the transport between the phases and reset after
	// commit. The phase barrier orders writers and readers.
	out [][]int32
	// blk is the throw's draw block when there are several shards:
	// destinations are drawn drawBlock at a time and routed while the
	// block is in L1. Allocated on the shard's first release.
	blk *[drawBlock]int32

	released int // release count of the in-flight round
	staged   int // arrival count of the in-flight round
	left     int // balls of the in-flight round not yet thrown

	// Cross-shard balls and non-empty rows this shard drained in the
	// in-flight round, added to the exchange counters at its commit.
	exchBalls, exchRows int
}

// drawBlock is the length of a shard's throw draw block (2 KiB).
const drawBlock = 512

// roundChunk is C, the most balls a shard throws into its rows between two
// drains of an in-process round (see Round): a shard's rows hold at most
// 512 KiB of destinations, S·C·4 bytes over the group, whatever n. Each
// drain lands its balls in the load cells of every shard again, so a
// smaller C costs round time; EXPERIMENTS.md (E29, "bounded exchange rows") has the sweep
// that fixed it.
const roundChunk = 1 << 17

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
// A Group is driven strictly phase-sequentially by one goroutine: Round
// on a group owning every shard; Release, then (for sub-range groups)
// ship Outgoing buffers and Deliver inbound ones, then Commit, on any
// group. Each phase call returns only after every owned shard's work
// completed — the runner is the phase barrier.
type Group struct {
	n      int         // global bins
	s      int         // global shard count
	lo, hi int         // owned shard range [lo, hi)
	route  router      // global bin → global shard, for the throw and ShardOf
	parts  []shardPart // parts[i] is global shard lo+i
	runner transport.Runner

	// inbox[i][src] is the delivered buffer for owned shard lo+i from
	// remote shard src (nil/empty for in-process sources, which are read
	// straight out of their part's out row). Written by Deliver between
	// the phases, drained and reset by Commit.
	inbox [][][]int32

	// The per-shard phase bodies, bound once at build (so a round hands
	// the runner no fresh closure), the release phase's arrival rule, and
	// the most balls a shard throws between drains in the round in flight:
	// chunk (C, roundChunk) under Round, all of them under Release.
	releaseFn, throwFn, drainFn, commitFn func(i int)
	arrivals                              Arrivals
	chunk, limit                          int

	// quiet groups (a sequential process's) write no process-wide
	// telemetry: no phase span, timer or histogram, no round count. Trial
	// loops stepping sequential processes in parallel so share no cache
	// line per round, whatever obs.Enabled says.
	quiet bool
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
// states: the storage-width floor and the dense-round kernel. Both are
// trajectory-neutral; the zero value is the default configuration.
type GroupOptions struct {
	Width  engine.Width
	Kernel engine.Kernel
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
	g, _, err := buildGroup(n, s, lo, hi, runner, gopts, false, freshShards(loadsFill(loads, off), seedStreams(seed)))
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
// serves; shard i draws from stream(i).
func freshShards(fill Fill, stream func(i int) *rng.Source) shardBuild {
	return func(sh *shardPart, i int, eopts engine.Options) (int64, error) {
		base := sh.base
		st, balls, err := engine.NewFill(sh.size, func(lo int, dst []int32) { fill(base+lo, dst) }, eopts)
		if err != nil {
			return 0, err
		}
		sh.state, sh.src = st, stream(i)
		return balls, nil
	}
}

// seedStreams gives shard i of a seeded run rng.NewStream(seed, i).
func seedStreams(seed uint64) func(i int) *rng.Source {
	return func(i int) *rng.Source { return rng.NewStream(seed, uint64(i)) }
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
	eopts := engine.Options{Width: gopts.Width, Kernel: gopts.Kernel}
	one := func(i int) {
		balls[i], errs[i] = build(&g.parts[i], lo+i, eopts)
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
		route:  newRouter(n, s),
		parts:  make([]shardPart, hi-lo),
		runner: runner,
		chunk:  roundChunk,
	}
	g.releaseFn, g.throwFn, g.drainFn, g.commitFn = g.releaseShard, g.throwShard, g.drainShard, g.commitShard
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

// router maps a global bin to the global shard that owns it under the
// canonical partition (PartitionStart): the first r = n mod S shards hold
// q+1 bins and the rest q, where q = ⌊n/S⌋. A group builds one and routes
// every throw and every ShardOf through it, with no divide: a shift when
// every shard holds the same power-of-two count (r = 0, the common n = 2^k
// case), else a reciprocal multiply for each kind of shard and a
// branch-free select between the two. Four words, so a copy in a local
// lives in registers through the throw loop.
type router struct {
	// shift is log₂ q on the shift path, −1 on the general one.
	shift int
	// r, and the reciprocals of q+1 and q (see general).
	r, cBig, cSmall uint64
}

// newRouter builds the router of n bins split into s shards (1 ≤ s ≤ n ≤
// MaxBins, so every bin and every count fits 31 bits).
func newRouter(n, s int) router {
	q, r := n/s, n%s
	if r == 0 && q&(q-1) == 0 {
		return router{shift: bits.TrailingZeros(uint(q))}
	}
	return router{shift: -1, r: uint64(r), cBig: recip(q + 1), cSmall: recip(q)}
}

// recip is general's c for a divisor d ≥ 1: ⌊(2⁶⁴−1)/(2d)⌋ + 1.
func recip(d int) uint64 { return math.MaxUint64/(2*uint64(d)) + 1 }

// of returns the global shard of bin v.
func (rt router) of(v int32) int {
	if rt.shift >= 0 {
		return int(v >> rt.shiftCount())
	}
	return rt.general(v)
}

// shiftCount is the shift path's count, masked. The mask lets the compiler
// prove the count below 32, so it drops Go's shift-range saturation
// (CMP/SBB/NOT/OR before the SAR, and moving the row's cap out of CX and
// back) from every ball. In the throw loop at n = 2²², S = 8 that cost
// 2.1 of 3.1 ns a ball, draw excluded (EXPERIMENTS.md E29, "the exchange
// router"). shift ≤ 31, so the mask changes no value.
func (rt router) shiftCount() uint { return uint(rt.shift) & 31 }

// general routes bin v when the shift cannot. The shard of x is
// ⌊x/(q+1)⌋ while that is below r, and r + ⌊(x − r(q+1))/q⌋ = ⌊(x−r)/q⌋
// from there on. Each quotient is one multiply: with D = 2d and
// c = ⌊(2⁶⁴−1)/D⌋ + 1, ⌊x/d⌋ = ⌊2x/D⌋ = mulhi(2x, c) exactly for every
// 2x < 2³² and D ≥ 2 (Lemire, Kaser and Kurz, "Faster Remainder by Direct
// Computation", 2019). Doubling spares d = 1 (q = 1, S < n < 2S), whose c
// would not fit 64 bits, a case of its own. Both quotients are computed
// and one is picked by a borrow, since at r ≠ 0 a branch would go each
// way at random ball by ball.
func (rt router) general(v int32) int {
	x := uint64(uint32(v))
	onBig, _ := bits.Mul64(x<<1, rt.cBig)
	onSmall, _ := bits.Mul64((x-rt.r)<<1, rt.cSmall) // x < r wraps; then unused
	lt := uint64(int64(onBig-rt.r) >> 63)            // all ones iff onBig < r
	return int(onSmall ^ (onSmall^onBig)&lt)
}

// ShardOf returns the global shard owning global bin v, through the same
// router as the throw.
func (g *Group) ShardOf(v int) int { return g.route.of(int32(v)) }

// owns reports whether global shard s is held by this group.
func (g *Group) owns(s int) bool { return s >= g.lo && s < g.hi }

// Release runs the release phase on every owned shard: remove one ball
// from each non-empty bin, decide the shard's arrival count via arrivals,
// draw that many uniform destinations in [0, n) from the shard's private
// stream, and stage them in the per-destination outgoing buffers (with a
// single shard, land them straight in its state). Returns after the phase
// barrier.
// The rows hold the whole round's balls until Commit, so the transport can
// ship the remote ones in between.
func (g *Group) Release(arrivals Arrivals) {
	g.arrivals, g.limit = arrivals, math.MaxInt
	observe(mPhaseRelease, g.phase("release", g.releaseFn))
	g.arrivals = nil
}

// Round steps one whole round of a group that owns every shard — the
// in-process round — in sub-rounds that bound the exchange rows. The
// release phase runs ReleaseEach, the arrival count k and a first throw of
// at most C = roundChunk balls per shard into the rows; while any shard has
// balls left, a drain phase (every shard lands the rows addressed to it in
// its load cells, in source order, and empties them) alternates with a
// throw phase (every shard draws its next ≤ C destinations); the commit
// phase lands the last rows and commits. A shard's rows so hold at most
// min(k, C) balls, where Release's hold all k. The trajectory is Release's
// then Commit's: each shard draws the same values in the same order, every
// ReleaseEach ends before the first drain, and landed arrivals are counts
// with an order-independent widen. rbb_phase_seconds counts the throws as
// release and the drains as commit.
func (g *Group) Round(arrivals Arrivals) {
	if g.lo > 0 || g.hi < g.s {
		panic("shard: Round on a group that does not own every shard")
	}
	g.arrivals, g.limit = arrivals, g.chunk
	release := g.phase("release", g.releaseFn)
	commit := 0.0
	for g.throwing() {
		commit += g.phase("drain", g.drainFn)
		release += g.phase("throw", g.throwFn)
	}
	commit += g.phase("commit", g.commitFn)
	g.arrivals = nil
	if !g.quiet {
		observe(mPhaseRelease, release)
		observe(mPhaseCommit, commit)
	}
}

// phase runs fn on every owned shard — one protocol phase, ended by the
// runner's barrier — under a span named name, and returns its wall-clock
// seconds (0 with metrics off or in a quiet group, which opens no span).
func (g *Group) phase(name string, fn func(i int)) float64 {
	if g.quiet {
		g.runner.Run(fn)
		return 0
	}
	sp := obs.StartSpan(name, obs.LanePhases)
	tm := obs.StartTimer()
	g.runner.Run(fn)
	sp.End()
	return tm.Seconds()
}

// observe records a round's seconds in a phase histogram, with metrics on.
func observe(h *obs.Histogram, seconds float64) {
	if obs.Enabled() {
		h.Observe(seconds)
	}
}

// throwing reports whether any shard has balls of the round in flight left
// to throw.
func (g *Group) throwing() bool {
	for i := range g.parts {
		if g.parts[i].left > 0 {
			return true
		}
	}
	return false
}

// releaseShard is owned shard i's release. With a single shard, routing
// is the identity: the state throws the round's k balls itself
// (engine.State.ThrowUniform), landing them exactly as Commit would land
// the row (arrivals are counts, so landing them a phase early changes
// nothing), and no row is written or read back. With more, the
// rows are reserved for the balls one throw routes (see reserveRows)
// before the shard's first throw.
func (g *Group) releaseShard(i int) {
	sh := &g.parts[i]
	released := sh.state.ReleaseEach(nil)
	k := g.arrivals(g.lo+i, released, sh.src)
	sh.released, sh.staged = released, k
	if g.s == 1 {
		sh.state.ThrowUniform(sh.src, k)
		return
	}
	if k == 0 {
		return
	}
	if sh.blk == nil {
		sh.blk = new([drawBlock]int32)
	}
	sh.left = k
	g.reserveRows(sh.out, min(k, g.limit))
	g.throwShard(i)
}

// throwShard draws owned shard i's next min(left, limit) destinations in
// drawBlock blocks — the identical Uint64n sequence, one bulk Fill32n per
// block — and appends each block to the out rows of its destination
// shards. Each router path has its own loop: testing the path per ball
// cost 3–10% of a W = 1, S = 8 round at n = 2²² and 2²² − 3.
func (g *Group) throwShard(i int) {
	sh := &g.parts[i]
	k := min(sh.left, g.limit)
	sh.left -= k
	bound, out, rt := uint64(g.n), sh.out, g.route
	for k > 0 {
		blk := sh.blk[:min(k, drawBlock)]
		k -= len(blk)
		sh.src.Fill32n(blk, bound)
		if rt.shift >= 0 {
			shift := rt.shiftCount()
			for _, v := range blk {
				d := v >> shift
				out[d] = append(out[d], v)
			}
			continue
		}
		for _, v := range blk {
			d := rt.general(v)
			out[d] = append(out[d], v)
		}
	}
}

// Row reservation: a row is reserved for its expected arrivals plus
// rowSlack standard deviations plus rowPad.
const (
	rowSlack = 6
	rowPad   = 16
)

// reserveRows readies a shard's out rows for a throw of k balls. Row d
// receives Binomial(k, size_d/n) of them, so every row is reserved once,
// before the draws, for the largest shard's mean plus rowSlack standard
// deviations, and routing never grows a row ball by ball; append stays as
// the overflow path of a row that draws past its reservation, which the
// slack makes vanishingly rare. Rows are empty between throws, so a short
// row is replaced rather than copied. A row's first sizing is exactly the
// reservation; a row that already had capacity and must grow gets 3/2 of
// it, so a run whose throws grow over many rounds (a sparse start
// densifying, or sub-round rows meeting whole-round ones) regrows each
// row O(log n) times, and a warm round, whose rows already fit, allocates
// nothing.
func (g *Group) reserveRows(out [][]int32, k int) {
	mean := float64(k) * float64(PartitionSize(g.n, g.s, 0)) / float64(g.n)
	want := int(mean+rowSlack*math.Sqrt(mean)) + rowPad
	for d, row := range out {
		switch {
		case cap(row) >= want:
		case cap(row) == 0:
			out[d] = make([]int32, 0, want)
		default:
			out[d] = make([]int32, 0, want+want/2)
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

// Commit runs the commit phase on every owned shard: land the buffers
// addressed to it in its load cells, and refresh the shard statistics,
// which the landing kept exact.
// After the phase barrier the remote-destined outgoing buffers (already
// shipped by the transport) are reset for the next round.
func (g *Group) Commit() {
	observe(mPhaseCommit, g.phase("commit", g.commitFn))
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
}

// drainShard lands the rows addressed to owned shard i in its load cells
// (engine.State.DepositBatch), in global source order — in-process
// sources read straight from their out rows, remote ones from the
// delivered inbox — and empties them, tallying the
// cross-shard balls and non-empty rows for the exchange counters.
func (g *Group) drainShard(i int) {
	sh := &g.parts[i]
	d := g.lo + i
	base := int32(sh.base)
	for s := 0; s < g.s; s++ {
		var row *[]int32
		if g.owns(s) {
			row = &g.parts[s-g.lo].out[d]
		} else {
			row = &g.inbox[i][s]
		}
		buf := *row
		sh.state.DepositBatch(buf, base)
		*row = buf[:0]
		if len(buf) > 0 && s != d {
			sh.exchBalls += len(buf)
			sh.exchRows++
		}
	}
}

// commitShard is owned shard i's commit: its last drain, the state's
// Commit, and the round's exchange tallies. A single shard has no rows to
// drain: its release landed the round's balls itself (see releaseShard).
func (g *Group) commitShard(i int) {
	if g.s > 1 {
		g.drainShard(i)
	}
	sh := &g.parts[i]
	sh.state.Commit()
	if sh.exchRows > 0 && obs.Enabled() {
		// At most one atomic add per shard per round, never per ball, and
		// none when no row crossed shards (always, at S = 1).
		mExchangeBalls.Add(uint64(sh.exchBalls))
		mExchangeMsgs.Add(uint64(sh.exchRows))
	}
	sh.exchBalls, sh.exchRows = 0, 0
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
