package tcp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Telemetry of the coordinator, recorded on the coordinator side (workers
// count into their own process registries, which nothing scrapes; that is
// deliberate — the coordinator owns the run's metrics surface).
// Observational only; see the obs package doc. Same families the
// in-process kernel registers: in a multi-process run the coordinator
// holds no Group, so these count the relayed (cross-process) legs.
var (
	mPhaseExchange = obs.Default.Histogram("rbb_phase_seconds",
		"Wall-clock duration of one round-protocol phase across all owned shards.",
		nil, obs.Label{Key: "phase", Value: "exchange"})
	mRounds = obs.Default.Counter("rbb_rounds_total",
		"Completed simulation rounds.")
	mExchangeBalls = obs.Default.Counter("rbb_exchange_balls_total",
		"Balls moved between shards through the exchange rows.")
	mExchangeMsgs = obs.Default.Counter("rbb_exchange_messages_total",
		"Non-empty shard-to-shard exchange rows drained (in process, once per sub-round).")
)

// join migrates the run's state into the connected workers: link i owns
// shard range [PartitionStart(s, p, i), PartitionStart(s, p, i+1)) and
// receives the checkpoint v2 header h plus one frame per owned shard —
// only its own slice of the run. at serves shard i's state: a snapshot
// entry on a resume, a range of the start on a fresh run. Each frame is
// encoded as it is sent, and the coordinator's starting statistics are
// folded in the same pass, so the coordinator never holds the whole run.
// In mesh mode the join additionally distributes the peer roster and
// waits for every worker's ready ack. Every write and read is bounded by
// joinWait, refreshed per frame. A successful join clears the deadlines;
// a failed one leaves them, so the quit frames of the abort that follows
// cannot block on a worker that is not reading.
func (e *Engine) join(h checkpoint.Header, at func(i int) (shard.ShardSnapshot, error)) (err error) {
	s := h.Shards
	p := len(e.links)
	switch e.opts.Width {
	case engine.WidthAuto, engine.Width8, engine.Width16, engine.Width32:
	default:
		return fmt.Errorf("invalid load width %d", e.opts.Width)
	}
	switch e.opts.Kernel {
	case engine.KernelBatched, engine.KernelScalar:
	default:
		return fmt.Errorf("invalid kernel %d", e.opts.Kernel)
	}
	rule, err := e.opts.Rule.Normalize()
	if err != nil {
		return err
	}
	e.rule = rule
	e.n, e.s = h.N, s
	e.round = h.Round
	e.rbuf = make([][][]int32, s)
	e.barrier = obs.Default.Histogram("rbb_coord_barrier_seconds",
		"Coordinator wall-clock wait for the round-closing stats barrier.",
		nil, obs.Label{Key: "transport", Value: e.transport()})
	var header bytes.Buffer
	if err := checkpoint.WriteHeader(&header, h); err != nil {
		return err
	}
	defer func() {
		if err == nil {
			for _, l := range e.links {
				l.nc.SetDeadline(time.Time{})
			}
		}
	}()
	mesh := byte(0)
	if e.opts.Mesh {
		mesh = 1
	}
	// Every link's preamble (type byte through header) goes out before
	// any link's shard frames, so each worker ends its bounded wait for
	// the init frame without waiting on the other links' frames.
	ruleWire := rule.AppendWire(nil)
	for i, l := range e.links {
		l.lo = shard.PartitionStart(s, p, i)
		l.hi = shard.PartitionStart(s, p, i+1)
		c := l.c
		l.wait()
		c.wByte(mInit)
		c.wU32(ProtoVersion)
		c.wU32(uint32(l.lo))
		c.wU32(uint32(l.hi))
		c.wU32(uint32(e.opts.Workers))
		c.wByte(uint8(e.opts.Width))
		c.wByte(uint8(e.opts.Kernel))
		c.wBytes(ruleWire)
		c.wByte(mesh)
		c.wBytes(header.Bytes())
		c.flush()
		if c.werr != nil {
			return e.joinErr(l, "joining", c.werr)
		}
	}
	// The shard frames, each encoded from its source as it is sent; the
	// coordinator's global statistics start from the same pass and are
	// re-folded from worker messages every round.
	var frame []byte
	for _, l := range e.links {
		c := l.c
		for i := l.lo; i < l.hi && c.werr == nil; i++ {
			sh, err := at(i)
			if err != nil {
				return err
			}
			for _, v := range sh.Loads {
				e.maxLoad = max(e.maxLoad, v)
				if v == 0 {
					e.empty++
				}
				e.balls += int64(v)
			}
			// Join frames are never compressed: they cross the link once.
			frame, err = checkpoint.AppendShardFrame(frame[:0], &sh, i, h.N, s, false)
			if err != nil {
				return err
			}
			l.wait()
			c.wBlob(frame)
		}
		l.wait()
		c.flush()
		if c.werr != nil {
			return e.joinErr(l, "joining", c.werr)
		}
	}
	addrs := make([][]byte, p)
	for i, l := range e.links {
		c := l.c
		l.wait()
		if err := c.expect(mInitOK); err != nil {
			return e.joinErr(l, "joining", err)
		}
		e.loadBytes += int64(c.rU64())
		addrs[i] = c.rBlob(maxAddrLen)
		if err := c.err(); err != nil {
			return e.joinErr(l, "joining", err)
		}
		if e.opts.Mesh && len(addrs[i]) == 0 {
			return e.linkErr(l, "joining", errors.New("mesh worker reported no peer address"))
		}
	}
	if !e.opts.Mesh {
		return nil
	}
	// Distribute the roster and wait for every worker's peer links.
	for i, l := range e.links {
		c := l.c
		l.wait()
		c.wByte(mRoster)
		c.wU32(uint32(i))
		c.wU32(uint32(p))
		for _, a := range addrs {
			c.wBlob(a)
		}
		c.flush()
		if c.werr != nil {
			return e.joinErr(l, "distributing roster", c.werr)
		}
	}
	for _, l := range e.links {
		l.wait()
		if err := l.c.expect(mReady); err != nil {
			return e.joinErr(l, "establishing mesh", err)
		}
	}
	return nil
}

// wait bounds the link's next join step by joinWait from now.
func (l *link) wait() { l.nc.SetDeadline(time.Now().Add(joinWait)) }

// joinErr is linkErr for a join step, naming an expired join wait as the
// cause: the worker did not answer — most often a daemon busy with
// another session.
func (e *Engine) joinErr(l *link, doing string, err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		err = fmt.Errorf("worker did not answer within the join wait (%v; a daemon serves one session at a time): %w", joinWait, err)
	}
	return e.linkErr(l, doing, err)
}

// linkErr decorates a stream failure with the worker's identity, range and
// — when a self-spawned worker died — exit status, so a dead worker
// surfaces as its root cause instead of a bare broken pipe.
func (e *Engine) linkErr(l *link, doing string, err error) error {
	err = fmt.Errorf("%s %s [%d,%d): %w", doing, l.name, l.lo, l.hi, err)
	if xerr := e.anyExited(); xerr != nil {
		err = fmt.Errorf("%w (%v)", err, xerr)
	}
	return err
}

// abort shuts every link down: a best-effort quit frame, then a forced
// stream close — the clean cancellation that unblocks the workers (they
// observe EOF at a frame boundary and exit). Idempotent.
func (e *Engine) abort() {
	if e.closed {
		return
	}
	e.closed = true
	for _, l := range e.links {
		l.c.wByte(mQuit)
		l.c.flush()
		l.nc.Close()
	}
}

// Step advances one synchronous round across the workers. It panics on a
// transport failure (see the type comment) after cancelling the surviving
// workers.
func (e *Engine) Step() {
	if err := e.step(); err != nil {
		panic(fmt.Sprintf("%s: round %d: %v", e.transport(), e.round, err))
	}
}

func (e *Engine) step() error {
	if e.closed {
		return errors.New("engine is closed")
	}
	err := e.stepLinks()
	if err != nil {
		e.abort()
	}
	return err
}

func (e *Engine) stepLinks() error {
	// Release on every worker (mesh: the whole round runs from this).
	for _, l := range e.links {
		l.c.wByte(mStep)
		l.c.flush()
		if l.c.werr != nil {
			return e.linkErr(l, "stepping", l.c.werr)
		}
	}
	if !e.opts.Mesh {
		if err := e.relay(); err != nil {
			return err
		}
	}
	// Fold the stats — the round's closing barrier.
	sp := obs.StartSpan("barrier", obs.LanePhases)
	tm := obs.StartTimer()
	var max int32
	empty := 0
	released, staged := 0, 0
	var loadBytes int64
	for _, l := range e.links {
		c := l.c
		if err := c.expect(mStats); err != nil {
			return e.linkErr(l, "folding stats", err)
		}
		released += int(c.rU64())
		staged += int(c.rU64())
		if m := int32(c.rU32()); m > max {
			max = m
		}
		empty += int(c.rU64())
		loadBytes += int64(c.rU64())
		if err := c.err(); err != nil {
			return e.linkErr(l, "folding stats", err)
		}
	}
	tm.ObserveSeconds(e.barrier)
	sp.End()
	e.maxLoad, e.empty, e.loadBytes = max, empty, loadBytes
	e.released, e.staged = released, staged
	e.balls += int64(staged) - int64(released)
	e.round++
	mRounds.Inc()
	return nil
}

// relay runs the star exchange: collect every remote-destined buffer, then
// relay each worker's inbound buffers with its commit frame. The relay
// retains the decode buffers per (src, dst) pair, so steady-state rounds
// allocate nothing.
func (e *Engine) relay() error {
	sp := obs.StartSpan("exchange", obs.LanePhases)
	tm := obs.StartTimer()
	count := obs.Enabled()
	balls, msgs := 0, 0
	for _, l := range e.links {
		c := l.c
		if err := c.expect(mExchange); err != nil {
			return e.linkErr(l, "collecting exchange", err)
		}
		nbuf := int(c.rU32())
		want := (l.hi - l.lo) * (e.s - (l.hi - l.lo))
		if c.rerr == nil && nbuf != want {
			return e.linkErr(l, "collecting exchange", fmt.Errorf("%d buffers, want %d", nbuf, want))
		}
		for i := 0; i < nbuf; i++ {
			src, dst := int(c.rU32()), int(c.rU32())
			if c.rerr != nil {
				return e.linkErr(l, "collecting exchange", c.rerr)
			}
			if src < l.lo || src >= l.hi || dst < 0 || dst >= e.s || (dst >= l.lo && dst < l.hi) {
				return e.linkErr(l, "collecting exchange", fmt.Errorf("buffer %d→%d outside range", src, dst))
			}
			if e.rbuf[src] == nil {
				e.rbuf[src] = make([][]int32, e.s)
			}
			e.rbuf[src][dst] = c.rI32Buf(e.rbuf[src][dst])
			if count && len(e.rbuf[src][dst]) > 0 {
				balls += len(e.rbuf[src][dst])
				msgs++
			}
		}
		if err := c.err(); err != nil {
			return e.linkErr(l, "collecting exchange", err)
		}
	}
	for _, l := range e.links {
		c := l.c
		c.wByte(mCommit)
		c.wU32(uint32((e.s - (l.hi - l.lo)) * (l.hi - l.lo)))
		for src := 0; src < e.s; src++ {
			if src >= l.lo && src < l.hi {
				continue
			}
			for dst := l.lo; dst < l.hi; dst++ {
				c.wU32(uint32(src))
				c.wU32(uint32(dst))
				var buf []int32
				if e.rbuf[src] != nil {
					buf = e.rbuf[src][dst]
				}
				c.wI32Buf(buf)
			}
		}
		c.flush()
		if c.werr != nil {
			return e.linkErr(l, "relaying commit", c.werr)
		}
	}
	tm.ObserveSeconds(mPhaseExchange)
	sp.End()
	if count {
		mExchangeBalls.Add(uint64(balls))
		mExchangeMsgs.Add(uint64(msgs))
	}
	return nil
}

// StreamCheckpoint serializes the run straight to dst in checkpoint format
// v2: every worker encodes its own shards into self-checksummed frames
// concurrently (checkpoint.EncodeShards, the encoder in-process engines
// stream through too), and the coordinator relays the frame bytes in shard
// order without decoding — or ever materializing — them. The result is
// what checkpoint.SaveOptions would produce from the same state gathered
// in process, without a coordinator-side gather or whole-blob buffer.
// checkpoint.Run writes this engine's checkpoints through it (see
// checkpoint.StreamProcess). A failure mid-stream is unrecoverable (the
// control stream is desynchronized) and shuts the links down like a Step
// failure.
func (e *Engine) StreamCheckpoint(dst io.Writer, seed uint64, obs *shard.PipelineSnapshot, opts checkpoint.Options) error {
	if e.closed {
		return errors.New("tcp: StreamCheckpoint on closed coordinator")
	}
	if err := e.streamCheckpoint(dst, seed, obs, opts); err != nil {
		e.abort()
		return fmt.Errorf("tcp: %w", err)
	}
	return nil
}

func (e *Engine) streamCheckpoint(dst io.Writer, seed uint64, obs *shard.PipelineSnapshot, opts checkpoint.Options) error {
	err := checkpoint.WriteHeader(dst, checkpoint.Header{
		Seed:     seed,
		N:        e.n,
		Shards:   e.s,
		Round:    e.round,
		Observer: obs != nil,
		Compress: opts.Compress,
	})
	if err != nil {
		return err
	}
	// Request every worker up front so they all encode in parallel; drain
	// in worker (= shard) order.
	for _, l := range e.links {
		l.c.wByte(mSnapshotReq)
		if opts.Compress {
			l.c.wByte(1)
		} else {
			l.c.wByte(0)
		}
		l.c.flush()
		if l.c.werr != nil {
			return e.linkErr(l, "requesting snapshot", l.c.werr)
		}
	}
	for _, l := range e.links {
		c := l.c
		if err := c.expect(mSnapshot); err != nil {
			return e.linkErr(l, "gathering snapshot", err)
		}
		for i := l.lo; i < l.hi; i++ {
			flen := c.rU64()
			if c.rerr != nil {
				return e.linkErr(l, "gathering snapshot", c.rerr)
			}
			if flen > frameBound(e.n, e.s, i) {
				return fmt.Errorf("shard %d frame of %d bytes exceeds bound %d", i, flen, frameBound(e.n, e.s, i))
			}
			if _, err := io.CopyN(dst, c.br, int64(flen)); err != nil {
				return fmt.Errorf("relaying shard %d frame: %w", i, err)
			}
		}
	}
	if obs != nil {
		frame, err := checkpoint.AppendObserverFrame(nil, obs, opts.Compress)
		if err != nil {
			return err
		}
		if _, err := dst.Write(frame); err != nil {
			return err
		}
	}
	return nil
}

// N returns the number of bins.
func (e *Engine) N() int { return e.n }

// Shards returns the shard count S (the random law's key).
func (e *Engine) Shards() int { return e.s }

// Procs returns the number of worker processes.
func (e *Engine) Procs() int { return len(e.links) }

// Rule returns the canonical arrival rule the workers execute.
func (e *Engine) Rule() shard.ArrivalRule { return e.rule }

// Round returns the number of completed rounds.
func (e *Engine) Round() int64 { return e.round }

// MaxLoad returns the current global maximum bin load.
func (e *Engine) MaxLoad() int32 { return e.maxLoad }

// EmptyBins returns the current global number of empty bins.
func (e *Engine) EmptyBins() int { return e.empty }

// Balls returns the current total number of balls, folded from the
// workers' released/staged counts (constant under conserving rules).
func (e *Engine) Balls() int64 { return e.balls }

// LoadBytes returns the resident bytes of the workers' load vectors and
// staging areas, summed from their stats messages (join ack, then every
// round). Deterministic for a given trajectory, width floor and round.
func (e *Engine) LoadBytes() int64 { return e.loadBytes }

// Compile-time checks: the coordinator is a checkpoint-able stepper that
// can also serialize its own checkpoint stream.
var (
	_ checkpoint.Process       = (*Engine)(nil)
	_ checkpoint.StreamProcess = (*Engine)(nil)
)
