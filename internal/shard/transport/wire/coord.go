package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"

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
		"Balls moved through the exchange (drained at commit).")
	mExchangeMsgs = obs.Default.Counter("rbb_exchange_messages_total",
		"Non-empty shard-to-shard exchange buffers drained at commit.")
)

// Link is one worker connection handed to the coordinator by a transport:
// a byte stream plus the transport-specific hooks the coordinator needs to
// fail fast and shut down cleanly. The coordinator owns the stream from
// NewCoordinator on.
type Link struct {
	// R and W are the stream halves (one socket).
	R io.Reader
	W io.Writer
	// Name identifies the worker in errors: its peer address.
	Name string
	// Tx and Rx count raw stream bytes when non-nil.
	Tx, Rx *obs.Counter
	// Exited, when non-nil, reports how the worker process died (its exit
	// status) so a stream failure carries the root cause. It must not
	// block for long and must return nil while the worker is alive.
	Exited func() error
	// CloseIO force-closes the underlying stream, unblocking any pending
	// read or write on either end. Required.
	CloseIO func()

	c      *conn
	lo, hi int
}

// Config configures a Coordinator.
type Config struct {
	// Workers is the per-process pool worker count handed to each
	// worker's local transport (0 = the worker's GOMAXPROCS). The
	// trajectory is independent of it.
	Workers int
	// Width is the per-shard load storage width floor handed to every
	// worker. The trajectory is independent of it.
	Width engine.Width
	// Kernel is the dense-round kernel handed to every worker. The
	// trajectory is independent of it.
	Kernel engine.Kernel
	// Rule is the arrival rule every worker executes (zero value:
	// relaunch, the repeated balls-into-bins law).
	Rule shard.ArrivalRule
	// Mesh switches the exchange from coordinator relay (star) to direct
	// worker↔worker delivery.
	Mesh bool
	// Transport labels errors and barrier metrics ("tcp", "tcp-mesh").
	Transport string
}

// Coordinator drives the round protocol over a set of worker links. It
// implements the same stepping surface as shard.Process (engine.Stepper
// plus Snapshot, so checkpoint.Run drives it unchanged). Transports embed
// it in their Engine types; create with NewCoordinator. Not safe for
// concurrent use.
//
// A transport failure mid-run — a worker crash, a broken socket — is
// unrecoverable and surfaces as a panic from Step, because
// engine.Stepper leaves no error channel; the coordinator's state is
// authoritative only at round boundaries and a half-exchanged round cannot
// be rolled back. On any failure the coordinator closes every link first
// (a clean cancellation: workers blocked at a frame boundary observe EOF
// and exit) and decorates the error with the failing worker's name and,
// when the transport reports one, its exit status.
type Coordinator struct {
	n, s      int
	links     []*Link
	cfg       Config
	rule      shard.ArrivalRule
	balls     int64
	round     int64
	maxLoad   int32
	empty     int
	released  int
	staged    int
	loadBytes int64
	barrier   *obs.Histogram

	// rbuf[src][dst] are the retained decode buffers of the star relay;
	// rows allocate lazily, so memory follows the (src, dst) pairs that
	// actually cross processes. Unused in mesh mode.
	rbuf   [][][]int32
	closed bool
}

// NewCoordinator joins the given workers and migrates the snapshot's state
// into them: link i owns shard range [PartitionStart(s, p, i),
// PartitionStart(s, p, i+1)) and receives the checkpoint v2 header plus
// one frame per owned shard — only its own slice of the run. The
// coordinator never serializes the whole run into one buffer; per-worker
// join payloads are encoded and sent worker by worker. In mesh mode the
// join additionally distributes the peer roster and waits for every
// worker's ready ack. On error the links are already shut down.
func NewCoordinator(snap *checkpoint.Snapshot, links []*Link, cfg Config) (*Coordinator, error) {
	co := &Coordinator{links: links, cfg: cfg}
	if err := co.join(snap); err != nil {
		co.abort()
		return nil, err
	}
	return co, nil
}

func (co *Coordinator) join(snap *checkpoint.Snapshot) error {
	if snap == nil || snap.Engine == nil {
		return errors.New("wire: join with nil snapshot")
	}
	es := snap.Engine
	s := len(es.Shards)
	p := len(co.links)
	if p < 1 || p > s {
		return fmt.Errorf("wire: %d workers for %d shards", p, s)
	}
	switch co.cfg.Width {
	case engine.WidthAuto, engine.Width8, engine.Width16, engine.Width32:
	default:
		return fmt.Errorf("wire: invalid load width %d", co.cfg.Width)
	}
	switch co.cfg.Kernel {
	case engine.KernelBatched, engine.KernelScalar:
	default:
		return fmt.Errorf("wire: invalid kernel %d", co.cfg.Kernel)
	}
	rule, err := co.cfg.Rule.Normalize()
	if err != nil {
		return err
	}
	co.rule = rule
	co.n, co.s = es.N, s
	co.round = es.Round
	co.rbuf = make([][][]int32, s)
	co.barrier = obs.Default.Histogram("rbb_coord_barrier_seconds",
		"Coordinator wall-clock wait for the round-closing stats barrier.",
		nil, obs.Label{Key: "transport", Value: co.cfg.Transport})
	// The pre-join fold of the snapshot's statistics: the coordinator
	// never holds live shard state, so the global stats start from the
	// snapshot and are re-folded from worker messages every round.
	for i := range es.Shards {
		for _, l := range es.Shards[i].Loads {
			if l > co.maxLoad {
				co.maxLoad = l
			}
			if l == 0 {
				co.empty++
			}
			co.balls += int64(l)
		}
	}
	var header bytes.Buffer
	err = checkpoint.WriteHeader(&header, checkpoint.Header{
		Seed:   snap.Seed,
		N:      es.N,
		Shards: s,
		Round:  es.Round,
	})
	if err != nil {
		return err
	}
	mesh := byte(0)
	if co.cfg.Mesh {
		mesh = 1
	}
	var frame []byte
	var ruleBuf []byte
	for i, l := range co.links {
		l.lo = shard.PartitionStart(s, p, i)
		l.hi = shard.PartitionStart(s, p, i+1)
		l.c = newConn(l.R, l.W, l.Tx, l.Rx)
		c := l.c
		c.wByte(mInit)
		c.wU32(ProtoVersion)
		c.wU32(uint32(l.lo))
		c.wU32(uint32(l.hi))
		c.wU32(uint32(co.cfg.Workers))
		c.wByte(uint8(co.cfg.Width))
		c.wByte(uint8(co.cfg.Kernel))
		c.wBytes(rule.AppendWire(ruleBuf[:0]))
		c.wByte(mesh)
		c.wBytes(header.Bytes())
		for i := l.lo; i < l.hi && c.werr == nil; i++ {
			// Join frames are never compressed: they cross the link once.
			frame, err = checkpoint.AppendShardFrame(frame[:0], &es.Shards[i], i, es.N, s, false)
			if err != nil {
				return err
			}
			c.wBlob(frame)
		}
		c.flush()
		if c.werr != nil {
			return co.linkErr(l, "joining", c.werr)
		}
	}
	addrs := make([][]byte, p)
	for i, l := range co.links {
		c := l.c
		if err := c.expect(mInitOK); err != nil {
			return co.linkErr(l, "joining", err)
		}
		co.loadBytes += int64(c.rU64())
		addrs[i] = c.rBlob(maxAddrLen)
		if err := c.err(); err != nil {
			return co.linkErr(l, "joining", err)
		}
		if co.cfg.Mesh && len(addrs[i]) == 0 {
			return co.linkErr(l, "joining", errors.New("wire: mesh worker reported no peer address"))
		}
	}
	if !co.cfg.Mesh {
		return nil
	}
	// Distribute the roster and wait for every worker's peer links.
	for i, l := range co.links {
		c := l.c
		c.wByte(mRoster)
		c.wU32(uint32(i))
		c.wU32(uint32(p))
		for _, a := range addrs {
			c.wBlob(a)
		}
		c.flush()
		if c.werr != nil {
			return co.linkErr(l, "distributing roster", c.werr)
		}
	}
	for _, l := range co.links {
		if err := l.c.expect(mReady); err != nil {
			return co.linkErr(l, "establishing mesh", err)
		}
	}
	return nil
}

// linkErr decorates a stream failure with the worker's identity, range and
// — when the transport can report one — exit status, so a dead worker
// surfaces as its root cause instead of a bare broken pipe.
func (co *Coordinator) linkErr(l *Link, doing string, err error) error {
	name := l.Name
	if name == "" {
		name = "worker"
	}
	err = fmt.Errorf("%s %s [%d,%d): %w", doing, name, l.lo, l.hi, err)
	if l.Exited != nil {
		if xerr := l.Exited(); xerr != nil {
			err = fmt.Errorf("%w (%v)", err, xerr)
		}
	}
	return err
}

// abort shuts every link down: a best-effort quit frame, then a forced
// stream close — the clean cancellation that unblocks the workers (they
// observe EOF at a frame boundary and exit). Idempotent.
func (co *Coordinator) abort() {
	if co.closed {
		return
	}
	co.closed = true
	for _, l := range co.links {
		if l.c != nil {
			l.c.wByte(mQuit)
			l.c.flush()
		}
		if l.CloseIO != nil {
			l.CloseIO()
		}
	}
}

// Close shuts the workers down (see abort); the transport reaps any
// processes it spawned. Idempotent.
func (co *Coordinator) Close() error {
	co.abort()
	return nil
}

// Step advances one synchronous round across the workers. It panics on a
// transport failure (see the type comment) after cancelling the surviving
// workers.
func (co *Coordinator) Step() {
	if err := co.step(); err != nil {
		panic(fmt.Sprintf("%s: round %d: %v", co.cfg.Transport, co.round, err))
	}
}

func (co *Coordinator) step() error {
	if co.closed {
		return errors.New("engine is closed")
	}
	err := co.stepLinks()
	if err != nil {
		co.abort()
	}
	return err
}

func (co *Coordinator) stepLinks() error {
	// Release on every worker (mesh: the whole round runs from this).
	for _, l := range co.links {
		l.c.wByte(mStep)
		l.c.flush()
		if l.c.werr != nil {
			return co.linkErr(l, "stepping", l.c.werr)
		}
	}
	if !co.cfg.Mesh {
		if err := co.relay(); err != nil {
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
	for _, l := range co.links {
		c := l.c
		if err := c.expect(mStats); err != nil {
			return co.linkErr(l, "folding stats", err)
		}
		released += int(c.rU64())
		staged += int(c.rU64())
		if m := int32(c.rU32()); m > max {
			max = m
		}
		empty += int(c.rU64())
		loadBytes += int64(c.rU64())
		if err := c.err(); err != nil {
			return co.linkErr(l, "folding stats", err)
		}
	}
	tm.ObserveSeconds(co.barrier)
	sp.End()
	co.maxLoad, co.empty, co.loadBytes = max, empty, loadBytes
	co.released, co.staged = released, staged
	co.balls += int64(staged) - int64(released)
	co.round++
	mRounds.Inc()
	return nil
}

// relay runs the star exchange: collect every remote-destined buffer, then
// relay each worker's inbound buffers with its commit frame. The relay
// retains the decode buffers per (src, dst) pair, so steady-state rounds
// allocate nothing.
func (co *Coordinator) relay() error {
	sp := obs.StartSpan("exchange", obs.LanePhases)
	tm := obs.StartTimer()
	count := obs.Enabled()
	balls, msgs := 0, 0
	for _, l := range co.links {
		c := l.c
		if err := c.expect(mExchange); err != nil {
			return co.linkErr(l, "collecting exchange", err)
		}
		nbuf := int(c.rU32())
		want := (l.hi - l.lo) * (co.s - (l.hi - l.lo))
		if c.rerr == nil && nbuf != want {
			return co.linkErr(l, "collecting exchange", fmt.Errorf("wire: %d buffers, want %d", nbuf, want))
		}
		for i := 0; i < nbuf; i++ {
			src, dst := int(c.rU32()), int(c.rU32())
			if c.rerr != nil {
				return co.linkErr(l, "collecting exchange", c.rerr)
			}
			if src < l.lo || src >= l.hi || dst < 0 || dst >= co.s || (dst >= l.lo && dst < l.hi) {
				return co.linkErr(l, "collecting exchange", fmt.Errorf("wire: buffer %d→%d outside range", src, dst))
			}
			if co.rbuf[src] == nil {
				co.rbuf[src] = make([][]int32, co.s)
			}
			co.rbuf[src][dst] = c.rI32Buf(co.rbuf[src][dst])
			if count && len(co.rbuf[src][dst]) > 0 {
				balls += len(co.rbuf[src][dst])
				msgs++
			}
		}
		if err := c.err(); err != nil {
			return co.linkErr(l, "collecting exchange", err)
		}
	}
	for _, l := range co.links {
		c := l.c
		c.wByte(mCommit)
		c.wU32(uint32((co.s - (l.hi - l.lo)) * (l.hi - l.lo)))
		for src := 0; src < co.s; src++ {
			if src >= l.lo && src < l.hi {
				continue
			}
			for dst := l.lo; dst < l.hi; dst++ {
				c.wU32(uint32(src))
				c.wU32(uint32(dst))
				var buf []int32
				if co.rbuf[src] != nil {
					buf = co.rbuf[src][dst]
				}
				c.wI32Buf(buf)
			}
		}
		c.flush()
		if c.werr != nil {
			return co.linkErr(l, "relaying commit", c.werr)
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
// what checkpoint.SaveOptions would produce from Snapshot, minus the
// coordinator-side gather and whole-blob buffer. checkpoint.Run writes
// this engine's checkpoints through it (see checkpoint.StreamProcess). A
// failure mid-stream is unrecoverable (the control stream is
// desynchronized) and shuts the links down like a Step failure.
func (co *Coordinator) StreamCheckpoint(dst io.Writer, seed uint64, obs *shard.PipelineSnapshot, opts checkpoint.Options) error {
	if co.closed {
		return errors.New("wire: StreamCheckpoint on closed coordinator")
	}
	err := co.streamCheckpoint(dst, seed, obs, opts)
	if err != nil {
		co.abort()
	}
	return err
}

func (co *Coordinator) streamCheckpoint(dst io.Writer, seed uint64, obs *shard.PipelineSnapshot, opts checkpoint.Options) error {
	err := checkpoint.WriteHeader(dst, checkpoint.Header{
		Seed:     seed,
		N:        co.n,
		Shards:   co.s,
		Round:    co.round,
		Observer: obs != nil,
		Compress: opts.Compress,
	})
	if err != nil {
		return err
	}
	// Request every worker up front so they all encode in parallel; drain
	// in worker (= shard) order.
	for _, l := range co.links {
		l.c.wByte(mSnapshotReq)
		if opts.Compress {
			l.c.wByte(1)
		} else {
			l.c.wByte(0)
		}
		l.c.flush()
		if l.c.werr != nil {
			return co.linkErr(l, "requesting snapshot", l.c.werr)
		}
	}
	for _, l := range co.links {
		c := l.c
		if err := c.expect(mSnapshot); err != nil {
			return co.linkErr(l, "gathering snapshot", err)
		}
		for i := l.lo; i < l.hi; i++ {
			flen := c.rU64()
			if c.rerr != nil {
				return co.linkErr(l, "gathering snapshot", c.rerr)
			}
			if flen > frameBound(co.n, co.s, i) {
				return fmt.Errorf("wire: shard %d frame of %d bytes exceeds bound %d", i, flen, frameBound(co.n, co.s, i))
			}
			if _, err := io.CopyN(dst, c.br, int64(flen)); err != nil {
				return fmt.Errorf("wire: relaying shard %d frame: %w", i, err)
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

// Snapshot gathers the full deterministic engine state from the workers —
// the same whole-run cut shard.Engine.Snapshot produces, so checkpoints
// written under this transport are byte-identical to in-process ones. It
// runs the streamed frame protocol into a buffer and decodes it; callers
// that only want the serialized form should use StreamCheckpoint and skip
// the decode (checkpoint.Run does).
func (co *Coordinator) Snapshot() (*shard.EngineSnapshot, error) {
	var buf bytes.Buffer
	// The header seed is provenance only and not part of the engine state;
	// zero is fine for a decode-and-discard pass.
	if err := co.StreamCheckpoint(&buf, 0, nil, checkpoint.Options{}); err != nil {
		return nil, err
	}
	snap, err := checkpoint.Load(&buf)
	if err != nil {
		return nil, err
	}
	return snap.Engine, nil
}

// N returns the number of bins.
func (co *Coordinator) N() int { return co.n }

// Shards returns the shard count S (the random law's key).
func (co *Coordinator) Shards() int { return co.s }

// Procs returns the number of worker processes.
func (co *Coordinator) Procs() int { return len(co.links) }

// Rule returns the canonical arrival rule the workers execute.
func (co *Coordinator) Rule() shard.ArrivalRule { return co.rule }

// Round returns the number of completed rounds.
func (co *Coordinator) Round() int64 { return co.round }

// MaxLoad returns the current global maximum bin load.
func (co *Coordinator) MaxLoad() int32 { return co.maxLoad }

// EmptyBins returns the current global number of empty bins.
func (co *Coordinator) EmptyBins() int { return co.empty }

// NonEmptyBins returns |W(t)|, the current number of non-empty bins.
func (co *Coordinator) NonEmptyBins() int { return co.n - co.empty }

// Released returns the number of balls released in the last round.
func (co *Coordinator) Released() int { return co.released }

// Staged returns the number of balls thrown in the last round.
func (co *Coordinator) Staged() int { return co.staged }

// Balls returns the current total number of balls, folded from the
// workers' released/staged counts (constant under conserving rules).
func (co *Coordinator) Balls() int64 { return co.balls }

// LoadBytes returns the resident bytes of the workers' load vectors and
// staging areas, summed from their stats messages (join ack, then every
// round). Deterministic for a given trajectory, width floor and round.
func (co *Coordinator) LoadBytes() int64 { return co.loadBytes }

// Load returns the load of bin u. It gathers a full snapshot per call —
// O(n) plus a stream round-trip — and exists for engine.Stepper
// conformance; per-round statistics come from the folded
// MaxLoad/EmptyBins.
func (co *Coordinator) Load(u int) int32 { return co.LoadsCopy()[u] }

// LoadsCopy returns a fresh copy of the full load vector (a snapshot
// gather; see Load).
func (co *Coordinator) LoadsCopy() []int32 {
	snap, err := co.Snapshot()
	if err != nil {
		panic(fmt.Sprintf("wire: LoadsCopy: %v", err))
	}
	out := make([]int32, 0, co.n)
	for i := range snap.Shards {
		out = append(out, snap.Shards[i].Loads...)
	}
	return out
}

// Compile-time checks: the coordinator is a checkpoint-able stepper that
// can also serialize its own checkpoint stream.
var (
	_ engine.Stepper           = (*Coordinator)(nil)
	_ checkpoint.Process       = (*Coordinator)(nil)
	_ checkpoint.StreamProcess = (*Coordinator)(nil)
)
