// Package tcp is the multi-process transport of the sharded round
// protocol: a coordinator Engine in the submitting process drives P worker
// processes over TCP sockets, each worker holding a contiguous range of
// the run's shards in a shard.Group, so a run can span worker processes on
// this host or on others. The package holds both ends: the coordinator
// (Engine), the worker session (MaybeWorker, Serve) and the frame protocol
// between them.
//
// Workers come to exist two ways:
//
//   - Self-spawn (the default, and the only local multi-process path:
//     what `rbb-sim -procs P`, tests and single-box runs use): the
//     coordinator listens on a loopback port and re-executes the current
//     binary P times with RBB_TCP_CONNECT set; each child calls
//     MaybeWorker, dials back and serves the session.
//   - Host daemons (Options.Hosts): operators run
//     `rbb-sim -worker -listen addr` daemons and the coordinator dials
//     them — the mode rbb-serve uses for placement.hosts, because dialing
//     lets the service verify reachability before accepting a run.
//
// # Worker join payload
//
// A worker joins by receiving the protocol version, its shard range, the
// serialized arrival rule (shard.ArrivalRule — so every process kind
// crosses process and machine boundaries), and the checkpoint-format-v2
// header of the run plus one self-checksummed frame per shard it owns —
// only its own state, not the whole run. State migration between process
// topologies and machines is therefore free: any checkpoint can be
// reopened under any worker count, topology or machine set (the shard
// count, not the placement, is the random law's key). The coordinator
// encodes each frame as it sends it — from the snapshot entry on a
// resume, from the shard's range of the start on a fresh run
// (NewProcessFill) — and a worker builds each shard as its frame
// arrives, so neither side ever holds the whole run, serialized or
// decoded. Every step of the join is bounded by the join wait (see
// joinWait), so a run naming a busy daemon fails instead of waiting.
//
// # Round protocol (star)
//
//	coordinator → workers     step
//	workers     → coordinator exchange: every (src, dst) buffer with a
//	                          remote destination
//	coordinator → workers     commit: the inbound buffers of each worker's
//	                          shards, relayed from their source workers
//	workers     → coordinator stats: released/staged counts + per-range
//	                          max load, empty bins, resident load bytes
//
// The round-trips are the collective barriers: the coordinator sends no
// commit before reading every exchange, and completes no Step before
// reading every stats fold, so the two-phase structure of the in-process
// engine is preserved exactly.
//
// # Round protocol (mesh)
//
// In mesh mode (Options.Mesh) the coordinator leaves the data path. At
// join each worker opens a peer listener and reports its address in the
// init ack; the coordinator distributes the roster, worker i dials every
// peer j < i (identified by a hello preamble) and accepts every j > i, and
// acks with a ready frame. A round is then
//
//	coordinator → workers     step
//	worker i    → worker j    peer frame: round id + the (src, dst)
//	                          buffers from i's shards to j's, directly
//	workers     → coordinator stats (as above — the round's only barrier)
//
// Each ball crosses the network once instead of twice and the coordinator
// relays nothing; it keeps only the barrier, the stats fold, and the
// checkpoint frame relay. Writes to peers run on one goroutine per peer
// while reads drain sequentially — every stream has a single reader and a
// single writer, so the mesh cannot deadlock — and the per-(src, dst)
// buffers carry explicit indices that are validated against the sender's
// range on receipt. The trajectory is the same pure function of
// (seed, n, S, rule) as in-process execution — pinned byte-for-byte by the
// transport-invariance matrix test and the CI procs-/tcp-equivalence gates.
package tcp

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/shard"
)

// connectEnvVar carries the coordinator address to a self-spawned worker.
const connectEnvVar = "RBB_TCP_CONNECT"

// joinWait bounds every wait of the coordinator's join: each host dial,
// all P self-spawned accepts together (the listener deadline is set
// once), and then, refreshed for each, every join frame written and every
// ack read — a daemon serves one session at a time, so a busy one accepts
// the dial and then does not answer. A daemon drops a connection that
// sends no init frame within half the join wait, so a run queued behind
// an idle client is served before it gives up; a self-spawned worker
// waits twice as long, covering its coordinator's accepts of the others.
// workerArgv launches one self-spawned worker (nil: this executable,
// which must call MaybeWorker). Tests override both (export_test.go).
var (
	joinWait   = 60 * time.Second
	workerArgv []string
)

// Options configures a coordinator Engine.
type Options struct {
	// Procs is the number of worker processes P (clamped to [1, S];
	// with Hosts set it must be 0 or len(Hosts)). The trajectory is
	// independent of it.
	Procs int
	// Workers is the per-process pool worker count handed to each
	// worker's local transport (0 = the worker's GOMAXPROCS).
	Workers int
	// Shards is the shard count S used by NewProcess for fresh runs
	// (Options.Shards convention: 0 = GOMAXPROCS, clamped to n).
	Shards int
	// Width is the per-shard load storage width floor handed to every
	// worker.
	Width engine.Width
	// Kernel is the dense-round kernel handed to every worker.
	Kernel engine.Kernel
	// Rule is the arrival rule the workers execute each round (zero
	// value: relaunch).
	Rule shard.ArrivalRule
	// Mesh switches the exchange to direct worker↔worker delivery.
	Mesh bool
	// Hosts dials one worker daemon (rbb-sim -worker -listen) per entry
	// instead of listening; P becomes len(Hosts).
	Hosts []string
}

// Telemetry of the TCP transport, recorded on the coordinator side.
// Per-peer byte counters are labeled by worker slot ("w0", "w1", ... —
// bounded cardinality) for self-spawned workers and by host address in
// Hosts mode. Observational only; see the obs package doc.
func linkCounters(peer string) (tx, rx *obs.Counter) {
	tx = obs.Default.Counter("rbb_tcp_tx_bytes_total",
		"Bytes written to one worker's coordinator socket.",
		obs.Label{Key: "peer", Value: peer})
	rx = obs.Default.Counter("rbb_tcp_rx_bytes_total",
		"Bytes read from one worker's coordinator socket.",
		obs.Label{Key: "peer", Value: peer})
	return tx, rx
}

// Engine is the coordinator of the TCP transport: it drives the round
// protocol over one socket per worker. It implements the same stepping
// surface as shard.Process (engine.Stepper plus Rule, the
// checkpoint.Process that checkpoint.Run drives unchanged), and streams
// its own checkpoints (checkpoint.StreamProcess). Not safe for concurrent
// use.
//
// A transport failure mid-run — a worker crash, a broken socket — is
// unrecoverable and surfaces as a panic from Step, because
// engine.Stepper leaves no error channel; the coordinator's state is
// authoritative only at round boundaries and a half-exchanged round cannot
// be rolled back. On any failure the coordinator closes every link first
// (a clean cancellation: workers blocked at a frame boundary observe EOF
// and exit) and decorates the error with the failing worker's peer
// address and, when self-spawned, its exit status.
type Engine struct {
	opts      Options
	rule      shard.ArrivalRule
	n, s      int
	links     []*link
	children  []*child
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

// link is one worker socket, framed, and the shard range its worker owns.
type link struct {
	nc     net.Conn
	name   string // the worker's peer address, for errors
	c      *conn
	lo, hi int
}

// child is one self-spawned worker process. The watcher goroutine owns
// werr until it closes done; readers must receive from done first.
type child struct {
	cmd  *exec.Cmd
	done chan struct{}
	werr error
}

// New connects opts-many workers and migrates the snapshot's state into
// them (see the package doc for the join payload). The snapshot's shard
// count is authoritative; opts.Procs is clamped to it.
func New(snap *checkpoint.Snapshot, opts Options) (*Engine, error) {
	if snap == nil || snap.Engine == nil {
		return nil, errors.New("tcp: New with nil snapshot")
	}
	es := snap.Engine
	h := checkpoint.Header{Seed: snap.Seed, N: es.N, Shards: len(es.Shards), Round: es.Round}
	return start(h, func(i int) (shard.ShardSnapshot, error) { return es.Shards[i], nil }, opts)
}

// NewProcessFill builds a fresh multi-process run over the n-bin start
// fill serves — the same pure function of (seed, n, shards, rule) as the
// in-process engines, executed across TCP workers. Each shard's join frame
// is encoded from its own range as it is sent (shard.InitialShards), so
// the coordinator never holds the whole start.
func NewProcessFill(n int, fill shard.Fill, seed uint64, opts Options) (*Engine, error) {
	if n < 1 || n > shard.MaxBins {
		return nil, fmt.Errorf("tcp: %d bins outside [1, %d]", n, shard.MaxBins)
	}
	s, at := shard.InitialShards(n, fill, seed, opts.Shards, opts.Width)
	return start(checkpoint.Header{Seed: seed, N: n, Shards: s}, at, opts)
}

// start connects the workers and joins them to the run h describes, shard
// i's state served by at (see join).
func start(h checkpoint.Header, at func(i int) (shard.ShardSnapshot, error), opts Options) (*Engine, error) {
	s := h.Shards
	p := opts.Procs
	if len(opts.Hosts) > 0 {
		if p != 0 && p != len(opts.Hosts) {
			return nil, fmt.Errorf("tcp: %d procs with %d hosts", p, len(opts.Hosts))
		}
		if len(opts.Hosts) > s {
			return nil, fmt.Errorf("tcp: %d hosts for %d shards", len(opts.Hosts), s)
		}
		p = len(opts.Hosts)
	}
	if p < 1 {
		p = 1
	}
	if p > s {
		p = s
	}
	e := &Engine{opts: opts}
	if err := e.connectWorkers(p); err != nil {
		e.reap()
		return nil, err
	}
	if err := e.join(h, at); err != nil {
		e.Close()
		return nil, fmt.Errorf("tcp: %w", err)
	}
	return e, nil
}

// transport labels errors and barrier metrics.
func (e *Engine) transport() string {
	if e.opts.Mesh {
		return "tcp-mesh"
	}
	return "tcp"
}

// connectWorkers establishes the P worker sockets: dialing host daemons,
// or listening on loopback and self-spawning dial-back children. On error
// the sockets made so far are closed.
func (e *Engine) connectWorkers(p int) error {
	links := make([]*link, 0, p)
	add := func(nc net.Conn, name, peerLabel string) {
		tx, rx := linkCounters(peerLabel)
		links = append(links, &link{nc: nc, name: name, c: newConn(nc, nc, tx, rx)})
	}
	fail := func(err error) error {
		for _, l := range links {
			l.nc.Close()
		}
		return err
	}
	if len(e.opts.Hosts) > 0 {
		for _, h := range e.opts.Hosts {
			nc, err := dialWorker(h, joinWait)
			if err != nil {
				return fail(err)
			}
			add(nc, h, h)
		}
		e.links = links
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("tcp: listening on loopback: %w", err)
	}
	defer ln.Close()
	argv := workerArgv
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("tcp: resolving worker binary: %w", err)
		}
		argv = []string{exe}
	}
	for i := 0; i < p; i++ {
		if err := e.spawn(argv, ln.Addr().String()); err != nil {
			return err
		}
	}
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(time.Now().Add(joinWait))
	}
	for i := 0; i < p; i++ {
		nc, err := ln.Accept()
		if err != nil {
			// A self-spawned child that died before dialing back explains
			// the missed accept far better than the bare timeout does.
			if dead := e.anyExited(); dead != nil {
				err = dead
			}
			return fail(fmt.Errorf("tcp: accepting worker %d of %d: %w", i+1, p, err))
		}
		add(nc, nc.RemoteAddr().String(), fmt.Sprintf("w%d", i))
	}
	e.links = links
	return nil
}

// dialWorker dials one worker daemon under a trace span.
func dialWorker(addr string, timeout time.Duration) (net.Conn, error) {
	sp := obs.StartSpan("dial "+addr, obs.LanePhases)
	nc, err := net.DialTimeout("tcp", addr, timeout)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("tcp: dialing worker %s: %w", addr, err)
	}
	return nc, nil
}

// spawn launches one dial-back worker child and its exit watcher.
func (e *Engine) spawn(argv []string, addr string) error {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), connectEnvVar+"="+addr)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("tcp: spawning worker: %w", err)
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	e.children = append(e.children, c)
	go func() {
		c.werr = cmd.Wait()
		close(c.done)
	}()
	return nil
}

// anyExited reports the first self-spawned worker found dead, giving a
// dying child a moment to be reaped so its exit status makes the error.
// Arrival order does not identify which child owns which socket, so any
// child's exit status decorates a link failure — with one dead worker,
// the usual case, it is the right one.
func (e *Engine) anyExited() error {
	if len(e.children) == 0 {
		return nil
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for {
		for _, c := range e.children {
			select {
			case <-c.done:
				if c.werr != nil {
					return fmt.Errorf("worker pid %d exited: %w", c.cmd.Process.Pid, c.werr)
				}
				return fmt.Errorf("worker pid %d exited", c.cmd.Process.Pid)
			default:
			}
		}
		if time.Now().After(deadline) {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// reap force-kills and waits any self-spawned children (bounded); used on
// construction failure and after Close.
func (e *Engine) reap() {
	for _, c := range e.children {
		select {
		case <-c.done:
		case <-time.After(5 * time.Second):
			c.cmd.Process.Kill()
			<-c.done
		}
	}
	e.children = nil
}

// Close shuts the workers down (quit frames, socket close; see abort) and
// reaps any self-spawned children with a bounded wait. Idempotent.
func (e *Engine) Close() error {
	e.abort()
	e.reap()
	return nil
}

// Probe checks that a worker daemon at addr is reachable: it dials and
// immediately closes (daemons treat a connection with no frames as a
// non-event). rbb-serve uses it to reject unreachable placement hosts at
// submit time instead of failing mid-run.
func Probe(addr string, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	return nc.Close()
}
