// Package tcp is the multi-process transport of the sharded round
// protocol: a coordinator Engine drives the wire protocol (package
// internal/shard/transport/wire) over TCP sockets, so a run can span
// worker processes on this host or on others. The join payload is the
// checkpoint format — any checkpoint reopens under any worker count,
// topology or machine set, and the trajectory stays the same pure function
// of (seed, n, S, rule), byte-pinned by the transport-invariance matrix.
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
// In mesh mode (Options.Mesh) the coordinator distributes a roster at
// join and workers exchange their cross-range buffers directly over
// worker↔worker sockets, halving relay traffic; the coordinator keeps
// only barriers, stats folds and checkpoint frame relay (see the wire
// package doc for the protocol).
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
	"repro/internal/shard/transport/wire"
)

// connectEnvVar carries the coordinator address to a self-spawned worker.
const connectEnvVar = "RBB_TCP_CONNECT"

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
	// Command is the argv launching one self-spawned worker (default:
	// {os.Executable()}). The launched process must call MaybeWorker.
	Command []string
	// AcceptTimeout bounds the wait for each worker connection or host
	// dial (default 60s).
	AcceptTimeout time.Duration
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

// Engine is the coordinator side of the TCP transport. It implements the
// same stepping surface as shard.Process (engine.Stepper plus Rule and
// Snapshot, so checkpoint.Run drives it unchanged); see wire.Coordinator for the
// failure semantics — a mid-round transport failure panics from Step with
// the failing worker's peer address (and exit status, when self-spawned)
// after cancelling the surviving workers.
type Engine struct {
	*wire.Coordinator
	children []*child
}

// child is one self-spawned worker process. The watcher goroutine owns
// werr until it closes done; readers must receive from done first.
type child struct {
	cmd  *exec.Cmd
	done chan struct{}
	werr error
}

// New connects opts-many workers and migrates the snapshot's state into
// them (see the wire package doc for the join payload). The snapshot's
// shard count is authoritative; opts.Procs is clamped to it.
func New(snap *checkpoint.Snapshot, opts Options) (*Engine, error) {
	if snap == nil || snap.Engine == nil {
		return nil, errors.New("tcp: New with nil snapshot")
	}
	s := len(snap.Engine.Shards)
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
	e := &Engine{}
	links, err := e.connectWorkers(p, opts)
	if err != nil {
		e.reap()
		return nil, err
	}
	transport := "tcp"
	if opts.Mesh {
		transport = "tcp-mesh"
	}
	co, err := wire.NewCoordinator(snap, links, wire.Config{
		Workers:   opts.Workers,
		Width:     opts.Width,
		Kernel:    opts.Kernel,
		Rule:      opts.Rule,
		Mesh:      opts.Mesh,
		Transport: transport,
	})
	if err != nil {
		e.reap()
		return nil, fmt.Errorf("tcp: %w", err)
	}
	e.Coordinator = co
	return e, nil
}

// NewProcess builds a fresh multi-process run over a copy of loads — the
// same pure function of (seed, len(loads), shards, rule) as the
// in-process engines, executed across TCP workers.
func NewProcess(loads []int32, seed uint64, opts Options) (*Engine, error) {
	es, err := shard.InitialSnapshot(loads, seed, opts.Shards, opts.Width)
	if err != nil {
		return nil, err
	}
	return New(&checkpoint.Snapshot{Seed: seed, Engine: es}, opts)
}

// connectWorkers establishes the P worker sockets: dialing host daemons,
// or listening on loopback and self-spawning dial-back children.
func (e *Engine) connectWorkers(p int, opts Options) ([]*wire.Link, error) {
	timeout := opts.AcceptTimeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	if len(opts.Hosts) > 0 {
		links := make([]*wire.Link, 0, p)
		for _, h := range opts.Hosts {
			nc, err := dialWorker(h, timeout)
			if err != nil {
				for _, l := range links {
					l.CloseIO()
				}
				return nil, err
			}
			links = append(links, e.link(nc, h, h))
		}
		return links, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("tcp: listening on loopback: %w", err)
	}
	defer ln.Close()
	argv := opts.Command
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("tcp: resolving worker binary: %w", err)
		}
		argv = []string{exe}
	}
	for i := 0; i < p; i++ {
		if err := e.spawn(argv, ln.Addr().String()); err != nil {
			return nil, err
		}
	}
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(time.Now().Add(timeout))
	}
	links := make([]*wire.Link, 0, p)
	for i := 0; i < p; i++ {
		nc, err := ln.Accept()
		if err != nil {
			for _, l := range links {
				l.CloseIO()
			}
			// A self-spawned child that died before dialing back explains
			// the missed accept far better than the bare timeout does.
			if dead := e.anyExited(); dead != nil {
				return nil, fmt.Errorf("tcp: accepting worker %d of %d: %w", i+1, p, dead)
			}
			return nil, fmt.Errorf("tcp: accepting worker %d of %d: %w", i+1, p, err)
		}
		links = append(links, e.link(nc, nc.RemoteAddr().String(), fmt.Sprintf("w%d", i)))
	}
	return links, nil
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

// link wraps one worker socket. Exited reports a freshly-dead self-spawned
// worker (arrival order does not identify which child owns which socket,
// so any child's exit status decorates the failure — with one dead worker,
// the usual case, it is the right one).
func (e *Engine) link(nc net.Conn, name, peerLabel string) *wire.Link {
	tx, rx := linkCounters(peerLabel)
	return &wire.Link{
		R:       nc,
		W:       nc,
		Name:    name,
		Tx:      tx,
		Rx:      rx,
		Exited:  e.anyExited,
		CloseIO: func() { nc.Close() },
	}
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

// Close shuts the workers down (quit frames, socket close) and reaps any
// self-spawned children with a bounded wait. Idempotent.
func (e *Engine) Close() error {
	var err error
	if e.Coordinator != nil {
		err = e.Coordinator.Close()
	}
	e.reap()
	return err
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
