package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/shard/transport/local"
)

// MaybeWorker turns the process into a transport worker when it was
// self-spawned as one: it dials the coordinator named by RBB_TCP_CONNECT,
// serves the session and exits. In any other process it returns
// immediately. Every binary that constructs a tcp Engine must call it
// first thing in main.
func MaybeWorker() {
	addr := os.Getenv(connectEnvVar)
	if addr == "" {
		return
	}
	if err := connect(addr); err != nil {
		fmt.Fprintln(os.Stderr, "rbb tcp worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// connect dials the coordinator that spawned this worker and serves one
// session until the coordinator quits or disconnects.
func connect(addr string) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("tcp: dialing coordinator %s: %w", addr, err)
	}
	defer nc.Close()
	if err := serveSession(nc); err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}

// ListenAndServe runs a worker daemon: it listens on addr and serves one
// coordinator session at a time, forever — the `rbb-sim -worker -listen`
// entry point for the host-daemon mode rbb-serve's placement.hosts dials.
// Connections that close before sending a frame (reachability probes) are
// ignored, and one that sends no init frame in time is dropped (see
// workerJoin); session errors are logged to logw (default stderr) and the
// daemon keeps serving. It returns only on a listener failure.
func ListenAndServe(addr string, logw io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("tcp: listening on %s: %w", addr, err)
	}
	if logw == nil {
		logw = os.Stderr
	}
	fmt.Fprintf(logw, "rbb tcp worker: listening on %s\n", ln.Addr())
	return Serve(ln, logw)
}

// Serve is ListenAndServe over an existing listener (tests use it to
// learn the bound port before serving).
func Serve(ln net.Listener, logw io.Writer) error {
	if logw == nil {
		logw = os.Stderr
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("tcp: accepting coordinator: %w", err)
		}
		if err := serveSession(nc); err != nil && !errors.Is(err, io.EOF) {
			fmt.Fprintf(logw, "rbb tcp worker: session from %s: %v\n", nc.RemoteAddr(), err)
		}
		nc.Close()
	}
}

// Mesh handshake bounds: every peer listener exists before the roster is
// distributed (listeners are opened before the init ack), so dials need no
// retry — only a hang guard.
const (
	peerDialTimeout   = 20 * time.Second
	peerAcceptTimeout = 60 * time.Second
)

// workerState is one joined worker: its group, arrival closure and — in
// mesh mode — its peer streams.
type workerState struct {
	c      *conn
	g      *shard.Group
	arrive shard.Arrivals
	round  int64

	mesh      bool
	self      int
	procs     int
	peers     []*conn // indexed by worker; nil at self and in star mode
	peerConns []net.Conn
	dbuf      []int32 // reusable inbound decode buffer
}

func (st *workerState) close() {
	for _, pc := range st.peerConns {
		pc.Close()
	}
	if st.g != nil {
		st.g.Close()
	}
}

// serveSession runs the worker side of the protocol over one coordinator
// socket until a quit frame or EOF (the coordinator exiting) and returns
// the first protocol or engine error. An EOF before any frame arrives is
// returned as io.EOF so daemons can treat reachability probes (dial, then
// close) as non-events.
func serveSession(nc net.Conn) error {
	c := newConn(nc, nc, nil, nil)
	st, err := workerJoin(nc, c)
	if err != nil {
		if !errors.Is(err, io.EOF) {
			c.wErrFrame(err)
		}
		return err
	}
	defer st.close()
	if err := workerLoop(st); err != nil {
		c.wErrFrame(err)
		return err
	}
	return nil
}

// workerJoin handles the init frame: read the arrival rule, the checkpoint
// v2 header and the owned shard frames, and restore the owned shard range
// from them. The worker builds a sparsely populated engine snapshot — only
// its own shards are filled — which is all shard.NewGroupFromSnapshot
// reads for a sub-range restore. The wait for the init frame, up to and
// including the header, is bounded (twice joinWait), so an idle client
// cannot hold a daemon; the shard frames are not, because a large join
// can take minutes. In mesh mode the worker then opens the peer listener
// on the interface the coordinator reached it on (its address is what
// peers on other machines can route to), reports its address, and
// establishes every peer stream from the roster.
func workerJoin(nc net.Conn, c *conn) (*workerState, error) {
	nc.SetReadDeadline(time.Now().Add(2 * joinWait))
	if err := c.expect(mInit); err != nil {
		return nil, err
	}
	if v := c.rU32(); c.rerr == nil && v != ProtoVersion {
		return nil, fmt.Errorf("protocol version %d, worker speaks %d", v, ProtoVersion)
	}
	lo, hi := int(c.rU32()), int(c.rU32())
	workers := int(c.rU32())
	width := engine.Width(c.rByte())
	kernel := engine.Kernel(c.rByte())
	ruleBytes := make([]byte, shard.ArrivalRuleWireSize)
	if _, err := io.ReadFull(c.br, ruleBytes); err != nil {
		c.failR(err)
	}
	mesh := c.rByte()
	if err := c.err(); err != nil {
		return nil, err
	}
	switch width {
	case engine.WidthAuto, engine.Width8, engine.Width16, engine.Width32:
	default:
		return nil, fmt.Errorf("invalid load width %d", width)
	}
	switch kernel {
	case engine.KernelBatched, engine.KernelScalar:
	default:
		return nil, fmt.Errorf("invalid kernel %d", kernel)
	}
	if mesh > 1 {
		return nil, fmt.Errorf("invalid mesh flag %d", mesh)
	}
	rule, err := shard.DecodeArrivalRule(ruleBytes)
	if err != nil {
		return nil, err
	}
	h, err := checkpoint.ReadHeader(c.br)
	if err != nil {
		return nil, fmt.Errorf("join payload: %w", err)
	}
	nc.SetReadDeadline(time.Time{})
	if lo < 0 || hi > h.Shards || lo >= hi {
		return nil, fmt.Errorf("shard range [%d,%d) outside %d shards", lo, hi, h.Shards)
	}
	if workers < 0 || workers > 1<<16 {
		return nil, fmt.Errorf("%d local workers", workers)
	}
	arrive, err := rule.Arrivals(h.N, h.Shards)
	if err != nil {
		return nil, err
	}
	es := &shard.EngineSnapshot{
		N:      h.N,
		Round:  h.Round,
		Shards: make([]shard.ShardSnapshot, h.Shards),
	}
	for i := lo; i < hi; i++ {
		frame := c.rBlob(frameBound(h.N, h.Shards, i))
		if c.rerr != nil {
			return nil, c.rerr
		}
		idx, sh, err := checkpoint.DecodeShardFrame(frame, h.N, h.Shards)
		if err != nil {
			return nil, fmt.Errorf("join payload: %w", err)
		}
		if idx != i {
			return nil, fmt.Errorf("join frame for shard %d, want %d", idx, i)
		}
		es.Shards[i] = sh
	}
	g, err := shard.NewGroupFromSnapshot(es, lo, hi, local.NewPool(hi-lo, workers),
		shard.GroupOptions{Width: width, Kernel: kernel})
	if err != nil {
		return nil, err
	}
	st := &workerState{c: c, g: g, arrive: arrive, round: h.Round, mesh: mesh == 1}
	var ln net.Listener
	advertise := ""
	if st.mesh {
		host, _, err := net.SplitHostPort(nc.LocalAddr().String())
		if err == nil {
			ln, err = net.Listen("tcp", net.JoinHostPort(host, "0"))
		}
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("opening peer listener: %w", err)
		}
		defer ln.Close()
		advertise = ln.Addr().String()
	}
	c.wByte(mInitOK)
	c.wU64(uint64(g.LoadBytes()))
	c.wBlob([]byte(advertise))
	c.flush()
	if c.werr != nil {
		st.close()
		return nil, c.werr
	}
	if st.mesh {
		if err := workerMeshJoin(st, ln); err != nil {
			st.close()
			return nil, err
		}
		c.wByte(mReady)
		c.flush()
	}
	if err := c.err(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// workerMeshJoin receives the roster and establishes one stream per peer:
// this worker dials every peer with a lower index (their listeners are
// guaranteed up — every listener opens before any init ack) and accepts
// every higher one, identified by a hello preamble.
func workerMeshJoin(st *workerState, ln net.Listener) error {
	c := st.c
	if err := c.expect(mRoster); err != nil {
		return err
	}
	self, procs := int(c.rU32()), int(c.rU32())
	if c.rerr != nil {
		return c.rerr
	}
	if procs < 1 || procs > 1<<16 || self < 0 || self >= procs {
		return fmt.Errorf("roster slot %d of %d", self, procs)
	}
	addrs := make([]string, procs)
	for i := range addrs {
		addrs[i] = string(c.rBlob(maxAddrLen))
	}
	if c.rerr != nil {
		return c.rerr
	}
	st.self, st.procs = self, procs
	st.peers = make([]*conn, procs)
	peerConn := func(j int, nc net.Conn) {
		// Worker-side registries are scraped by nothing today; the
		// counters exist so a future worker telemetry endpoint gets mesh
		// traffic for free.
		tx := obs.Default.Counter("rbb_mesh_tx_bytes_total",
			"Bytes written to one peer's mesh socket.",
			obs.Label{Key: "peer", Value: addrs[j]})
		rx := obs.Default.Counter("rbb_mesh_rx_bytes_total",
			"Bytes read from one peer's mesh socket.",
			obs.Label{Key: "peer", Value: addrs[j]})
		st.peerConns = append(st.peerConns, nc)
		st.peers[j] = newConn(nc, nc, tx, rx)
	}
	for j := 0; j < self; j++ {
		nc, err := net.DialTimeout("tcp", addrs[j], peerDialTimeout)
		if err != nil {
			return fmt.Errorf("dialing peer %d at %s: %w", j, addrs[j], err)
		}
		peerConn(j, nc)
		pc := st.peers[j]
		pc.wU64(peerMagic)
		pc.wU32(ProtoVersion)
		pc.wU32(uint32(self))
		pc.flush()
		if pc.werr != nil {
			return fmt.Errorf("greeting peer %d at %s: %w", j, addrs[j], pc.werr)
		}
	}
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(time.Now().Add(peerAcceptTimeout))
	}
	for got := self + 1; got < procs; got++ {
		nc, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("accepting peer: %w", err)
		}
		// The hello preamble is read raw — exactly 16 bytes, no
		// read-ahead — so the framed conn built afterwards starts clean.
		var hello [16]byte
		nc.SetReadDeadline(time.Now().Add(peerDialTimeout))
		_, err = io.ReadFull(nc, hello[:])
		nc.SetReadDeadline(time.Time{})
		magic := binary.LittleEndian.Uint64(hello[:8])
		version := binary.LittleEndian.Uint32(hello[8:12])
		j := int(binary.LittleEndian.Uint32(hello[12:16]))
		if err != nil || magic != peerMagic || version != ProtoVersion {
			nc.Close()
			return fmt.Errorf("bad peer hello from %s", nc.RemoteAddr())
		}
		if j <= self || j >= procs || st.peers[j] != nil {
			nc.Close()
			return fmt.Errorf("peer hello names slot %d (own slot %d of %d)", j, self, procs)
		}
		peerConn(j, nc)
	}
	return nil
}

// workerLoop serves rounds and snapshots until quit/EOF.
func workerLoop(st *workerState) error {
	c := st.c
	g := st.g
	for {
		t := c.rByte()
		if c.rerr != nil {
			if errors.Is(c.rerr, io.EOF) {
				return nil // coordinator gone: clean shutdown
			}
			return c.rerr
		}
		switch t {
		case mStep:
			g.Release(st.arrive)
			if st.mesh {
				if err := workerMeshExchange(st); err != nil {
					return err
				}
				g.Commit()
				st.round++
				workerStats(c, g)
			} else {
				c.wByte(mExchange)
				c.wU32(uint32((g.Hi() - g.Lo()) * (g.Shards() - (g.Hi() - g.Lo()))))
				for src := g.Lo(); src < g.Hi(); src++ {
					for dst := 0; dst < g.Shards(); dst++ {
						if dst >= g.Lo() && dst < g.Hi() {
							continue
						}
						c.wU32(uint32(src))
						c.wU32(uint32(dst))
						c.wI32Buf(g.Outgoing(src, dst))
					}
				}
				c.flush()
			}
		case mCommit:
			if st.mesh {
				return errors.New("commit frame in mesh mode")
			}
			nbuf := int(c.rU32())
			for i := 0; i < nbuf && c.rerr == nil; i++ {
				src, dst := int(c.rU32()), int(c.rU32())
				st.dbuf = c.rI32Buf(st.dbuf)
				if c.rerr != nil {
					break
				}
				if src < 0 || src >= g.Shards() || (src >= g.Lo() && src < g.Hi()) || dst < g.Lo() || dst >= g.Hi() {
					return fmt.Errorf("inbound buffer %d→%d outside range [%d,%d)", src, dst, g.Lo(), g.Hi())
				}
				g.Deliver(src, dst, st.dbuf)
			}
			if c.rerr != nil {
				return c.rerr
			}
			g.Commit()
			st.round++
			workerStats(c, g)
		case mSnapshotReq:
			compress := c.rByte()
			if c.rerr != nil {
				return c.rerr
			}
			if compress > 1 {
				return fmt.Errorf("invalid snapshot compress byte %d", compress)
			}
			if err := workerSnapshot(c, g, compress == 1); err != nil {
				return err
			}
		case mQuit:
			return nil
		default:
			return fmt.Errorf("unexpected frame type %d", t)
		}
		if err := c.err(); err != nil {
			return err
		}
	}
}

// workerStats sends the round-closing stats frame.
func workerStats(c *conn, g *shard.Group) {
	c.wByte(mStats)
	c.wU64(uint64(g.Released()))
	c.wU64(uint64(g.Staged()))
	c.wU32(uint32(g.MaxLoad()))
	c.wU64(uint64(g.EmptyBins()))
	c.wU64(uint64(g.LoadBytes()))
	c.flush()
}

// workerMeshExchange delivers this round's cross-worker buffers directly:
// one goroutine per peer writes the outbound frame (each stream has a
// dedicated writer, so no send can deadlock), while inbound frames drain
// sequentially in peer order — the arrival order on each stream is fixed,
// and Deliver copies into the inbox, so the commit drain stays in global
// source order regardless of peer scheduling.
func workerMeshExchange(st *workerState) error {
	g := st.g
	var wg sync.WaitGroup
	for j, pc := range st.peers {
		if pc == nil {
			continue
		}
		wg.Add(1)
		go func(j int, pc *conn) {
			defer wg.Done()
			plo := shard.PartitionStart(g.Shards(), st.procs, j)
			phi := shard.PartitionStart(g.Shards(), st.procs, j+1)
			pc.wByte(mPeerFrame)
			pc.wU64(uint64(st.round))
			for src := g.Lo(); src < g.Hi(); src++ {
				for dst := plo; dst < phi; dst++ {
					pc.wU32(uint32(src))
					pc.wU32(uint32(dst))
					pc.wI32Buf(g.Outgoing(src, dst))
				}
			}
			pc.flush()
		}(j, pc)
	}
	var err error
	for j, pc := range st.peers {
		if pc == nil {
			continue
		}
		if err = workerMeshReceive(st, j, pc); err != nil {
			err = fmt.Errorf("peer %d: %w", j, err)
			break
		}
	}
	wg.Wait()
	if err != nil {
		return err
	}
	for j, pc := range st.peers {
		if pc != nil && pc.werr != nil {
			return fmt.Errorf("peer %d: %w", j, pc.werr)
		}
	}
	return nil
}

// workerMeshReceive drains peer j's frame for the in-flight round: the
// (src, dst) buffers from j's shards to ours, in canonical order.
func workerMeshReceive(st *workerState, j int, pc *conn) error {
	g := st.g
	if err := pc.expect(mPeerFrame); err != nil {
		return err
	}
	if r := pc.rU64(); pc.rerr == nil && r != uint64(st.round) {
		return fmt.Errorf("frame for round %d, want %d", r, st.round)
	}
	plo := shard.PartitionStart(g.Shards(), st.procs, j)
	phi := shard.PartitionStart(g.Shards(), st.procs, j+1)
	for src := plo; src < phi; src++ {
		for dst := g.Lo(); dst < g.Hi(); dst++ {
			rsrc, rdst := int(pc.rU32()), int(pc.rU32())
			st.dbuf = pc.rI32Buf(st.dbuf)
			if pc.rerr != nil {
				return pc.rerr
			}
			if rsrc != src || rdst != dst {
				return fmt.Errorf("buffer %d→%d, want %d→%d", rsrc, rdst, src, dst)
			}
			g.Deliver(src, dst, st.dbuf)
		}
	}
	return nil
}

// workerSnapshot encodes the owned shards as checkpoint v2 frames straight
// from live shard memory — concurrently, in a bounded window
// (checkpoint.EncodeShards) — and streams them to the coordinator in shard
// order. Across P workers this is the fan-out that makes a multi-process
// checkpoint encode scale with the process count.
func workerSnapshot(c *conn, g *shard.Group, compress bool) error {
	c.wByte(mSnapshot)
	err := checkpoint.EncodeShards(g, compress, func(frame []byte) error {
		c.wBlob(frame)
		return c.werr
	})
	if err != nil {
		return err
	}
	c.flush()
	return c.werr
}
