package tcp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"

	"repro/internal/obs"
	"repro/internal/shard/transport/wire"
)

// IsWorker reports whether this process was spawned as a tcp-transport
// dial-back worker.
func IsWorker() bool { return os.Getenv(connectEnvVar) != "" }

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
	if err := Connect(addr); err != nil {
		fmt.Fprintln(os.Stderr, "rbb tcp worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// Connect dials a coordinator and serves one worker session until the
// coordinator quits or disconnects — the `rbb-sim -worker -connect`
// entry point for workers launched on other hosts against a listening
// coordinator.
func Connect(addr string) error {
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
// ignored; session errors are logged to logw (default stderr) and the
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

// serveSession runs the wire worker protocol over one coordinator socket.
// The peer listener for mesh mode binds the same interface the
// coordinator reached us on (its address is what peers on other machines
// can route to) with an ephemeral port.
func serveSession(nc net.Conn) error {
	return wire.ServeWorker(nc, nc, wire.WorkerConfig{
		NewPeerListener: func() (net.Listener, string, error) {
			host, _, err := net.SplitHostPort(nc.LocalAddr().String())
			if err != nil {
				return nil, "", err
			}
			ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
			if err != nil {
				return nil, "", err
			}
			return ln, ln.Addr().String(), nil
		},
		PeerCounters: func(peer string) (tx, rx *obs.Counter) {
			// Worker-side registries are scraped by nothing today; the
			// counters exist so a future worker telemetry endpoint gets
			// mesh traffic for free.
			tx = obs.Default.Counter("rbb_mesh_tx_bytes_total",
				"Bytes written to one peer's mesh socket.",
				obs.Label{Key: "peer", Value: peer})
			rx = obs.Default.Counter("rbb_mesh_rx_bytes_total",
				"Bytes read from one peer's mesh socket.",
				obs.Label{Key: "peer", Value: peer})
			return tx, rx
		},
	})
}
