package tcp

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/shard"
)

// syncBuffer is a daemon log the test can read while the daemon writes.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon serves a worker daemon on a loopback listener until the test
// ends and returns its address and session log.
func startDaemon(t *testing.T) (string, *syncBuffer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	log := &syncBuffer{}
	done := make(chan struct{})
	go func() {
		Serve(ln, log)
		close(done)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String(), log
}

// hostRun runs a fresh rbb run for rounds rounds on the daemon at addr and
// returns its final checkpoint bytes.
func hostRun(loads []int32, seed uint64, shards, rounds int, addr string) ([]byte, error) {
	e, err := NewProcess(loads, seed, Options{Shards: shards, Hosts: []string{addr}})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	for r := 0; r < rounds; r++ {
		e.Step()
	}
	return CheckpointBytes(e, seed)
}

// inProcess is hostRun's in-process reference.
func inProcess(t *testing.T, loads []int32, seed uint64, shards, rounds int) []byte {
	t.Helper()
	p, err := shard.NewProcess(loads, seed, shard.Options{Shards: shards})
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	defer p.Close()
	p.Run(int64(rounds))
	b, err := CheckpointBytes(p, seed)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return b
}

// TestDaemonDropsIdleClient: a daemon serves one session at a time, so a
// client that connects and never sends an init frame must not hold it.
// The daemon drops the idle connection once its init wait expires and
// then serves the run queued behind it.
func TestDaemonDropsIdleClient(t *testing.T) {
	const (
		n      = 4096
		s      = 2
		seed   = 9
		rounds = 20
	)
	SetJoin(t, nil, 250*time.Millisecond)
	addr, _ := startDaemon(t)
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer idle.Close()

	loads := config.OnePerBin(n)
	want := inProcess(t, loads, seed, s, rounds)
	type result struct {
		b   []byte
		err error
	}
	got := make(chan result, 1)
	go func() {
		b, err := hostRun(loads, seed, s, rounds, addr)
		got <- result{b, err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("run behind an idle client: %v", r.err)
		}
		if !bytes.Equal(r.b, want) {
			t.Fatalf("run behind an idle client differs from the in-process run")
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("run behind an idle client still waiting after 10s: the daemon is wedged")
	}
}

// TestJoinBusyDaemonFails: a daemon serves one session at a time, so a
// run naming a daemon busy with another live session is accepted by the
// listen backlog and then never answered. Its join must fail within the
// join wait, with an error naming the host, instead of waiting out the
// other run; once that session ends, the daemon serves a normal run.
func TestJoinBusyDaemonFails(t *testing.T) {
	const (
		n      = 4096
		s      = 2
		seed   = 11
		rounds = 20
	)
	SetJoin(t, nil, 250*time.Millisecond)
	addr, _ := startDaemon(t)
	loads := config.OnePerBin(n)
	busy, err := NewProcess(loads, seed, Options{Shards: s, Hosts: []string{addr}})
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	defer busy.Close() // a failing test must still free the daemon
	busy.Step()

	failed := make(chan error, 1)
	go func() {
		e, err := NewProcess(loads, seed, Options{Shards: s, Hosts: []string{addr}})
		if err == nil {
			e.Close()
		}
		failed <- err
	}()
	select {
	case err := <-failed:
		if err == nil {
			t.Fatal("a run joined a daemon busy with another session")
		}
		for _, want := range []string{addr, "did not answer within the join wait"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("busy-daemon join error %q lacks %q", err, want)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a run naming a busy daemon still waiting after 10s")
	}
	busy.Close()

	got, err := hostRun(loads, seed, s, rounds, addr)
	if err != nil {
		t.Fatalf("run after the busy session: %v", err)
	}
	if !bytes.Equal(got, inProcess(t, loads, seed, s, rounds)) {
		t.Fatalf("run after the busy session differs from the in-process run")
	}
}

// TestDaemonSurvivesBadSessions writes bad sessions to one daemon — a
// probe, garbage, an init frame of another protocol version, a join the
// worker refuses — and requires each to end without taking the daemon
// down, every refusal to reach the client as the worker's error frame,
// and a normal run to follow.
func TestDaemonSurvivesBadSessions(t *testing.T) {
	const (
		n      = 4096
		s      = 2
		seed   = 13
		rounds = 20
	)
	addr, log := startDaemon(t)
	// session writes raw bytes and returns the daemon's refusal.
	session := func(write func(c *conn)) error {
		t.Helper()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer nc.Close()
		c := newConn(nc, nc, nil, nil)
		write(c)
		c.flush()
		return c.expect(mInitOK)
	}

	if err := Probe(addr, time.Second); err != nil {
		t.Fatalf("Probe: %v", err)
	}
	err := session(func(c *conn) { c.wBytes([]byte("garbage")) })
	if want := "unexpected frame type 103 (want 1)"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("garbage session: %v, want an error frame with %q", err, want)
	}
	err = session(func(c *conn) {
		c.wByte(mInit)
		c.wU32(3)
	})
	if want := "worker: protocol version 3, worker speaks 4"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("old-version session: %v, want an error frame with %q", err, want)
	}
	loads := config.OnePerBin(n)
	_, err = NewProcess(loads, seed, Options{Shards: s, Hosts: []string{addr}, Workers: 1 << 17})
	if want := "131072 local workers"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("NewProcess with 1<<17 workers: %v, want the worker's %q", err, want)
	}

	got, err := hostRun(loads, seed, s, rounds, addr)
	if err != nil {
		t.Fatalf("run after bad sessions: %v", err)
	}
	if !bytes.Equal(got, inProcess(t, loads, seed, s, rounds)) {
		t.Fatalf("run after bad sessions differs from the in-process run")
	}
	for _, want := range []string{"unexpected frame type 103", "protocol version 3", "131072 local workers"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("daemon log lacks %q:\n%s", want, log.String())
		}
	}
}
