package tcp_test

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/shard"
	"repro/internal/shard/transport/tcp"
	"repro/internal/tetris"
)

// The coordinator re-executes this test binary as its workers: the hook
// dials back self-spawned workers. In a normal test process it returns
// immediately.
func TestMain(m *testing.M) {
	tcp.MaybeWorker()
	os.Exit(m.Run())
}

// ckptBytes serializes the current engine state of p in the checkpoint
// format, the strongest equality we can assert across transports.
func ckptBytes(t *testing.T, seed uint64, p checkpoint.Process) []byte {
	t.Helper()
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	var b bytes.Buffer
	if err := checkpoint.Save(&b, &checkpoint.Snapshot{Seed: seed, Engine: snap}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return b.Bytes()
}

// TestTransportInvarianceMatrixTCP is the transport-invariance matrix: the
// in-process pool (W = 4, the reference, and W = 1), the TCP star and the
// TCP worker mesh must all produce byte-identical checkpoints for the same
// (seed, n, S). Full size is n = 2²⁰, S = 8 (the CI equivalence scale);
// -short drops n to 2¹⁶ for the race job.
func TestTransportInvarianceMatrixTCP(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	const (
		seed   = 3
		s      = 8
		rounds = 50
	)
	loads := make([]int32, n)
	for i := range loads {
		loads[i] = 1
	}

	run := func(t *testing.T, build func() (checkpoint.Process, func() error, error)) []byte {
		t.Helper()
		p, close, err := build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		defer close()
		for r := 0; r < rounds; r++ {
			p.(interface{ Step() }).Step()
		}
		return ckptBytes(t, seed, p)
	}

	want := run(t, func() (checkpoint.Process, func() error, error) {
		p, err := shard.NewProcess(loads, seed, shard.Options{Shards: s, Workers: 4})
		if err != nil {
			return nil, nil, err
		}
		return p, p.Close, nil
	})

	variants := []struct {
		name  string
		build func() (checkpoint.Process, func() error, error)
	}{
		{"pool-W1", func() (checkpoint.Process, func() error, error) {
			p, err := shard.NewProcess(loads, seed, shard.Options{Shards: s, Workers: 1})
			if err != nil {
				return nil, nil, err
			}
			return p, p.Close, nil
		}},
		{"tcp-P2", func() (checkpoint.Process, func() error, error) {
			e, err := tcp.NewProcess(loads, seed, tcp.Options{Shards: s, Procs: 2, Workers: 2})
			if err != nil {
				return nil, nil, err
			}
			return e, e.Close, nil
		}},
		{"tcp-mesh-P2", func() (checkpoint.Process, func() error, error) {
			e, err := tcp.NewProcess(loads, seed, tcp.Options{Shards: s, Procs: 2, Workers: 2, Mesh: true})
			if err != nil {
				return nil, nil, err
			}
			return e, e.Close, nil
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			if got := run(t, v.build); !bytes.Equal(got, want) {
				t.Fatalf("%s checkpoint differs from pool after %d rounds", v.name, rounds)
			}
		})
	}
}

// TestStreamedCheckpointMatchesInProcess: checkpoint.Run writes the same
// file whether the shard frames come from mesh workers (encoded there,
// relayed by the coordinator) or from the in-process engine's live shards
// — one encoder, checkpoint.EncodeShards, on both sides — for raw and
// compressed frames. The all-in-one start mixes widths: shard 0 holds every
// ball at width 16, the others run at width 8.
func TestStreamedCheckpointMatchesInProcess(t *testing.T) {
	const (
		n      = 20011
		s      = 7
		seed   = 5
		rounds = 40
	)
	loads := config.AllInOne(n, n)
	write := func(path string, p checkpoint.Process, compress bool) []byte {
		t.Helper()
		pipe, err := shard.NewPipeline([]float64{0.5, 0.99})
		if err != nil {
			t.Fatal(err)
		}
		pol := checkpoint.Policy{Path: path, Every: 16, Seed: seed, Pipeline: pipe, Compress: compress}
		if _, _, err := checkpoint.Run(context.Background(), p, rounds, pol); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dir := t.TempDir()
	for _, compress := range []bool{false, true} {
		in, err := shard.NewProcess(loads, seed, shard.Options{Shards: s})
		if err != nil {
			t.Fatal(err)
		}
		want := write(filepath.Join(dir, "inproc.ckpt"), in, compress)
		in.Close()
		e, err := tcp.NewProcess(loads, seed, tcp.Options{Shards: s, Procs: 2, Mesh: true})
		if err != nil {
			t.Fatal(err)
		}
		got := write(filepath.Join(dir, "mesh.ckpt"), e, compress)
		e.Close()
		if !bytes.Equal(got, want) {
			t.Errorf("compress=%v: worker-streamed checkpoint (%d bytes) differs from the in-process one (%d bytes)", compress, len(got), len(want))
		}
	}
}

// TestMeshStats pins the folded per-round statistics of a mesh run against
// an in-process run of the same law: MaxLoad, EmptyBins, Released and
// Staged must match round for round, ball conservation must hold, and the
// final states must checkpoint byte-identically.
func TestMeshStats(t *testing.T) {
	const (
		n      = 4096
		s      = 4
		seed   = 11
		rounds = 120
	)
	loads := config.AllInOne(n, n)
	ref, err := shard.NewProcess(loads, seed, shard.Options{Shards: s})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	e, err := tcp.NewProcess(loads, seed, tcp.Options{Shards: s, Procs: 2, Mesh: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Balls() != int64(n) {
		t.Fatalf("balls %d, want %d", e.Balls(), n)
	}
	if e.N() != n || e.Shards() != s || e.Procs() != 2 {
		t.Fatalf("shape: n=%d s=%d procs=%d", e.N(), e.Shards(), e.Procs())
	}
	for r := 0; r < rounds; r++ {
		ref.Step()
		e.Step()
		if e.MaxLoad() != ref.MaxLoad() || e.EmptyBins() != ref.EmptyBins() {
			t.Fatalf("round %d: stats diverge: max %d vs %d, empty %d vs %d",
				r, e.MaxLoad(), ref.MaxLoad(), e.EmptyBins(), ref.EmptyBins())
		}
		if e.Released() != ref.Released() || e.Staged() != ref.Staged() {
			t.Fatalf("round %d: flow diverges: released %d vs %d, staged %d vs %d",
				r, e.Released(), ref.Released(), e.Staged(), ref.Staged())
		}
	}
	if got, want := ckptBytes(t, seed, e), ckptBytes(t, seed, ref); !bytes.Equal(got, want) {
		t.Fatalf("mesh checkpoint differs from in-process after %d rounds", rounds)
	}
	if e.Balls() != int64(n) {
		t.Fatalf("balls %d after %d rounds, want %d", e.Balls(), rounds, n)
	}
	if e.Round() != rounds {
		t.Fatalf("round %d, want %d", e.Round(), rounds)
	}
}

// TestTCPMigrationStarToMesh pins the cross-topology resume path: a run
// born on the TCP star at P = 2, checkpointed mid-flight and reopened on
// TCP mesh workers at P = 3 must land byte-identical to an uninterrupted
// in-process run. (rbb-sim's TestRunResumeTCPMigration covers the
// in-process-born leg.)
func TestTCPMigrationStarToMesh(t *testing.T) {
	const (
		n     = 1 << 14
		seed  = 29
		s     = 6
		half  = 40
		total = 100
	)
	loads := make([]int32, n)

	full, err := shard.NewProcess(loads, seed, shard.Options{Shards: s})
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	defer full.Close()
	full.Run(total)
	want := ckptBytes(t, seed, full)

	first, err := tcp.NewProcess(loads, seed, tcp.Options{Shards: s, Procs: 2})
	if err != nil {
		t.Fatalf("tcp.NewProcess: %v", err)
	}
	for r := 0; r < half; r++ {
		first.Step()
	}
	mid := ckptBytes(t, seed, first)
	if err := first.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	snap, err := checkpoint.Load(bytes.NewReader(mid))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	e, err := tcp.New(snap, tcp.Options{Procs: 3, Mesh: true})
	if err != nil {
		t.Fatalf("tcp.New: %v", err)
	}
	defer e.Close()
	if got := e.Round(); got != half {
		t.Fatalf("resumed at round %d, want %d", got, half)
	}
	for r := half; r < total; r++ {
		e.Step()
	}
	if got := ckptBytes(t, seed, e); !bytes.Equal(got, want) {
		t.Fatalf("star-born run migrated to tcp mesh diverged from uninterrupted run")
	}
}

// TestTCPHostsAndProbe drives the host-daemon mode in-process: two
// Serve loops on loopback listeners play the role of `rbb-sim -worker
// -listen` daemons, the coordinator dials them via Options.Hosts, and
// the mesh run must match the in-process pool. Probe must accept the
// live daemons (and not disturb them — the run follows the probes on
// the same listeners) and reject a dead port.
func TestTCPHostsAndProbe(t *testing.T) {
	const (
		n      = 1 << 14
		seed   = 7
		s      = 4
		rounds = 60
	)
	loads := make([]int32, n)

	hosts := make([]string, 2)
	for i := range hosts {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		defer ln.Close()
		hosts[i] = ln.Addr().String()
		go tcp.Serve(ln, io.Discard)
	}

	for _, h := range hosts {
		if err := tcp.Probe(h, time.Second); err != nil {
			t.Fatalf("Probe(%s): %v", h, err)
		}
	}
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	if err := tcp.Probe(deadAddr, 500*time.Millisecond); err == nil {
		t.Fatalf("Probe(%s) of a closed port succeeded", deadAddr)
	}

	ref, err := shard.NewProcess(loads, seed, shard.Options{Shards: s})
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	defer ref.Close()
	ref.Run(rounds)
	want := ckptBytes(t, seed, ref)

	e, err := tcp.NewProcess(loads, seed, tcp.Options{Shards: s, Hosts: hosts, Mesh: true})
	if err != nil {
		t.Fatalf("tcp.NewProcess(hosts): %v", err)
	}
	defer e.Close()
	if got := e.Procs(); got != len(hosts) {
		t.Fatalf("Procs() = %d, want %d", got, len(hosts))
	}
	for r := 0; r < rounds; r++ {
		e.Step()
	}
	if got := ckptBytes(t, seed, e); !bytes.Equal(got, want) {
		t.Fatalf("hosts-mode mesh checkpoint differs from pool")
	}
}

// TestArrivalRulesOverTCP pins the serialized arrival rules: each rule
// kind crosses the wire and produces the same trajectory on TCP mesh
// workers as on the TCP star and as the in-process Tetris engine
// (byte-identical checkpoints and identical ball counts).
func TestArrivalRulesOverTCP(t *testing.T) {
	const (
		n      = 1 << 13
		seed   = 17
		s      = 4
		rounds = 80
	)
	laws := []struct {
		name string
		law  tetris.ArrivalLaw
	}{
		{"quota", tetris.Deterministic},
		{"binomial", tetris.BinomialArrivals},
		{"poisson", tetris.PoissonArrivals},
	}
	for _, l := range laws {
		t.Run(l.name, func(t *testing.T) {
			loads := make([]int32, n)
			ref, err := shard.NewTetris(loads, seed, shard.TetrisOptions{Options: shard.Options{Shards: s}, Law: l.law})
			if err != nil {
				t.Fatalf("NewTetris: %v", err)
			}
			defer ref.Close()
			ref.Run(rounds)
			rule := ref.Rule()

			star, err := tcp.NewProcess(loads, seed, tcp.Options{Shards: s, Procs: 2, Rule: rule})
			if err != nil {
				t.Fatalf("tcp.NewProcess: %v", err)
			}
			defer star.Close()
			mesh, err := tcp.NewProcess(loads, seed, tcp.Options{Shards: s, Procs: 2, Rule: rule, Mesh: true})
			if err != nil {
				t.Fatalf("tcp.NewProcess: %v", err)
			}
			defer mesh.Close()
			for r := 0; r < rounds; r++ {
				star.Step()
				mesh.Step()
			}

			if got, want := ckptBytes(t, seed, mesh), ckptBytes(t, seed, star); !bytes.Equal(got, want) {
				t.Fatalf("%s rule: tcp-mesh checkpoint differs from the star", l.name)
			}
			if got, want := mesh.Balls(), ref.Balls(); got != want {
				t.Fatalf("%s rule: Balls() = %d over tcp, %d in process", l.name, got, want)
			}
			if got, want := ckptBytes(t, seed, mesh), ckptBytes(t, seed, ref); !bytes.Equal(got, want) {
				t.Fatalf("%s rule: tcp-mesh checkpoint differs from in-process tetris", l.name)
			}
		})
	}
}

// TestRunRefusesBatchRuleCheckpoints pins checkpoint.Run's rule guard on
// the multi-process placements. The checkpoint format records no arrival
// rule, so a tetris or batches run checkpointed on the star or the mesh
// would later resume as an rbb run. Run must refuse it before the first
// round, with an error naming the rule, and leave no file behind.
func TestRunRefusesBatchRuleCheckpoints(t *testing.T) {
	const (
		n    = 4096
		s    = 4
		seed = 5
	)
	loads := config.OnePerBin(n)
	for _, topo := range []struct {
		name string
		mesh bool
	}{{"star", false}, {"mesh", true}} {
		for _, law := range []tetris.ArrivalLaw{tetris.Deterministic, tetris.BinomialArrivals} {
			rule, err := shard.RuleForLaw(law, 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(topo.name+"/"+rule.Kind.String(), func(t *testing.T) {
				e, err := tcp.NewProcess(loads, seed, tcp.Options{Shards: s, Procs: 2, Rule: rule, Mesh: topo.mesh})
				if err != nil {
					t.Fatalf("tcp.NewProcess: %v", err)
				}
				defer e.Close()
				path := filepath.Join(t.TempDir(), "run.ckpt")
				_, _, err = checkpoint.Run(context.Background(), e, 20, checkpoint.Policy{Path: path, Seed: seed})
				if err == nil || !strings.Contains(err.Error(), e.Rule().String()) {
					t.Fatalf("checkpoint.Run: %v, want an error naming %s", err, e.Rule())
				}
				if e.Round() != 0 {
					t.Errorf("refused run stepped to round %d", e.Round())
				}
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Errorf("refused run left a checkpoint behind (stat: %v)", err)
				}
			})
		}
	}
}

// TestTCPWorkerDeathFailFast kills one worker mid-run and requires the
// coordinator to fail fast — a panic naming the dead worker (with its
// exit status, since it is self-spawned) rather than a hang on the dead
// socket — and to shut the surviving worker down cleanly.
func TestTCPWorkerDeathFailFast(t *testing.T) {
	const (
		n    = 1 << 12
		seed = 5
		s    = 4
	)
	loads := make([]int32, n)
	e, err := tcp.NewProcess(loads, seed, tcp.Options{Shards: s, Procs: 2})
	if err != nil {
		t.Fatalf("tcp.NewProcess: %v", err)
	}
	defer e.Close()
	e.Step()
	e.KillWorker(0)

	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		for i := 0; i < 1_000_000; i++ {
			e.Step()
		}
		done <- nil
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatalf("Step kept succeeding after worker kill")
		}
		msg, ok := r.(string)
		if !ok {
			if err, isErr := r.(error); isErr {
				msg = err.Error()
			} else {
				t.Fatalf("panic value %T: %v", r, r)
			}
		}
		if !strings.Contains(msg, "round") || !strings.Contains(msg, "exited") {
			t.Fatalf("panic %q does not name the round and the dead worker", msg)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("coordinator hung on dead worker instead of failing fast")
	}
}

// TestTCPValidation exercises the construction guard rails.
func TestTCPValidation(t *testing.T) {
	if _, err := tcp.New(nil, tcp.Options{}); err == nil {
		t.Fatalf("New(nil) succeeded")
	}
	if _, err := tcp.NewProcess(nil, 1, tcp.Options{Shards: 2, Procs: 2}); err == nil {
		t.Fatalf("NewProcess with no bins succeeded")
	}
	if _, err := tcp.NewProcess(make([]int32, 8), 1, tcp.Options{Shards: 2, Procs: 3, Hosts: []string{"a", "b"}}); err == nil {
		t.Fatalf("mismatched Procs vs Hosts succeeded")
	}
	if _, err := tcp.NewProcess(make([]int32, 8), 1, tcp.Options{Shards: 2, Hosts: []string{"a", "b", "c"}}); err == nil {
		t.Fatalf("more hosts than shards succeeded")
	}
	// Procs above S clamps rather than errors (placement must never change
	// the law).
	e, err := tcp.NewProcess(make([]int32, 16), 1, tcp.Options{Shards: 2, Procs: 8})
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	if got := e.Procs(); got != 2 {
		t.Fatalf("Procs() = %d, want clamp to 2", got)
	}
	e.Step()
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestTCPSpawnExitStatus: a self-spawned worker that dies before joining
// fails construction with its exit status in the error, not a bare accept
// timeout.
func TestTCPSpawnExitStatus(t *testing.T) {
	tcp.SetJoin(t, []string{"/bin/false"}, 2*time.Second)
	_, err := tcp.NewProcess(make([]int32, 8), 1, tcp.Options{Shards: 2, Procs: 2})
	if err == nil {
		t.Fatal("dead-on-arrival worker command succeeded")
	}
	if !strings.Contains(err.Error(), "exited") || !strings.Contains(err.Error(), "exit status 1") {
		t.Fatalf("error %q does not carry the worker's exit status", err)
	}
}

// benchTCP measures dense rounds over the loopback TCP transport; the
// star/mesh pair is the BENCH_tcp.json ablation (EXPERIMENTS.md E26):
// identical trajectories, different relay topology.
func benchTCP(b *testing.B, mesh bool) {
	n := 1 << 20
	loads := make([]int32, n)
	for i := range loads {
		loads[i] = 1
	}
	e, err := tcp.NewProcess(loads, 1, tcp.Options{Shards: 8, Procs: 2, Mesh: mesh})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkTCPStar(b *testing.B) { benchTCP(b, false) }
func BenchmarkTCPMesh(b *testing.B) { benchTCP(b, true) }
