package proc_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/shard"
	"repro/internal/shard/transport/proc"
)

// TestMain doubles as the worker entry point: the coordinator re-executes
// this test binary, and MaybeWorker diverts the child into the worker
// protocol before any test runs.
func TestMain(m *testing.M) {
	proc.MaybeWorker()
	os.Exit(m.Run())
}

// ckptBytes serializes the current engine state of p in the checkpoint
// format — the byte-comparison currency of the invariance tests.
func ckptBytes(t *testing.T, seed uint64, p checkpoint.Process) []byte {
	t.Helper()
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := checkpoint.Save(&b, &checkpoint.Snapshot{Seed: seed, Engine: snap}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestTransportInvarianceMatrix is the tentpole acceptance gate: the same
// (seed, n, S) trajectory, executed under spawn-per-phase, the persistent
// pool (W = 1 and 4), and the 2-process transport, must produce
// byte-identical final checkpoints. Full size is n = 2²⁰, S = 8 (the CI
// resume-equivalence scale); -short drops n to 2¹⁶ for the race job.
func TestTransportInvarianceMatrix(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	const (
		seed   = 3
		s      = 8
		rounds = 50
	)
	loads := config.OnePerBin(n)

	type variant struct {
		name string
		run  func() []byte
	}
	inproc := func(kind shard.TransportKind, workers int) func() []byte {
		return func() []byte {
			p, err := shard.NewProcess(loads, seed, shard.Options{Shards: s, Workers: workers, Transport: kind})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			p.Run(rounds)
			return ckptBytes(t, seed, p)
		}
	}
	variants := []variant{
		{"spawn(W=4)", inproc(shard.TransportSpawn, 4)},
		{"pool(W=1)", inproc(shard.TransportPool, 1)},
		{"pool(W=4)", inproc(shard.TransportPool, 4)},
		{"proc(P=2)", func() []byte {
			e, err := proc.NewProcess(loads, seed, proc.Options{Shards: s, Procs: 2, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for r := 0; r < rounds; r++ {
				e.Step()
			}
			return ckptBytes(t, seed, e)
		}},
	}
	ref := variants[0].run()
	if len(ref) == 0 {
		t.Fatal("empty reference checkpoint")
	}
	for _, v := range variants[1:] {
		if got := v.run(); !bytes.Equal(got, ref) {
			t.Errorf("%s: final checkpoint differs from %s (%d vs %d bytes)", v.name, variants[0].name, len(got), len(ref))
		}
	}
}

// TestStreamedCheckpointMatchesInProcess: checkpoint.Run writes the same
// file whether the shard frames come from worker processes (encoded there,
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
		e, err := proc.NewProcess(loads, seed, proc.Options{Shards: s, Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		got := write(filepath.Join(dir, "proc.ckpt"), e, compress)
		e.Close()
		if !bytes.Equal(got, want) {
			t.Errorf("compress=%v: worker-streamed checkpoint (%d bytes) differs from the in-process one (%d bytes)", compress, len(got), len(want))
		}
	}
}

// TestProcStats pins the folded per-round statistics against an in-process
// run of the same law: MaxLoad, EmptyBins, Released and Staged must match
// round for round, and ball conservation must hold.
func TestProcStats(t *testing.T) {
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
	e, err := proc.NewProcess(loads, seed, proc.Options{Shards: s, Procs: 2})
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
		if e.Released() != ref.Engine().Released() || e.Staged() != ref.Engine().Staged() {
			t.Fatalf("round %d: flow diverges: released %d vs %d, staged %d vs %d",
				r, e.Released(), ref.Engine().Released(), e.Staged(), ref.Engine().Staged())
		}
	}
	got, want := e.LoadsCopy(), ref.LoadsCopy()
	for u := range got {
		if got[u] != want[u] {
			t.Fatalf("bin %d: load %d vs %d", u, got[u], want[u])
		}
	}
	if e.Round() != rounds {
		t.Fatalf("round %d, want %d", e.Round(), rounds)
	}
}

// TestProcMigration pins the join-payload claim: a checkpoint written by
// an in-process run migrates into a multi-process topology mid-run, and
// the continued trajectory matches the uninterrupted in-process one
// byte for byte.
func TestProcMigration(t *testing.T) {
	const (
		n     = 1 << 14
		s     = 6
		seed  = 29
		half  = 80
		total = 160
	)
	loads := config.OnePerBin(n)

	full, err := shard.NewProcess(loads, seed, shard.Options{Shards: s})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	full.Run(total)
	want := ckptBytes(t, seed, full)

	first, err := shard.NewProcess(loads, seed, shard.Options{Shards: s})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	first.Run(half)
	eng, err := first.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the serialized form, as a real migration would.
	var mid bytes.Buffer
	if err := checkpoint.Save(&mid, &checkpoint.Snapshot{Seed: seed, Engine: eng}); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(bytes.NewReader(mid.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	e, err := proc.New(snap, proc.Options{Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Round() != half {
		t.Fatalf("migrated engine at round %d, want %d", e.Round(), half)
	}
	for e.Round() < total {
		e.Step()
	}
	if got := ckptBytes(t, seed, e); !bytes.Equal(got, want) {
		t.Error("migrated 3-process continuation differs from uninterrupted in-process run")
	}
}

// TestProcValidation covers the coordinator's argument checking.
// TestProcWorkerExitStatus: a worker that dies before completing the join
// handshake fails construction with its exit status in the error.
func TestProcWorkerExitStatus(t *testing.T) {
	_, err := proc.NewProcess(make([]int32, 8), 1, proc.Options{
		Shards: 2, Procs: 2, Command: []string{"/bin/false"},
	})
	if err == nil {
		t.Fatal("dead-on-arrival worker command succeeded")
	}
	if !strings.Contains(err.Error(), "exit status 1") {
		t.Fatalf("error %q does not carry the worker's exit status", err)
	}
}

func TestProcValidation(t *testing.T) {
	if _, err := proc.New(nil, proc.Options{Procs: 2}); err == nil {
		t.Error("nil snapshot accepted")
	}
	if _, err := proc.NewProcess(nil, 1, proc.Options{Shards: 2, Procs: 2}); err == nil {
		t.Error("no bins accepted")
	}
	// Procs beyond S clamps rather than failing (placement must never
	// change the law).
	e, err := proc.NewProcess(make([]int32, 16), 1, proc.Options{Shards: 2, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Procs() != 2 {
		t.Errorf("procs = %d, want clamp to 2", e.Procs())
	}
	e.Step()
	if err := e.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}
