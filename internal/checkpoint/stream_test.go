package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/shard"
)

// TestLiveStreamMatchesSnapshot pins the live-shard encoder's bytes: the
// checkpoint Run streams from an in-process engine must equal SaveOptions
// over Engine.Snapshot() for every storage width (reached through the
// width floor and through an all-in-one start), shard counts 1, 7 and 8
// over a non-power-of-two n, cuts right after a dense round (stale
// worklist words) and right after a sparse one, and raw and compressed
// frames. The live stream is taken first on every cut, so it rebuilds the
// stale worklist words itself.
func TestLiveStreamMatchesSnapshot(t *testing.T) {
	const n = 70001 // > 2¹⁶: an all-in-one start puts shard 0 at width 32
	for _, tc := range []struct {
		name   string
		loads  []int32
		floor  engine.Width
		rounds int64
	}{
		{"fresh", config.OnePerBin(n), engine.WidthAuto, 0},
		{"dense-w8", config.OnePerBin(n), engine.WidthAuto, 9},
		{"dense-w16-floor", config.OnePerBin(n), engine.Width16, 9},
		{"dense-w32-floor", config.OnePerBin(n), engine.Width32, 9},
		{"sparse-all-in-one", config.AllInOne(n, n), engine.WidthAuto, 4},
		{"sparse-w16-floor", config.AllInOne(n, n), engine.Width16, 4},
		{"sparse-small-all-in-one", config.AllInOne(n, 300), engine.WidthAuto, 4},
	} {
		for _, shards := range []int{1, 7, 8} {
			p, pipe := newStreamRun(t, tc.loads, shards, tc.floor, tc.rounds)
			stream, err := streamer(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, compress := range []bool{false, true} {
				opts := Options{Compress: compress}
				var live, gathered bytes.Buffer
				if err := stream(&live, 21, pipe.Snapshot(), opts); err != nil {
					t.Fatalf("%s S=%d compress=%v: %v", tc.name, shards, compress, err)
				}
				eng, err := p.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if err := SaveOptions(&gathered, &Snapshot{Seed: 21, Engine: eng, Observer: pipe.Snapshot()}, opts); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(live.Bytes(), gathered.Bytes()) {
					t.Errorf("%s S=%d compress=%v: live stream (%d bytes) differs from SaveOptions(Snapshot) (%d bytes)",
						tc.name, shards, compress, live.Len(), gathered.Len())
				}
			}
			p.Close()
		}
	}
}

// newStreamRun builds an in-process run over loads and steps it.
func newStreamRun(t *testing.T, loads []int32, shards int, floor engine.Width, rounds int64) (*shard.Process, *shard.Pipeline) {
	t.Helper()
	p, err := shard.NewProcess(loads, 21, shard.Options{Shards: shards, Width: floor})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := shard.NewPipeline([]float64{0.5, 0.99})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < rounds; i++ {
		p.Step()
		pipe.Observe(p)
	}
	return p, pipe
}

// TestLiveStreamAllocs gates the memory property of the live encoder: one
// checkpoint.Run write of a warm in-process engine at n = 2²⁰, S = 8
// allocates fewer than n bytes — about one frame per encoder — where the
// whole-run []int32 gather alone is 4n.
func TestLiveStreamAllocs(t *testing.T) {
	const n = 1 << 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p, pipe := newStreamRun(t, config.OnePerBin(n), 8, engine.WidthAuto, 8)
	defer p.Close()
	pol := Policy{Path: filepath.Join(t.TempDir(), "run.ckpt"), Seed: 21, Pipeline: pipe}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// Target = the current round: Run steps nothing and writes the final
	// checkpoint once.
	if _, _, err := Run(context.Background(), p, p.Round(), pol); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= n {
		t.Errorf("one checkpoint write allocated %d bytes, want < %d", got, n)
	} else {
		t.Logf("one checkpoint write allocated %d bytes", got)
	}
}

// TestRunCountsCheckpointBytes: rbb_ckpt_bytes_total grows by exactly the
// bytes each successful write put in the file.
func TestRunCountsCheckpointBytes(t *testing.T) {
	p, pipe := newStreamRun(t, config.OnePerBin(300), 3, engine.WidthAuto, 0)
	defer p.Close()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	writes0, bytes0 := mCkptWrites.Value(), mCkptBytes.Value()
	// Every 5 rounds to round 20: writes at 5, 10, 15 and the final 20.
	if _, _, err := Run(context.Background(), p, 20, Policy{Path: path, Every: 5, Seed: 21, Pipeline: pipe}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// One-per-bin stays at width 8, so every write has the final size.
	writes, written := mCkptWrites.Value()-writes0, mCkptBytes.Value()-bytes0
	if writes != 4 || written != 4*uint64(fi.Size()) {
		t.Errorf("counted %d writes of %d bytes, want 4 writes of %d bytes each", writes, written, fi.Size())
	}
}

// TestLoadRejectsBinsOverLimit: a well-formed v2 header declaring more
// than 2³¹ bins — more than any engine can step — is rejected at the
// header, with an error naming the limit, before anything is allocated.
func TestLoadRejectsBinsOverLimit(t *testing.T) {
	var h [headerSize]byte
	copy(h[:8], magic[:])
	binary.LittleEndian.PutUint32(h[8:], Version2)
	binary.LittleEndian.PutUint64(h[20:], shard.MaxBins+1)
	binary.LittleEndian.PutUint32(h[28:], 1)
	binary.LittleEndian.PutUint32(h[44:], crc32.Checksum(h[:44], castagnoli))
	_, err := Load(bytes.NewReader(h[:]))
	if err == nil || !strings.Contains(err.Error(), "2147483648") {
		t.Fatalf("Load of an n = 2^31+1 header: %v, want an error naming the 2147483648-bin limit", err)
	}
	if err := WriteHeader(&bytes.Buffer{}, Header{N: shard.MaxBins + 1, Shards: 1}); err == nil {
		t.Error("WriteHeader accepted n = 2^31+1")
	}
}

// TestRunRejectsUnstreamable: Run streams every checkpoint, so a Process
// that is neither a StreamProcess nor a *shard.Process is refused before
// its first round when checkpointing is on — and so is a Process stepping
// any rule but relaunch, whatever its type: a *shard.Process under the
// quota rule streams like any other, but its checkpoint would later
// resume as rbb, so the rule guard refuses it with an error naming the
// rule. The tcp package pins the same guard on the star and the mesh.
func TestRunRejectsUnstreamable(t *testing.T) {
	p, _ := newStreamRun(t, config.OnePerBin(64), 2, engine.WidthAuto, 0)
	defer p.Close()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, _, err := Run(context.Background(), gatherOnly{p}, 5, Policy{Path: path}); err == nil {
		t.Fatal("Run accepted a process it cannot stream")
	}
	if p.Round() != 0 {
		t.Errorf("refused run stepped to round %d", p.Round())
	}
	if _, _, err := Run(context.Background(), gatherOnly{p}, 5, Policy{}); err != nil {
		t.Errorf("Run without checkpoints: %v", err)
	}

	tp := newTetris(t)
	defer tp.Close()
	if _, _, err := Run(context.Background(), tp, 5, Policy{Path: path}); err == nil || !strings.Contains(err.Error(), tp.Rule().String()) {
		t.Fatalf("Run of a checkpointed tetris process: %v, want an error naming %s", err, tp.Rule())
	}
	if tp.Round() != 0 {
		t.Errorf("refused tetris run stepped to round %d", tp.Round())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("refused runs left a checkpoint behind (stat: %v)", err)
	}
}

// TestRunPlainStepper: with no Path, Run drives any stepper — here a
// tetris process — to its target, observing every round, and a cancelled
// context stops it between rounds, after that round's observers.
func TestRunPlainStepper(t *testing.T) {
	tp := newTetris(t)
	defer tp.Close()
	var observed int64
	count := engine.ObserverFunc(func(engine.Stepper) { observed++ })
	round, stopped, err := Run(context.Background(), tp, 25, Policy{}, count)
	if err != nil || stopped || round != 25 || tp.Round() != 25 || observed != 25 {
		t.Fatalf("open ctx: round=%d stopped=%v err=%v observed=%d, want 25/false/nil/25", round, stopped, err, observed)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen int64
	stopAt := engine.ObserverFunc(func(s engine.Stepper) {
		seen++
		if s.Round() == 30 {
			cancel()
		}
	})
	round, stopped, err = Run(ctx, tp, 1000, Policy{}, stopAt)
	if err != nil || !stopped || round != 30 || tp.Round() != 30 || seen != 5 {
		t.Fatalf("cancelled ctx: round=%d stopped=%v err=%v observed=%d, want 30/true/nil/5", round, stopped, err, seen)
	}
}

// newTetris builds a small sharded tetris process.
func newTetris(t *testing.T) *shard.Process {
	t.Helper()
	tp, err := shard.NewProcess(config.OnePerBin(64), 3, shard.Options{Shards: 2, Rule: shard.ArrivalRule{Kind: shard.ArrivalQuota}})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// gatherOnly exposes a process through the Process interface alone.
type gatherOnly struct{ Process }
