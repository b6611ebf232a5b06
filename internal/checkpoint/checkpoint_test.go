package checkpoint

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/shard"
)

// makeRun returns a mid-flight process and pipeline to snapshot.
func makeRun(t *testing.T, n, shards int, rounds int64, probs []float64) (*shard.Process, *shard.Pipeline) {
	t.Helper()
	p, err := shard.NewProcess(config.OnePerBin(n), 21, shard.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := shard.NewPipeline(probs)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < rounds; i++ {
		p.Step()
		pipe.Observe(p)
	}
	return p, pipe
}

// snapshotOf serializes the current state of a run.
func snapshotOf(t *testing.T, p *shard.Process, pipe *shard.Pipeline) *Snapshot {
	t.Helper()
	eng, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Seed: 21, Engine: eng}
	if pipe != nil {
		snap.Observer = pipe.Snapshot()
	}
	return snap
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		n, shards int
		probs     []float64
	}{
		{1, 1, nil},
		{100, 3, nil},
		{257, 8, []float64{0.5, 0.9, 0.99}},
		{64, 64, []float64{0.5}},
	} {
		p, pipe := makeRun(t, tc.n, tc.shards, 50, tc.probs)
		if tc.probs == nil {
			pipe = nil
		}
		snap := snapshotOf(t, p, pipe)
		var buf bytes.Buffer
		if err := Save(&buf, snap); err != nil {
			t.Fatalf("n=%d S=%d: %v", tc.n, tc.shards, err)
		}
		got, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d S=%d: %v", tc.n, tc.shards, err)
		}
		if !reflect.DeepEqual(snap, got) {
			t.Fatalf("n=%d S=%d: round trip not exact", tc.n, tc.shards)
		}
	}
}

// TestSaveDeterministic: the byte stream is a pure function of the
// snapshot, which is what lets the CI gate compare checkpoints with cmp.
func TestSaveDeterministic(t *testing.T) {
	p, pipe := makeRun(t, 200, 4, 30, []float64{0.5, 0.9})
	snap := snapshotOf(t, p, pipe)
	var a, b bytes.Buffer
	if err := Save(&a, snap); err != nil {
		t.Fatal(err)
	}
	if err := Save(&b, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same snapshot differ")
	}
}

// TestLoadRejectsCorruption: flipping any single byte of a checkpoint must
// be detected — by a structural check or, failing everything else, by the
// CRC trailer.
func TestLoadRejectsCorruption(t *testing.T) {
	p, pipe := makeRun(t, 96, 3, 25, []float64{0.9})
	snap := snapshotOf(t, p, pipe)
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := range data {
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 0x5a
		if _, err := Load(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("flipped byte %d of %d went undetected", i, len(data))
		}
	}
}

// TestLoadRejectsTruncation: every strict prefix must error, never panic.
func TestLoadRejectsTruncation(t *testing.T) {
	p, _ := makeRun(t, 64, 2, 10, nil)
	snap := snapshotOf(t, p, nil)
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := 0; i < len(data); i++ {
		if _, err := Load(bytes.NewReader(data[:i])); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", i, len(data))
		}
	}
}

// TestLoadRejectsTrailingData: a checkpoint is a whole file; bytes after
// the trailer violate the one-state-one-encoding property.
func TestLoadRejectsTrailingData(t *testing.T) {
	p, _ := makeRun(t, 32, 2, 5, nil)
	var buf bytes.Buffer
	if err := Save(&buf, snapshotOf(t, p, nil)); err != nil {
		t.Fatal(err)
	}
	data := append(buf.Bytes(), 0)
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestLoadRejectsChecksum(t *testing.T) {
	p, _ := makeRun(t, 32, 2, 5, nil)
	var buf bytes.Buffer
	if err := Save(&buf, snapshotOf(t, p, nil)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] ^= 0xff
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("got %v, want ErrChecksum", err)
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	p, pipe := makeRun(t, 128, 4, 40, []float64{0.5})
	snap := snapshotOf(t, p, pipe)
	if err := WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatal("file round trip not exact")
	}
	// Overwrite is atomic: writing again leaves exactly one file.
	if err := WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after rewrite, want 1", len(entries))
	}
}

// TestRunResumeEquivalence is the in-process form of the CI gate: run to
// round T with a mid-point checkpoint, resume in a fresh engine, and
// require the final checkpoints — loads, rng states, observer accumulators,
// everything — to be byte-identical, for S = 1 and S > 1.
func TestRunResumeEquivalence(t *testing.T) {
	const (
		n      = 4096
		target = 120
		cut    = 50
	)
	for _, shards := range []int{1, 8} {
		dir := t.TempDir()
		fullPath := filepath.Join(dir, "full.ckpt")
		halfPath := filepath.Join(dir, "half.ckpt")
		resPath := filepath.Join(dir, "resumed.ckpt")

		newRun := func() (*shard.Process, *shard.Pipeline) {
			p, err := shard.NewProcess(config.OnePerBin(n), 5, shard.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			pipe, err := shard.NewPipeline([]float64{0.5, 0.99})
			if err != nil {
				t.Fatal(err)
			}
			return p, pipe
		}

		p, pipe := newRun()
		if _, _, err := Run(context.Background(), p, target, Policy{Path: fullPath, Seed: 5, Pipeline: pipe}); err != nil {
			t.Fatal(err)
		}
		p, pipe = newRun()
		if _, _, err := Run(context.Background(), p, cut, Policy{Path: halfPath, Seed: 5, Pipeline: pipe}); err != nil {
			t.Fatal(err)
		}
		snap, err := ReadFile(halfPath)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := shard.RestoreProcess(snap.Engine, shard.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rpipe, err := shard.RestorePipeline(snap.Observer)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Round() != cut || rpipe == nil {
			t.Fatalf("S=%d: resumed at round %d, pipeline %v", shards, rp.Round(), rpipe)
		}
		if _, _, err := Run(context.Background(), rp, target, Policy{Path: resPath, Seed: snap.Seed, Pipeline: rpipe}); err != nil {
			t.Fatal(err)
		}
		full, err := os.ReadFile(fullPath)
		if err != nil {
			t.Fatal(err)
		}
		res, err := os.ReadFile(resPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(full, res) {
			t.Fatalf("S=%d: resumed final checkpoint differs from uninterrupted", shards)
		}
	}
}

// TestRunPeriodicAndInterrupt: the periodic hook writes on schedule, and
// the interrupt hook snapshots and stops at the next round boundary.
func TestRunPeriodicAndInterrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.ckpt")
	p, err := shard.NewProcess(config.OnePerBin(512), 9, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Periodic: run 10 rounds with Every=4; the file at return is the final
	// snapshot (round 10).
	if _, _, err := Run(context.Background(), p, 10, Policy{Path: path, Every: 4, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Engine.Round != 10 {
		t.Fatalf("final snapshot at round %d, want 10", snap.Engine.Round)
	}
	if snap.Observer != nil {
		t.Fatal("observer section present without a pipeline")
	}
	// Interrupt: an already-cancelled context stops the run after one round.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	round, stopped, err := Run(ctx, p, 1000, Policy{Path: path, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !stopped || round != 11 {
		t.Fatalf("interrupt: stopped=%v round=%d, want true, 11", stopped, round)
	}
	snap, err = ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Engine.Round != 11 {
		t.Fatalf("interrupt snapshot at round %d, want 11", snap.Engine.Round)
	}
	// Resuming the interrupt snapshot continues to the uninterrupted state.
	rp, err := shard.RestoreProcess(snap.Engine, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := shard.NewProcess(config.OnePerBin(512), 9, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(30)
	rp.Run(30 - rp.Round())
	got, want := rp.LoadsCopy(), ref.LoadsCopy()
	for u := range got {
		if got[u] != want[u] {
			t.Fatalf("bin %d: %d vs %d", u, got[u], want[u])
		}
	}
}

// TestRunTrigger: a value on Policy.Trigger writes an on-demand snapshot
// at the next round boundary without stopping the run.
func TestRunTrigger(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.ckpt")
	p, err := shard.NewProcess(config.OnePerBin(256), 3, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	trigger := make(chan struct{}, 1)
	trigger <- struct{}{}
	// The trigger is consumed after round 1; capture the file it produced
	// before the final write overwrites it.
	var triggered int64 = -1
	probe := engine.ObserverFunc(func(engine.Stepper) {
		if triggered < 0 {
			if snap, err := ReadFile(path); err == nil {
				triggered = snap.Engine.Round
			}
		}
	})
	round, stopped, err := Run(context.Background(), p, 5, Policy{Path: path, Seed: 3, Trigger: trigger}, probe)
	if err != nil {
		t.Fatal(err)
	}
	if stopped || round != 5 {
		t.Fatalf("stopped=%v round=%d, want false, 5", stopped, round)
	}
	if triggered != 1 {
		t.Fatalf("triggered snapshot at round %d, want 1", triggered)
	}
	snap, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Engine.Round != 5 {
		t.Fatalf("final snapshot at round %d, want 5", snap.Engine.Round)
	}
}

func TestSaveValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	if err := Save(&buf, &Snapshot{}); err == nil {
		t.Error("nil engine accepted")
	}
	if err := Save(&buf, &Snapshot{Engine: &shard.EngineSnapshot{N: 0}}); err == nil {
		t.Error("zero bins accepted")
	}
}
