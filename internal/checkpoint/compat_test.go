package checkpoint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/shard"
)

var update = flag.Bool("update", false, "rewrite golden testdata files")

// goldenV1Path holds a format-v1 checkpoint committed to the repo: the
// bytes the v1 encoder wrote before format v2 existed. Old files in the
// wild must keep loading forever; this blob is the contract. Regenerate
// (only when intentionally breaking v1 compatibility, which should never
// happen) with: go test ./internal/checkpoint -run GoldenV1 -args -update
const goldenV1Path = "testdata/v1.ckpt"

// goldenV1Run recomputes the run the golden blob snapshots: OnePerBin(70),
// seed 3, 3 shards, 20 rounds, quantiles {0.5, 0.9} — a pure function of
// those constants, reproducible on any machine.
func goldenV1Run(t *testing.T, rounds int64) (*shard.Process, *shard.Pipeline) {
	t.Helper()
	p, err := shard.NewProcess(config.OnePerBin(70), 3, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := shard.NewPipeline([]float64{0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < rounds; i++ {
		p.Step()
		pipe.Observe(p)
	}
	return p, pipe
}

func goldenV1Snapshot(t *testing.T) *Snapshot {
	t.Helper()
	p, pipe := goldenV1Run(t, 20)
	defer p.Close()
	eng, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return &Snapshot{Seed: 3, Engine: eng, Observer: pipe.Snapshot()}
}

// TestGoldenV1Load: the committed v1 blob still loads under the v2 code,
// decodes to exactly the state it was written from, and re-encodes with
// the legacy encoder to the identical bytes (v1 is byte-canonical too).
func TestGoldenV1Load(t *testing.T) {
	if *update {
		snap := goldenV1Snapshot(t)
		var buf bytes.Buffer
		if err := saveV1(&buf, snap); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenV1Path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenV1Path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenV1Path, buf.Len())
	}
	data, err := os.ReadFile(goldenV1Path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("golden v1 blob no longer loads: %v", err)
	}
	want := goldenV1Snapshot(t)
	// v1 records no storage widths; the loader leaves Width 0 and restore
	// re-derives the narrowest fit. Compare against the live snapshot with
	// its widths erased the same way.
	for i := range want.Engine.Shards {
		want.Engine.Shards[i].Width = 0
	}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("golden v1 blob decoded to a different state:\n got %+v\nwant %+v", snap, want)
	}
	var re bytes.Buffer
	if err := saveV1(&re, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), data) {
		t.Fatal("legacy encoder no longer reproduces the golden v1 bytes")
	}
}

// TestGoldenV1Resume: a run resumed from the v1 blob is byte-identical to
// the uninterrupted run — same loads, and the next (v2) checkpoint it
// writes matches the uninterrupted run's byte for byte, because restore
// re-derives the same storage widths v1 never recorded.
func TestGoldenV1Resume(t *testing.T) {
	data, err := os.ReadFile(goldenV1Path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.RestoreProcess(snap.Engine, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pipe, err := shard.RestorePipeline(snap.Observer)
	if err != nil {
		t.Fatal(err)
	}
	for p.Round() < 40 {
		p.Step()
		pipe.Observe(p)
	}
	ref, refPipe := goldenV1Run(t, 40)
	defer ref.Close()
	if !reflect.DeepEqual(p.LoadsCopy(), ref.LoadsCopy()) {
		t.Fatal("resumed run diverged from the uninterrupted run")
	}
	if !reflect.DeepEqual(pipe.Summary(), refPipe.Summary()) {
		t.Fatalf("resumed summary diverged:\n got %+v\nwant %+v", pipe.Summary(), refPipe.Summary())
	}
	save := func(p *shard.Process, pipe *shard.Pipeline) []byte {
		eng, err := p.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, &Snapshot{Seed: 3, Engine: eng, Observer: pipe.Snapshot()}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(save(p, pipe), save(ref, refPipe)) {
		t.Fatal("v2 checkpoint written after a v1 resume differs from the uninterrupted run's")
	}
}
