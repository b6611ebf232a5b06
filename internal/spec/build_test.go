package spec

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/shard"
	"repro/internal/shard/transport/tcp"
)

// TestMain doubles as the transport worker entry point: runs placed on a
// multi-process transport re-execute the test binary as their workers, and
// MaybeWorker diverts those children into the worker protocol.
func TestMain(m *testing.M) {
	tcp.MaybeWorker()
	os.Exit(m.Run())
}

// TestStart pins the one run start: an absent checkpoint builds the run
// fresh, a present one resumes it (pipeline accumulators included), a
// checkpoint of another identity is refused, and a stat failure other
// than not-exist is surfaced instead of silently building from round 0.
func TestStart(t *testing.T) {
	dir := t.TempDir()
	spec := func(seed uint64) RunSpec {
		sp := RunSpec{Seed: seed, N: 64, Rounds: 20, Shards: 2, Quantiles: []float64{0.5}}
		if err := sp.Normalize(0); err != nil {
			t.Fatal(err)
		}
		return sp
	}
	// A checkpoint of seed 1 cut at round 7.
	saved := filepath.Join(dir, "saved.ckpt")
	{
		sp := spec(1)
		proc, pipe, err := sp.Start("", 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := checkpoint.Run(context.Background(), proc, 7, checkpoint.Policy{Path: saved, Seed: sp.Seed, Pipeline: pipe}); err != nil {
			t.Fatal(err)
		}
		proc.Close()
	}
	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		seed      uint64
		path      string
		wantRound int64
		wantErr   string
	}{
		{name: "absent file builds", seed: 1, path: filepath.Join(dir, "absent.ckpt"), wantRound: 0},
		{name: "present file resumes", seed: 1, path: saved, wantRound: 7},
		{name: "foreign identity refused", seed: 2, path: saved, wantErr: "checkpoint is for"},
		{name: "stat error surfaced", seed: 1, path: filepath.Join(notDir, "run.ckpt"), wantErr: "not a directory"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proc, pipe, err := spec(tc.seed).Start(tc.path, 1)
			if tc.wantErr != "" {
				if err == nil {
					proc.Close()
					t.Fatalf("Start succeeded, want an error containing %q", tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Start error %q, want it to contain %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer proc.Close()
			if proc.Round() != tc.wantRound {
				t.Errorf("started at round %d, want %d", proc.Round(), tc.wantRound)
			}
			if pipe == nil {
				t.Fatal("nil pipeline")
			}
			if got := pipe.SummaryFor(proc).Rounds; got != tc.wantRound {
				t.Errorf("pipeline has observed %d rounds, want %d", got, tc.wantRound)
			}
		})
	}
}

// stepped runs p to round rounds through checkpoint.Run — with a final
// checkpoint at path when path is set — and returns the pipeline summary
// as JSON and the checkpoint bytes.
func stepped(t *testing.T, p checkpoint.Process, rounds int64, seed uint64, path string) (summary, ckpt []byte) {
	t.Helper()
	pipe, err := shard.NewPipeline([]float64{0.5, 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := checkpoint.Run(context.Background(), p, rounds, checkpoint.Policy{Path: path, Seed: seed, Pipeline: pipe}); err != nil {
		t.Fatal(err)
	}
	if summary, err = json.Marshal(pipe.SummaryFor(p)); err != nil {
		t.Fatal(err)
	}
	if path != "" {
		if ckpt, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	return summary, ckpt
}

// runStart is a built run's round-zero statistics: on a tcp placement the
// coordinator folds them from the join frames it encodes.
type runStart struct {
	MaxLoad int32
	Empty   int
	Balls   int64
}

func startOf(p checkpoint.Process) runStart {
	return runStart{p.MaxLoad(), p.EmptyBins(), p.(interface{ Balls() int64 }).Balls()}
}

// TestBuildMatchesLoads: Build fills every shard from its own range of the
// start, on every placement, and the run is the one the whole-run vector
// of MakeLoads gives — same starting statistics, and the same summary and
// final checkpoint bytes after 40 rounds, for every generator, at S = 1, 7
// and 8 (a ragged partition and a power-of-two one) — and so is a Tetris
// or batches run's snapshot and summary on the pool, where Build steps the
// plain rule-driven Process: the trajectory of the tracked Tetris.
func TestBuildMatchesLoads(t *testing.T) {
	const (
		n      = 20011
		rounds = 40
		seed   = 29
	)
	dir := t.TempDir()
	for _, gen := range config.Generators() {
		for _, shards := range []int{1, 7, 8} {
			sp := RunSpec{Seed: seed, N: n, Rounds: rounds, Shards: shards, Init: string(gen)}
			if err := sp.Normalize(0); err != nil {
				t.Fatal(err)
			}
			loads, err := sp.MakeLoads()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := shard.NewProcess(loads, seed, shard.Options{Shards: shards, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			wantStart := startOf(ref)
			wantSum, wantCkpt := stepped(t, ref, rounds, seed, filepath.Join(dir, "ref.ckpt"))
			ref.Close()
			for _, tr := range []string{TransportPool, TransportTCP, TransportTCPMesh} {
				sp := sp
				sp.Placement = Placement{Transport: tr, Workers: 1}
				if tr != TransportPool {
					sp.Placement.Procs = min(2, shards)
				}
				if err := sp.Normalize(0); err != nil {
					t.Fatal(err)
				}
				p, err := sp.Build(1)
				if err != nil {
					t.Fatalf("%s S=%d %s: %v", gen, shards, tr, err)
				}
				if got := startOf(p.(checkpoint.Process)); got != wantStart {
					t.Errorf("%s S=%d %s: starts at %+v, want %+v", gen, shards, tr, got, wantStart)
				}
				gotSum, gotCkpt := stepped(t, p.(checkpoint.Process), rounds, seed, filepath.Join(dir, tr+".ckpt"))
				p.Close()
				if !bytes.Equal(gotSum, wantSum) {
					t.Errorf("%s S=%d %s: summary %s, want %s", gen, shards, tr, gotSum, wantSum)
				}
				if !bytes.Equal(gotCkpt, wantCkpt) {
					t.Errorf("%s S=%d %s: final checkpoint differs from the MakeLoads run's", gen, shards, tr)
				}
			}
			for _, proc := range []string{ProcessTetris, ProcessBatches} {
				sp := RunSpec{Process: proc, Seed: seed, N: n, Rounds: rounds, Shards: shards, Init: string(gen)}
				if err := sp.Normalize(0); err != nil {
					t.Fatal(err)
				}
				loads, err := sp.MakeLoads()
				if err != nil {
					t.Fatal(err)
				}
				rule := shard.ArrivalRule{Kind: shard.ArrivalQuota, Lambda: sp.Lambda}
				if proc == ProcessBatches {
					rule.Kind = shard.ArrivalBinomial
				}
				ref, err := shard.NewProcess(loads, seed, shard.Options{Shards: shards, Workers: 1, Rule: rule})
				if err != nil {
					t.Fatal(err)
				}
				p, err := sp.Build(1)
				if err != nil {
					t.Fatalf("%s %s S=%d: %v", proc, gen, shards, err)
				}
				got := p.(*shard.Process)
				if got.Rule() != ref.Rule() {
					t.Errorf("%s %s S=%d: rule %v, want %v", proc, gen, shards, got.Rule(), ref.Rule())
				}
				wantSum, _ := stepped(t, ref, rounds, seed, "")
				gotSum, _ := stepped(t, got, rounds, seed, "")
				if !bytes.Equal(gotSum, wantSum) {
					t.Errorf("%s %s S=%d: summary %s, want %s", proc, gen, shards, gotSum, wantSum)
				}
				wantSnap, err := ref.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				gotSnap, err := got.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotSnap, wantSnap) {
					t.Errorf("%s %s S=%d: snapshot differs from the MakeLoads run's", proc, gen, shards)
				}
				ref.Close()
				got.Close()
			}
		}
	}
}

// TestBuildAllocs pins a fresh build's memory to its compact state: at
// n = 2²⁰, S = 8, one-per-bin, Build allocates the shards' load and
// staging cells (2 bytes a bin at width 8), their worklists (1/8 byte a
// bin) and one fixed fill chunk per shard — under 2.25 bytes a bin, on one
// worker and on eight building their shards at once. A whole-shard
// scratch cost about 0.4 more (2.63), and materialising the start as a
// whole-run []int32 first over 6. A tetris run is the same plain Process
// under the quota rule, so it holds the same bound (its Lemma 4 tracker,
// 8 bytes a bin more, is not built). Batches is left out: its per-shard
// Binomial(n_s, λ) alias tables alone cost more than the bound.
func TestBuildAllocs(t *testing.T) {
	const n = 1 << 20
	for _, proc := range []string{ProcessRBB, ProcessTetris} {
		for _, workers := range []int{1, 8} {
			sp := RunSpec{Process: proc, Seed: 3, N: n, Rounds: 1, Shards: 8, Placement: Placement{Workers: workers}}
			if err := sp.Normalize(0); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p, err := sp.Build(1)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			p.Close()
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s workers %d: Build allocated %d bytes (%.3f B/bin)", proc, workers, got, float64(got)/n)
			if got >= 2.25*n {
				t.Errorf("%s workers %d: Build allocated %.3f bytes a bin, want < 2.25", proc, workers, float64(got)/n)
			}
		}
	}
}
