package spec

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
)

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
