package campaign

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/spec"
)

// testSpec is the runner tests' small but non-trivial campaign: rbb over
// an n axis with seed replicas, sharded, with quantile sketches whose
// accumulator state must survive a mid-point snapshot.
func testSpec() CampaignSpec {
	return CampaignSpec{
		Name: "runner-test",
		Base: spec.RunSpec{Seed: 5, Rounds: 300, Shards: 2, Quantiles: []float64{0.5, 0.9}},
		Axes: []Axis{
			{Field: FieldN, Values: []float64{64, 128}},
		},
		Replicas:    2,
		Concurrency: 2,
	}
}

// readArtifacts returns the three aggregate artifacts of a campaign dir.
func readArtifacts(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range []string{ArtifactText, ArtifactCSV, ArtifactJSON} {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = blob
	}
	return out
}

// TestRunComplete runs a campaign to completion and checks the result
// surface: every point done with a digest, artifacts on disk, checkpoints
// cleaned up, and the aggregate table shaped like the phase diagram.
func TestRunComplete(t *testing.T) {
	dir := t.TempDir()
	cs := testSpec()
	res, err := Run(context.Background(), cs, Options{Dir: dir, CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped || res.Failed != 0 || res.Done != 4 {
		t.Fatalf("result = done %d failed %d stopped %v", res.Done, res.Failed, res.Stopped)
	}
	for _, st := range res.Points {
		if st.Status != StatusDone || st.Summary == nil || st.Digest == "" || st.Round != 300 {
			t.Fatalf("point %s = %+v", st.ID, st)
		}
		if _, err := os.Stat(CheckpointPath(dir, st.ID)); !os.IsNotExist(err) {
			t.Errorf("point %s left its checkpoint behind", st.ID)
		}
	}
	if res.Table == nil {
		t.Fatal("no aggregate table")
	}
	wantCols := []string{"n", "replicas", "window_max_mean", "window_max_max", "empty_min", "empty_mean", "p50_mean", "p90_mean"}
	if got := strings.Join(res.Table.Columns, ","); got != strings.Join(wantCols, ",") {
		t.Errorf("aggregate columns = %v", res.Table.Columns)
	}
	if res.Table.NumRows() != 2 {
		t.Errorf("aggregate rows = %d, want 2 (one per n)", res.Table.NumRows())
	}
	readArtifacts(t, dir) // all three must exist
}

// TestKillAndResume is the resumability contract: a campaign interrupted
// mid-flight (first point barely started — the checkpoint machinery
// snapshots it at the next round boundary) and then resumed produces
// aggregate artifacts byte-identical to an uninterrupted campaign, with
// completed points skipped rather than re-run.
func TestKillAndResume(t *testing.T) {
	// Reference: uninterrupted campaign.
	refDir := t.TempDir()
	cs := testSpec()
	if _, err := Run(context.Background(), cs, Options{Dir: refDir, CheckpointEvery: 64}); err != nil {
		t.Fatal(err)
	}
	ref := readArtifacts(t, refDir)

	// Interrupted campaign: cancel as soon as the first point starts
	// running, so in-flight points stop at their next round boundary with
	// an interrupt snapshot and the rest never start.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	cs2 := testSpec()
	res, err := Run(ctx, cs2, Options{Dir: dir, CheckpointEvery: 64, OnPoint: func(st PointState) {
		if st.Status == StatusRunning {
			once.Do(cancel)
		}
	}})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("campaign with cancelled context did not report Stopped")
	}
	pending := 0
	for _, st := range res.Points {
		if st.Status == StatusPending {
			pending++
		}
		if st.Status == StatusRunning {
			t.Errorf("point %s left in running state", st.ID)
		}
	}
	if pending == 0 {
		t.Fatal("interruption left no pending points; resume would be trivial")
	}

	// Resume from the manifest: done points skipped, interrupted ones
	// continue from their snapshots, the rest run fresh.
	var mu sync.Mutex
	reran := map[string]bool{}
	cs3 := testSpec()
	res2, err := Run(context.Background(), cs3, Options{Dir: dir, CheckpointEvery: 64, OnPoint: func(st PointState) {
		if st.Status == StatusRunning {
			mu.Lock()
			reran[st.ID] = true
			mu.Unlock()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stopped || res2.Done != len(res2.Points) {
		t.Fatalf("resume = done %d/%d stopped %v", res2.Done, len(res2.Points), res2.Stopped)
	}
	for _, st := range res.Points {
		if st.Status == StatusDone && reran[st.ID] {
			t.Errorf("resume re-ran completed point %s", st.ID)
		}
	}

	// The headline equivalence: byte-identical artifacts.
	got := readArtifacts(t, dir)
	for name, want := range ref {
		if string(got[name]) != string(want) {
			t.Errorf("%s differs between interrupted+resumed and uninterrupted campaign:\n--- resumed\n%s\n--- reference\n%s",
				name, got[name], want)
		}
	}

	// And per-point digests match the reference runs point for point.
	refRes, err := ReadManifest(refDir)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refRes.Points {
		if refRes.Points[i].Digest != gotRes.Points[i].Digest {
			t.Errorf("point %s digest drifted across kill-and-resume", refRes.Points[i].ID)
		}
	}
}

// TestResumeRejectsForeignDir: a directory holding a different campaign's
// manifest is refused rather than silently mixed.
func TestResumeRejectsForeignDir(t *testing.T) {
	dir := t.TempDir()
	cs := testSpec()
	if _, err := Run(context.Background(), cs, Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	other := testSpec()
	other.Base.Seed = 999
	if _, err := Run(context.Background(), other, Options{Dir: dir}); err == nil || !strings.Contains(err.Error(), "refusing to mix") {
		t.Errorf("foreign dir accepted: %v", err)
	}
}

// TestPointFailureContinues: a failing point (unreachable placement
// hosts) is recorded and the campaign completes the other points.
func TestPointFailureContinues(t *testing.T) {
	cs := CampaignSpec{
		Base: spec.RunSpec{Seed: 2, N: 32, Rounds: 8, Shards: 2},
		Axes: []Axis{{Field: FieldSeed, Values: []float64{1, 2}}},
	}
	// The second point's law is fine but every point shares the base
	// placement; instead, fail just one point by pre-poisoning its
	// checkpoint with a foreign identity.
	dir := t.TempDir()
	plan, err := cs.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Run once to produce a real checkpoint we can misuse: campaign with
	// seed 1 only, interrupted immediately so a snapshot exists.
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	cs1 := cs
	if _, err := Run(ctx, cs1, Options{Dir: dir, OnPoint: func(st PointState) { once.Do(cancel) }}); err != nil {
		t.Fatal(err)
	}
	cancel()
	snapPath := ""
	for _, pt := range plan.Points {
		if _, err := os.Stat(CheckpointPath(dir, pt.ID)); err == nil {
			snapPath = CheckpointPath(dir, pt.ID)
			break
		}
	}
	if snapPath == "" {
		t.Fatal("no interrupt snapshot materialized; nothing to poison")
	}
	// Fresh campaign dir with the stale snapshot planted under the wrong
	// point id (a different seed's point).
	dir2 := t.TempDir()
	victim := plan.Points[1]
	if victim.Spec.Seed == 1 {
		victim = plan.Points[0]
	}
	blob, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(CheckpointPath(dir2, victim.ID), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	cs2 := cs
	res, err := Run(context.Background(), cs2, Options{Dir: dir2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Done != len(res.Points)-1 {
		t.Fatalf("result = done %d failed %d, want %d done 1 failed", res.Done, res.Failed, len(res.Points)-1)
	}
	for _, st := range res.Points {
		if st.Status == StatusFailed && !strings.Contains(st.Error, "checkpoint is for") {
			t.Errorf("unexpected failure cause: %s", st.Error)
		}
	}
}
