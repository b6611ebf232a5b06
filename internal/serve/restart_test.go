package serve

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/shard"
	"repro/internal/spec"
)

// TestRestartResume is the acceptance gate for the service's crash story:
// a server killed mid-run (Shutdown = the SIGTERM path) snapshots its
// in-flight rbb run, a fresh server over the same data directory resumes
// it, and the completed run is byte-identical — final checkpoint and
// summary — to an uninterrupted run of the same spec. A tetris run queued
// behind it survives the restart too and replays from scratch.
func TestRestartResume(t *testing.T) {
	dir := t.TempDir()
	tetrisSpec := Spec{Process: spec.ProcessTetris, Seed: 43, N: 512, Rounds: 400, Shards: 2}
	spec := Spec{Seed: 42, N: 1024, Rounds: 60_000, Shards: 4, Quantiles: []float64{0.5, 0.99}, StreamEvery: 25}
	opts := Options{Workers: 1, RunWorkers: 1, Dir: dir, CheckpointEvery: 5_000}

	s1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	info, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	queuedTetris, err := s1.Submit(tetrisSpec)
	if err != nil {
		t.Fatal(err)
	}
	// Let the run make real progress, then pull the plug.
	waitStatus(t, s1, info.ID, StatusRunning)
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, _ := s1.Info(info.ID)
		if got.Round >= 500 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never progressed: %+v", got)
		}
		time.Sleep(time.Millisecond)
	}
	s1.Shutdown()

	cut, _ := s1.Info(info.ID)
	if cut.Status != StatusQueued || cut.Round <= 0 || cut.Round >= spec.Rounds {
		t.Fatalf("after shutdown: %+v", cut)
	}
	st := &store{dir: dir}
	if has, err := st.HasCheckpoint(info.ID); err != nil || !has {
		t.Fatalf("shutdown left no checkpoint (has=%v err=%v)", has, err)
	}
	if tq, _ := s1.Info(queuedTetris.ID); tq.Status != StatusQueued {
		t.Fatalf("queued tetris run after shutdown: %+v", tq)
	}

	// Fresh server over the same directory: both runs complete.
	s2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()
	final := waitStatus(t, s2, info.ID, StatusDone)
	if final.Round != spec.Rounds || final.Summary == nil {
		t.Fatalf("resumed run finished wrong: %+v", final)
	}
	tetrisFinal := waitStatus(t, s2, queuedTetris.ID, StatusDone)

	// Oracle: the uninterrupted run, driven exactly as the server drives
	// it (checkpoint.Run with a pipeline), writing its own final snapshot.
	normalized := spec
	if err := normalized.Normalize(opts.CheckpointEvery); err != nil {
		t.Fatal(err)
	}
	loads, err := normalized.MakeLoads()
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.NewProcess(loads, normalized.Seed, shard.Options{Shards: normalized.Shards})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := shard.NewPipeline(normalized.Quantiles)
	if err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(dir, "reference.ckpt")
	pol := checkpoint.Policy{Path: refPath, Seed: normalized.Seed, Pipeline: pipe}
	if _, _, err := checkpoint.Run(context.Background(), p, normalized.Rounds, pol); err != nil {
		t.Fatal(err)
	}

	refSum := pipe.SummaryFor(p)
	if !reflect.DeepEqual(*final.Summary, refSum) {
		t.Fatalf("resumed summary diverged from uninterrupted run:\n got %+v\nwant %+v", *final.Summary, refSum)
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(st.CheckpointPath(info.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBytes, gotBytes) {
		t.Fatal("final checkpoint of the interrupted+resumed run differs from the uninterrupted run")
	}

	// The tetris run replayed from round zero and matches its oracle.
	if !reflect.DeepEqual(*tetrisFinal.Summary, refSummary(t, tetrisSpec)) {
		t.Fatalf("restarted tetris run diverged: %+v", *tetrisFinal.Summary)
	}
}

// TestResumeRejectsForeignCheckpoint: a checkpoint file under a run's id
// that does not match the run's (seed, n, shards) must fail the run, not
// impersonate its result.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// A valid checkpoint of some OTHER run's law.
	p, err := shard.NewProcess(make([]int32, 64), 999, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	foreign := &checkpoint.Snapshot{Seed: 999, Engine: eng}
	st := &store{dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// The first submission will get id r000001; plant the foreign file
	// there before starting the server.
	if err := checkpoint.WriteFile(st.CheckpointPath("r000001"), foreign); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	info, err := s.Submit(Spec{Seed: 1, N: 256, Rounds: 50, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "r000001" {
		t.Fatalf("expected first id r000001, got %s", info.ID)
	}
	failed := waitStatus(t, s, info.ID, StatusFailed)
	if !strings.Contains(failed.Error, "checkpoint is for") {
		t.Fatalf("wrong failure: %+v", failed)
	}
}

// TestRestartHistory: terminal runs survive a restart as history without
// being re-run.
func TestRestartHistory(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 1, Dir: dir}
	s1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	info, err := s1.Submit(Spec{Seed: 9, N: 128, Rounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, s1, info.ID, StatusDone)
	s1.Shutdown()

	s2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()
	again, ok := s2.Info(info.ID)
	if !ok || !reflect.DeepEqual(again, done) {
		t.Fatalf("history lost across restart:\n got %+v\nwant %+v", again, done)
	}
	// IDs keep incrementing past restored history.
	next, err := s2.Submit(Spec{Seed: 10, N: 64, Rounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID == info.ID {
		t.Fatalf("ID reused after restart: %s", next.ID)
	}
}

// TestRestoreRetiredPlacements: a manifest written by an older binary can
// queue runs on the retired placements "spawn" and "proc". Restore
// re-queues specs as stored, without re-normalizing them, so Build and
// Open must resolve the names themselves: the "spawn" run starts fresh on
// the pool, and the "proc" run resumes its in-process checkpoint on the
// loopback TCP mesh. Both finish with the summary of the law.
func TestRestoreRetiredPlacements(t *testing.T) {
	dir := t.TempDir()
	law := Spec{Seed: 21, N: 512, Rounds: 120, Shards: 4, Quantiles: []float64{0.5}}
	stored := func(id, placement, status string, round int) string {
		return fmt.Sprintf(`{"id":%q,"spec":{"version":1,"process":"rbb","seed":21,"n":512,"m":512,"rounds":120,`+
			`"shards":4,"init":"one-per-bin","quantiles":[0.5],"stream_every":1,"placement":%s},"status":%q,"round":%d}`,
			id, placement, status, round)
	}
	manifest := `{"next_id":3,"runs":[` +
		stored("r000001", `{"transport":"spawn","kernel":"batched"}`, "queued", 0) + `,` +
		stored("r000002", `{"transport":"proc","procs":2,"kernel":"batched"}`, "running", 60) + `]}`
	if err := os.WriteFile(filepath.Join(dir, "runs.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}

	// r000002's checkpoint: the law cut at round 60 by an in-process run.
	normalized := law
	if err := normalized.Normalize(0); err != nil {
		t.Fatal(err)
	}
	loads, err := normalized.MakeLoads()
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.NewProcess(loads, law.Seed, shard.Options{Shards: law.Shards})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pipe, err := shard.NewPipeline(law.Quantiles)
	if err != nil {
		t.Fatal(err)
	}
	st := &store{dir: dir}
	pol := checkpoint.Policy{Path: st.CheckpointPath("r000002"), Seed: law.Seed, Pipeline: pipe}
	if _, _, err := checkpoint.Run(context.Background(), p, 60, pol); err != nil {
		t.Fatal(err)
	}

	s, err := New(Options{Workers: 1, RunWorkers: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	want := refSummary(t, law)
	for _, id := range []string{"r000001", "r000002"} {
		done := waitStatus(t, s, id, StatusDone)
		if done.Summary == nil || !reflect.DeepEqual(*done.Summary, want) {
			t.Errorf("%s (%s) diverged from the law:\n got %+v\nwant %+v", id, done.Spec.Placement.Transport, done.Summary, want)
		}
	}
}
