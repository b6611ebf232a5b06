package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/spec"
)

// quickSpec is a small rbb spec completing in well under a second.
func quickSpec(seed uint64) Spec {
	return Spec{Seed: seed, N: 512, Rounds: 40, Shards: 2, Quantiles: []float64{0.5}}
}

// TestResultCache pins the cache contract: an identical resubmission is
// answered instantly from the stored result (bit-identical summary,
// Cached flag, no queue slot), placement-only differences still hit, and
// any result-determining difference misses.
func TestResultCache(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1})
	first := submit(t, hs, quickSpec(1))
	done := waitStatus(t, s, first.ID, StatusDone)
	if done.Cached {
		t.Fatal("first run marked cached")
	}
	if done.FinishedUnix == 0 {
		t.Fatal("done run has no finish time")
	}

	hit := submit(t, hs, quickSpec(1))
	if hit.Status != StatusDone || !hit.Cached {
		t.Fatalf("resubmission: status %s cached %v, want immediate cached done", hit.Status, hit.Cached)
	}
	a, _ := json.Marshal(done.Summary)
	b, _ := json.Marshal(hit.Summary)
	if string(a) != string(b) {
		t.Fatalf("cached summary differs:\n%s\n%s", a, b)
	}
	if hit.Round != done.Round {
		t.Fatalf("cached round %d, want %d", hit.Round, done.Round)
	}

	// Placement and snapshot knobs are not part of the key.
	alt := quickSpec(1)
	alt.Placement = spec.Placement{Transport: spec.TransportTCPMesh, Procs: 2}
	alt.StreamEvery = 7
	if got := submit(t, hs, alt); !got.Cached {
		t.Error("transport/stream-only difference missed the cache")
	}

	// A result-determining difference must recompute.
	miss := submit(t, hs, quickSpec(2))
	if miss.Cached {
		t.Fatal("different seed hit the cache")
	}
	if got := waitStatus(t, s, miss.ID, StatusDone); got.Cached {
		t.Fatal("computed run marked cached")
	}
}

// TestResultCacheAcrossRestart: the cache is rebuilt from the persisted
// manifest, so identical resubmissions hit across server generations.
func TestResultCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := newTestServer(t, Options{Workers: 1, Dir: dir})
	info := submit(t, hs1, quickSpec(5))
	waitStatus(t, s1, info.ID, StatusDone)
	s1.Shutdown()
	hs1.Close()

	_, hs2 := newTestServer(t, Options{Workers: 1, Dir: dir})
	if got := submit(t, hs2, quickSpec(5)); !got.Cached || got.Status != StatusDone {
		t.Fatalf("post-restart resubmission: status %s cached %v", got.Status, got.Cached)
	}
}

// TestResultCacheReadYourWrites: once a run's result is readable, an
// identical resubmission is answered from the result cache. The worker
// writes the cache entry before it publishes the run as done, so a client
// that reads the result and resubmits at once never misses; the waiter
// spins on the run state to make that window as narrow as a client can.
func TestResultCacheReadYourWrites(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1})
	for i := 0; i < 50; i++ {
		sp := Spec{Seed: uint64(1000 + i), N: 64, Rounds: 2, Shards: 1}
		first, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		for {
			info, ok := s.Info(first.ID)
			if !ok {
				t.Fatalf("run %s disappeared", first.ID)
			}
			if info.Status == StatusDone && info.Summary != nil {
				break
			}
			if info.Status.Terminal() {
				t.Fatalf("run %s reached %s (error %q)", first.ID, info.Status, info.Error)
			}
			runtime.Gosched()
		}
		hit, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		if !hit.Cached || hit.Status != StatusDone {
			t.Fatalf("submission %d: resubmitted right after its result: status %s cached %v", i, hit.Status, hit.Cached)
		}
	}
}

// TestMaxHistory: terminal runs beyond the cap are garbage-collected
// oldest-first, together with their checkpoints and cache entries; live
// runs are untouched.
func TestMaxHistory(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, Options{Workers: 1, Dir: dir, MaxHistory: 2})
	var ids []string
	for seed := uint64(1); seed <= 4; seed++ {
		info := submit(t, hs, quickSpec(seed))
		waitStatus(t, s, info.ID, StatusDone)
		ids = append(ids, info.ID)
	}
	// The worker triggers GC right after the terminal transition; run one
	// more sweep synchronously so the assertion does not race it.
	s.gc()
	runs := s.Runs()
	if len(runs) != 2 {
		t.Fatalf("%d runs retained, want 2: %+v", len(runs), runs)
	}
	if runs[0].ID != ids[2] || runs[1].ID != ids[3] {
		t.Fatalf("retained %s,%s; want the newest %s,%s", runs[0].ID, runs[1].ID, ids[2], ids[3])
	}
	for _, id := range ids[:2] {
		if _, ok := s.Info(id); ok {
			t.Errorf("run %s still listed after GC", id)
		}
		if _, err := os.Stat(filepath.Join(dir, id+".ckpt")); !os.IsNotExist(err) {
			t.Errorf("checkpoint of GC'd run %s still on disk (err %v)", id, err)
		}
	}
	// The evicted runs' cache entries died with them: resubmitting seed 1
	// recomputes.
	if got := submit(t, hs, quickSpec(1)); got.Cached {
		t.Error("cache entry survived its run's GC")
	}
}

// TestTTL: terminal runs expire TTL after finishing, measured against the
// injected clock; unexpired ones survive the sweep.
func TestTTL(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1, TTL: time.Hour})
	// The clock is installed once (before any run exists, so no server
	// goroutine reads it concurrently) and advanced through an atomic:
	// worker goroutines may still be in their post-finish gc() when the
	// test moves time forward.
	base := time.Unix(1_700_000_000, 0)
	var offsetMin atomic.Int64
	s.now = func() time.Time { return base.Add(time.Duration(offsetMin.Load()) * time.Minute) }

	old := submit(t, hs, quickSpec(1))
	waitStatus(t, s, old.ID, StatusDone)

	offsetMin.Store(40)
	fresh := submit(t, hs, quickSpec(2))
	waitStatus(t, s, fresh.ID, StatusDone)

	offsetMin.Store(70)
	s.gc()
	if _, ok := s.Info(old.ID); ok {
		t.Error("expired run survived the TTL sweep")
	}
	if _, ok := s.Info(fresh.ID); !ok {
		t.Error("unexpired run was collected")
	}
}
