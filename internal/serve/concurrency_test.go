package serve

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/spec"
)

// TestConcurrentRuns races six runs — four rbb with distinct laws plus a
// tetris and a batches run — over a four-slot scheduler and requires every
// result to match its single-run oracle exactly: the acceptance bar that
// multiplexing cannot perturb any trajectory. Run under -race in CI.
func TestConcurrentRuns(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 4, RunWorkers: 1, Dir: t.TempDir(), CheckpointEvery: 500})
	specs := []Spec{
		{Seed: 101, N: 2048, Rounds: 1500, Shards: 1, Quantiles: []float64{0.5}},
		{Seed: 102, N: 2048, Rounds: 1500, Shards: 4, Quantiles: []float64{0.9, 0.99}},
		{Seed: 103, N: 1024, Rounds: 2000, Shards: 8, Init: "all-in-one"},
		{Seed: 104, N: 4096, Rounds: 1000, Shards: 2},
		{Process: spec.ProcessTetris, Seed: 105, N: 1024, Rounds: 1500, Shards: 4},
		{Process: spec.ProcessBatches, Seed: 106, N: 1024, Rounds: 1500, Shards: 2, Lambda: 0.6},
	}
	// Submit from concurrent goroutines too: the registry, queue and
	// manifest writer all see simultaneous traffic. (Submit directly — the
	// HTTP path is exercised elsewhere, and t.Fatal is not goroutine-safe.)
	ids := make([]string, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp Spec) {
			defer wg.Done()
			info, err := s.Submit(sp)
			ids[i], errs[i] = info.ID, err
		}(i, sp)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i, id := range ids {
		final := waitStatus(t, s, id, StatusDone)
		want := refSummary(t, specs[i])
		if final.Summary == nil || !reflect.DeepEqual(*final.Summary, want) {
			t.Errorf("run %d (%s seed %d): summary diverged under concurrency:\n got %+v\nwant %+v",
				i, specs[i].Process, specs[i].Seed, final.Summary, want)
		}
		if final.Round != specs[i].Rounds {
			t.Errorf("run %d: finished at round %d, want %d", i, final.Round, specs[i].Rounds)
		}
	}
}
