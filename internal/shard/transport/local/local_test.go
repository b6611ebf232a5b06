package local

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunCoversEveryShard: Run must call f exactly once per shard index
// and act as a barrier, for several shapes.
func TestRunCoversEveryShard(t *testing.T) {
	for _, tc := range []struct{ shards, workers int }{
		{1, 1}, {7, 1}, {8, 3}, {16, 16}, {5, 9} /* workers clamp */, {64, 0}, /* GOMAXPROCS */
	} {
		p := NewPool(tc.shards, tc.workers)
		counts := make([]int32, tc.shards)
		for round := 0; round < 3; round++ {
			p.Run(func(i int) { atomic.AddInt32(&counts[i], 1) })
		}
		for i, c := range counts {
			if c != 3 {
				t.Errorf("%d/%d: shard %d ran %d times, want 3", tc.shards, tc.workers, i, c)
			}
		}
		if err := p.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := p.Close(); err != nil {
			t.Errorf("second close: %v", err)
		}
	}
}

// TestWorkerClamp pins the 0-means-GOMAXPROCS and clamp-to-shards rules.
func TestWorkerClamp(t *testing.T) {
	p := NewPool(4, 99)
	if w := p.Workers(); w != 4 {
		t.Errorf("pool workers = %d, want 4", w)
	}
	p.Close()
	want := runtime.GOMAXPROCS(0)
	if want > 16 {
		want = 16
	}
	p = NewPool(16, 0)
	if w := p.Workers(); w != want {
		t.Errorf("pool workers = %d, want %d", w, want)
	}
	p.Close()
}

// TestPoolAffinity pins the shard→worker affinity contract: across many
// Run calls, every shard is always executed by the same goroutine, and
// the blocks are contiguous.
func TestPoolAffinity(t *testing.T) {
	const (
		shards  = 12
		workers = 5
		rounds  = 20
	)
	p := NewPool(shards, workers)
	defer p.Close()
	var mu sync.Mutex
	owner := make(map[int][]byte, shards) // shard → goroutine stack ids seen
	gid := func() []byte {
		// The goroutine id line of a stack trace identifies the worker.
		buf := make([]byte, 64)
		return buf[:runtime.Stack(buf, false)]
	}
	first := make(map[int]string, shards)
	for round := 0; round < rounds; round++ {
		p.Run(func(i int) {
			id := string(gid())
			mu.Lock()
			if round == 0 {
				first[i] = id
			} else if first[i] != id {
				owner[i] = append(owner[i], 1)
			}
			mu.Unlock()
		})
	}
	for i, v := range owner {
		if len(v) > 0 {
			t.Errorf("shard %d migrated between workers %d times", i, len(v))
		}
	}
	// Contiguity: shards sharing a worker form one interval.
	byWorker := make(map[string][]int)
	for i := 0; i < shards; i++ {
		byWorker[first[i]] = append(byWorker[first[i]], i)
	}
	if len(byWorker) != workers {
		t.Fatalf("%d distinct workers, want %d", len(byWorker), workers)
	}
	for id, ss := range byWorker {
		for j := 1; j < len(ss); j++ {
			if ss[j] != ss[j-1]+1 {
				t.Errorf("worker %q owns non-contiguous shards %v", id[:16], ss)
			}
		}
	}
}

// TestPoolCleanupReapsWorkers: an abandoned pool's goroutines exit once
// the GC runs the cleanup — the leak guard for engines dropped without
// Close.
func TestPoolCleanupReapsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		for i := 0; i < 8; i++ {
			p := NewPool(8, 4)
			p.Run(func(int) {})
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after GC — pool workers not reaped", before, runtime.NumGoroutine())
}

// TestPoolConcurrentPhases hammers Run under the race detector: the phase
// work reads and writes disjoint per-shard state, which must be properly
// ordered by the barrier.
func TestPoolConcurrentPhases(t *testing.T) {
	const shards = 16
	p := NewPool(shards, 4)
	defer p.Close()
	state := make([]int, shards)
	sum := 0
	for round := 0; round < 200; round++ {
		p.Run(func(i int) { state[i]++ })
		// Between barriers the driver may read every shard's state.
		for _, v := range state {
			sum += v
		}
	}
	want := 0
	for r := 1; r <= 200; r++ {
		want += r * shards
	}
	if sum != want {
		t.Fatalf("sum %d, want %d", sum, want)
	}
}
