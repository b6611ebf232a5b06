// Package local implements the in-process transport of the sharded round
// protocol: Pool, a persistent worker pool with shard→worker affinity.
//
// Pool keeps W long-lived workers, each owning a fixed contiguous block of
// shards; a shard is built and stepped by the same worker for the
// lifetime of the engine, so its working set stays in one core's cache
// hierarchy (and, with a first-touch NUMA policy, its pages stay on the
// node that steps it: the shard builds run through Run too, so each
// worker is the first to touch its shards' cells). Spawning fresh
// goroutines for every phase instead never beat it (BENCH_pool.json), so
// the pool is the only in-process runner.
package local

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/shard/transport"
)

// mBarrierWait records, per worker per phase, how long that worker's slice
// of the phase barrier idled for stragglers: phase wall time minus the
// worker's own busy time. Observational only — see the obs package doc.
var mBarrierWait = obs.Default.Histogram("rbb_barrier_wait_seconds",
	"Per-worker idle time at the phase barrier (phase duration minus worker busy time).",
	nil, obs.Label{Key: "transport", Value: "pool"})

// observeBarrier turns a phase's total wall time and per-worker busy times
// into barrier-wait observations.
func observeBarrier(total time.Duration, busy []time.Duration) {
	for _, b := range busy {
		wait := total - b
		if wait < 0 {
			wait = 0
		}
		mBarrierWait.Observe(wait.Seconds())
	}
}

// poolShared is the part of a Pool reachable from its worker goroutines and
// from the GC cleanup. It deliberately excludes the Pool struct itself, so
// an abandoned Pool becomes unreachable and the cleanup can reap the
// workers even when Close was never called.
type poolShared struct {
	once sync.Once
	reqs []chan func(i int)
}

func (s *poolShared) close() {
	s.once.Do(func() {
		for _, ch := range s.reqs {
			close(ch)
		}
	})
}

// Pool is the persistent worker pool: W long-lived goroutines, worker w
// owning the fixed contiguous shard block [w·S/W, (w+1)·S/W). Every Run
// executes a shard's work on its owning worker, so the affinity holds
// across phases and rounds. Close (or garbage collection of an abandoned
// pool) terminates the workers.
type Pool struct {
	shared  *poolShared
	wg      *sync.WaitGroup
	shards  int
	workers int
	closed  bool
	// busy[w] is worker w's busy time in the phase dispatched last; workers
	// write their slot before wg.Done, Run reads after wg.Wait. Workers
	// capture the slice, never the Pool (see the cleanup note in NewPool).
	busy []time.Duration
}

// NewPool starts a pool of up to workers persistent goroutines over shards
// shards (clamped to [1, shards]). A single-worker pool starts no
// goroutine at all: the driving goroutine is the persistent worker —
// affinity and first-touch placement hold trivially — and the channel
// handoff would be pure overhead.
func NewPool(shards, workers int) *Pool {
	w := clampWorkers(shards, workers)
	p := &Pool{
		shared:  &poolShared{},
		wg:      new(sync.WaitGroup),
		shards:  shards,
		workers: w,
	}
	if w == 1 {
		return p
	}
	p.shared.reqs = make([]chan func(i int), w)
	p.busy = make([]time.Duration, w)
	for i := 0; i < w; i++ {
		// Contiguous blocks, remainder spread over the first shards%w
		// workers — the same arithmetic as the bin partition, so a pool
		// over S shards with W=S is exactly one shard per worker.
		lo := blockStart(shards, w, i)
		hi := blockStart(shards, w, i+1)
		ch := make(chan func(i int))
		p.shared.reqs[i] = ch
		wg := p.wg
		busy, slot := p.busy, i
		go func() {
			for f := range ch {
				if obs.Enabled() {
					start := time.Now()
					for s := lo; s < hi; s++ {
						f(s)
					}
					busy[slot] = time.Since(start)
				} else {
					busy[slot] = 0
					for s := lo; s < hi; s++ {
						f(s)
					}
				}
				wg.Done()
			}
		}()
	}
	// Safety net for engines that are dropped without Close: the workers
	// reference only their channel, block bounds and the WaitGroup — never
	// the Pool — so an abandoned Pool is collectable and this cleanup
	// closes the request channels, ending the worker goroutines.
	runtime.AddCleanup(p, func(s *poolShared) { s.close() }, p.shared)
	return p
}

// blockStart returns the first shard of worker w's block when shards are
// split into workers contiguous blocks (first shards mod workers blocks one
// larger).
func blockStart(shards, workers, w int) int {
	q, r := shards/workers, shards%workers
	if w <= r {
		return w * (q + 1)
	}
	return r*(q+1) + (w-r)*q
}

// Run implements transport.Runner: each worker applies f to its block; Run
// returns after every worker has finished (the phase barrier). Run must not
// be called after Close.
func (p *Pool) Run(f func(i int)) {
	if p.closed {
		panic("local: Pool.Run after Close")
	}
	if p.workers == 1 {
		for i := 0; i < p.shards; i++ {
			f(i)
		}
		return
	}
	measure := obs.Enabled()
	var t0 time.Time
	if measure {
		t0 = time.Now()
	}
	p.wg.Add(p.workers)
	for _, ch := range p.shared.reqs {
		ch <- f
	}
	p.wg.Wait()
	if measure {
		observeBarrier(time.Since(t0), p.busy)
	}
}

// Close terminates the worker goroutines. Idempotent.
func (p *Pool) Close() error {
	p.closed = true
	p.shared.close()
	return nil
}

// Workers returns the number of persistent workers.
func (p *Pool) Workers() int { return p.workers }

// clampWorkers resolves a worker-count request against the shard count:
// 0 means GOMAXPROCS, and the result is clamped to [1, shards].
func clampWorkers(shards, workers int) int {
	if shards < 1 {
		panic(fmt.Sprintf("local: runner over %d shards", shards))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	return workers
}

// Compile-time interface check.
var _ transport.Runner = (*Pool)(nil)
