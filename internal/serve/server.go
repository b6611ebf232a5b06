package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Options configures a Server.
type Options struct {
	// Workers is the scheduler budget: the number of runs stepped
	// concurrently (default GOMAXPROCS). Runs beyond it queue.
	Workers int
	// RunWorkers is the per-run phase worker count passed to the sharded
	// engine (shard.Options.Workers; default GOMAXPROCS, clamped to the
	// run's shard count). It never affects trajectories — with several
	// concurrent runs, 1 avoids oversubscribing the cores.
	RunWorkers int
	// MaxQueue bounds the number of queued runs (default 256); submissions
	// beyond it are rejected with 503.
	MaxQueue int
	// Dir is the data directory for the manifest and per-run checkpoints.
	// Empty runs the server in memory: no persistence, no restart story.
	Dir string
	// CheckpointEvery is the default periodic snapshot period in rounds
	// for rbb runs whose spec does not set one (default 0: snapshots only
	// on shutdown, on demand, and at completion).
	CheckpointEvery int64
	// MaxHistory bounds the number of retained terminal runs (0 =
	// unlimited): beyond it the oldest terminal runs are removed, along
	// with their checkpoints and result-cache entries. Queued and running
	// runs never count against it.
	MaxHistory int
	// TTL, when positive, removes terminal runs TTL after they finished
	// (a background janitor sweeps while the server runs; expired runs
	// are also collected opportunistically on submissions and
	// completions).
	TTL time.Duration
	// Logger receives the structured request and run-lifecycle log (nil
	// discards it — tests stay quiet by default).
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ on the handler. Off
	// by default: the profiling surface is opt-in, not part of the public
	// API.
	Pprof bool
}

// Server is the run service: a registry of runs, a bounded scheduler
// multiplexing them over Workers slots, and the HTTP layer (Handler).
// Create with New, stop with Shutdown.
type Server struct {
	opts   Options
	store  *store // nil in memory-only mode
	now    func() time.Time
	logger *slog.Logger

	mu     sync.Mutex
	runs   map[string]*run
	order  []string // submission order, for listing and the manifest
	queue  []string // FIFO of queued run ids
	nextID int
	// cache maps the result-determining spec key of every retained done
	// run to its stored result, so identical resubmissions are answered
	// without recomputing (bit-identical by construction). Entries die
	// with the run retention GC removes, which bounds the cache by the
	// retained history.
	cache map[string]cacheEntry
	// campaigns are the in-memory campaigns campaign.Run drives (see
	// campaigns.go); their points are ordinary runs and carry all the
	// durability.
	campaigns     map[string]*campaignRun
	campaignOrder []string
	nextCampaign  int

	persistMu sync.Mutex // serializes manifest writes

	stopCtx context.Context
	stop    context.CancelFunc
	wake    chan struct{} // scheduler pokes, capacity Workers
	wg      sync.WaitGroup
}

// cacheEntry is one stored result: the producing run (whose GC evicts the
// entry) and the completed round count + summary served to cache hits.
type cacheEntry struct {
	runID   string
	round   int64
	summary *shard.Summary
}

// specKey canonicalizes the result-determining fields of a normalized
// spec. Placement and snapshot knobs (Placement, CheckpointEvery,
// StreamEvery) are deliberately absent: they never perturb the trajectory,
// so specs differing only there share a result.
func specKey(sp Spec) string { return sp.ResultKey() }

// New builds a server, restores any persisted state from opts.Dir, and
// starts the worker pool. Queued and interrupted runs from a previous
// process resume immediately — rbb runs from their checkpoints,
// byte-identically.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 256
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		opts:      opts,
		now:       time.Now,
		logger:    logger,
		runs:      make(map[string]*run),
		cache:     make(map[string]cacheEntry),
		campaigns: make(map[string]*campaignRun),
		wake:      make(chan struct{}, opts.Workers),
	}
	s.stopCtx, s.stop = context.WithCancel(context.Background())
	if opts.Dir != "" {
		st, err := newStore(opts.Dir)
		if err != nil {
			return nil, err
		}
		s.store = st
		if err := s.restore(); err != nil {
			return nil, err
		}
		s.gc() // apply the retention policy to the inherited history
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if opts.TTL > 0 {
		// The janitor sweeps expired terminal runs even when the server
		// is otherwise idle. Interval: half the TTL, clamped to [1s, 1m].
		interval := opts.TTL / 2
		if interval < time.Second {
			interval = time.Second
		}
		if interval > time.Minute {
			interval = time.Minute
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-s.stopCtx.Done():
					return
				case <-t.C:
					s.gc()
				}
			}
		}()
	}
	return s, nil
}

// restore loads the manifest and re-enqueues unfinished runs. A run that
// was mid-flight when the previous process died keeps its recorded round
// for display; the authoritative resume point is its checkpoint (absent
// one, the run restarts from round zero — same trajectory either way).
func (s *Server) restore() error {
	m, err := s.store.LoadManifest()
	if err != nil {
		return err
	}
	s.nextID = m.NextID
	for _, info := range m.Runs {
		// Terminal runs persisted before the finished_unix field (or by a
		// crash between transition and stamp) carry a zero finish time;
		// date them to the restore so a freshly enabled TTL ages them
		// from now instead of collecting the whole history at startup.
		if info.Status.Terminal() && info.FinishedUnix == 0 {
			info.FinishedUnix = s.now().Unix()
		}
		r := newRun(info.ID, info.Spec)
		r.info = info
		// A manifest persisted mid-run may carry a Progress estimate; it is
		// meaningless in any restored state.
		r.info.Progress = nil
		if !info.Status.Terminal() {
			r.info.Status = StatusQueued
			resumable := false
			if info.Spec.Process == ProcessRBB {
				if resumable, err = s.store.HasCheckpoint(info.ID); err != nil {
					return err
				}
			}
			if !resumable {
				r.info.Round = 0
			}
			s.queue = append(s.queue, info.ID)
		}
		s.runs[info.ID] = r
		s.order = append(s.order, info.ID)
		if info.Status == StatusDone && info.Summary != nil {
			s.cache[specKey(info.Spec)] = cacheEntry{runID: info.ID, round: info.Round, summary: info.Summary}
		}
	}
	s.logger.Info("state restored", "runs", len(m.Runs), "requeued", len(s.queue))
	return nil
}

// Submit validates and enqueues a run, returning its public state. A
// submission whose result-determining fields match a retained done run is
// answered from the result cache: the returned run is already done,
// carries the stored Summary and Cached: true, and never occupies a queue
// slot or a worker.
func (s *Server) Submit(spec Spec) (RunInfo, error) {
	if err := spec.Normalize(s.opts.CheckpointEvery); err != nil {
		return RunInfo{}, &badRequestError{err}
	}
	// Reject unreachable placement hosts at submit time: failing the
	// misconfigured submission with an attributable 4xx beats queueing a
	// run that dies mid-join. Probed before the cache lookup so a bad
	// placement is rejected deterministically, hit or miss.
	if err := spec.ProbePlacement(0); err != nil {
		return RunInfo{}, &badRequestError{err}
	}
	s.mu.Lock()
	if ent, ok := s.cache[specKey(spec)]; ok {
		if obs.Enabled() {
			mCacheHits.Inc()
		}
		s.nextID++
		id := fmt.Sprintf("r%06d", s.nextID)
		r := newRun(id, spec)
		r.info.Status = StatusDone
		r.info.Round = ent.round
		r.info.Summary = ent.summary
		r.info.Cached = true
		r.info.FinishedUnix = s.now().Unix()
		s.runs[id] = r
		s.order = append(s.order, id)
		s.mu.Unlock()
		s.logger.Info("run served from cache", "id", id, "source", ent.runID)
		s.persist()
		s.gc()
		return r.Info(), nil
	}
	if len(s.queue) >= s.opts.MaxQueue {
		s.mu.Unlock()
		return RunInfo{}, errQueueFull
	}
	if obs.Enabled() {
		mCacheMisses.Inc()
	}
	s.nextID++
	id := fmt.Sprintf("r%06d", s.nextID)
	r := newRun(id, spec)
	s.runs[id] = r
	s.order = append(s.order, id)
	s.queue = append(s.queue, id)
	s.mu.Unlock()
	s.logger.Info("run queued", "id", id, "process", spec.Process,
		"n", spec.N, "rounds", spec.Rounds, "shards", spec.Shards)
	s.persist()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	s.gc()
	return r.Info(), nil
}

// finishRun applies a terminal (or re-queued) transition, stamping the
// finish time on terminal ones (the retention TTL counts from it).
func (s *Server) finishRun(r *run, mutate func(*RunInfo)) {
	ts := s.now().Unix()
	r.finish(func(info *RunInfo) {
		mutate(info)
		if info.Status.Terminal() {
			info.FinishedUnix = ts
		} else {
			info.FinishedUnix = 0
		}
	})
}

// gc applies the retention policy: terminal runs past Options.TTL, then
// the oldest terminal runs beyond Options.MaxHistory, are removed together
// with their checkpoints and result-cache entries. Terminal is a final
// state, so the scan can run unlocked and the removal re-acquire the lock
// without races.
func (s *Server) gc() {
	if s.opts.MaxHistory <= 0 && s.opts.TTL <= 0 {
		return
	}
	infos := s.Runs()
	victims := make(map[string]bool)
	cutoff := int64(0)
	if s.opts.TTL > 0 {
		cutoff = s.now().Add(-s.opts.TTL).Unix()
	}
	kept := 0
	for _, info := range infos {
		if info.Status.Terminal() {
			if s.opts.TTL > 0 && info.FinishedUnix <= cutoff {
				victims[info.ID] = true
			} else {
				kept++
			}
		}
	}
	if s.opts.MaxHistory > 0 && kept > s.opts.MaxHistory {
		excess := kept - s.opts.MaxHistory
		for _, info := range infos {
			if excess == 0 {
				break
			}
			if info.Status.Terminal() && !victims[info.ID] {
				victims[info.ID] = true
				excess--
			}
		}
	}
	if len(victims) == 0 {
		return
	}
	s.mu.Lock()
	order := s.order[:0]
	for _, id := range s.order {
		if victims[id] {
			delete(s.runs, id)
		} else {
			order = append(order, id)
		}
	}
	s.order = order
	for key, ent := range s.cache {
		if victims[ent.runID] {
			delete(s.cache, key)
		}
	}
	s.mu.Unlock()
	if s.store != nil {
		for id := range victims {
			s.store.RemoveCheckpoint(id)
		}
	}
	s.persist()
}

// lookup returns the run with the given id, if any.
func (s *Server) lookup(id string) (*run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	return r, ok
}

// Runs lists every run in submission order.
func (s *Server) Runs() []RunInfo {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	runs := make([]*run, 0, len(ids))
	for _, id := range ids {
		runs = append(runs, s.runs[id])
	}
	s.mu.Unlock()
	out := make([]RunInfo, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Info())
	}
	return out
}

// Cancel cancels a queued or running run. It reports false when the run
// was already terminal.
func (s *Server) Cancel(id string) (bool, error) {
	r, ok := s.lookup(id)
	if !ok {
		return false, errUnknownRun
	}
	if !r.requestCancel() {
		return false, nil
	}
	// A queued run has no worker to observe the cancellation; finalize it
	// here. (A running one is finalized by its worker.) finish is a no-op
	// transition if the worker claimed the run between requestCancel and
	// this check — setRunning refuses cancelled runs, so the claim cannot
	// have succeeded.
	if r.Info().Status == StatusQueued {
		s.finishRun(r, func(info *RunInfo) { info.Status = StatusCancelled })
		// Drop the tombstone from the queue eagerly: workers skip
		// cancelled entries anyway, but a dead id left in s.queue would
		// count against MaxQueue and 503 live submissions.
		s.mu.Lock()
		for i, qid := range s.queue {
			if qid == id {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		if s.store != nil {
			s.store.RemoveCheckpoint(id)
		}
		s.persist()
	}
	return true, nil
}

// Counters reports scheduler occupancy: queued, running, and terminal run
// counts.
func (s *Server) Counters() (queued, running, terminal int) {
	for _, info := range s.Runs() {
		switch {
		case info.Status == StatusQueued:
			queued++
		case info.Status == StatusRunning:
			running++
		default:
			terminal++
		}
	}
	return
}

// Shutdown stops the scheduler: every running run snapshots (rbb) and
// returns to the queue at its next round boundary, workers drain, and the
// manifest is persisted. The server must not be used afterwards; a new
// Server over the same directory picks the interrupted runs back up.
func (s *Server) Shutdown() {
	s.logger.Info("shutting down")
	s.stop()
	s.wg.Wait()
	s.persist()
	s.logger.Info("stopped")
}

// persist writes the manifest (memory-only mode: no-op). persistMu is
// held across both the state snapshot and the file write, so concurrent
// transitions cannot overwrite a newer manifest with a staler one.
// Errors are swallowed — a full disk must not kill the simulations; the
// next transition retries.
func (s *Server) persist() {
	if s.store == nil {
		return
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	s.mu.Lock()
	m := &manifest{NextID: s.nextID}
	runs := make([]*run, 0, len(s.order))
	for _, id := range s.order {
		runs = append(runs, s.runs[id])
	}
	s.mu.Unlock()
	for _, r := range runs {
		m.Runs = append(m.Runs, r.Info())
	}
	_ = s.store.SaveManifest(m)
}

// nextQueued pops the first queued, not-yet-cancelled run (nil if none).
func (s *Server) nextQueued() *run {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) > 0 {
		id := s.queue[0]
		s.queue = s.queue[1:]
		// A cancelled entry may linger here until popped, and retention
		// GC may have dropped it from the registry by then.
		if r := s.runs[id]; r != nil && !r.wasCancelled() {
			return r
		}
	}
	return nil
}

// worker is one scheduler slot: it claims queued runs and executes them
// until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		r := s.nextQueued()
		if r == nil {
			select {
			case <-s.stopCtx.Done():
				return
			case <-s.wake:
				continue
			}
		}
		s.execute(r)
		select {
		case <-s.stopCtx.Done():
			return
		default:
		}
	}
}

// execute runs one simulation to completion, cancellation, or shutdown.
func (s *Server) execute(r *run) {
	ctx, cancel := context.WithCancel(s.stopCtx)
	defer cancel()
	if !r.setRunning(cancel) {
		// Cancelled while queued and already finalized by Cancel.
		return
	}
	s.persist()
	info := r.Info()
	spec, id := info.Spec, info.ID
	s.logger.Info("run started", "id", id, "process", spec.Process, "from_round", info.Round)
	start := s.now()

	round, interrupted, summary, err := s.runSpec(ctx, r, spec)

	switch {
	case err != nil:
		s.finishRun(r, func(info *RunInfo) {
			info.Status = StatusFailed
			info.Error = err.Error()
			info.Round = round
		})
	case interrupted && r.wasCancelled():
		s.finishRun(r, func(info *RunInfo) {
			info.Status = StatusCancelled
			info.Round = round
		})
		if s.store != nil {
			s.store.RemoveCheckpoint(id)
		}
	case interrupted:
		// Shutdown: back to the queue. The restart path resumes rbb runs
		// from the snapshot checkpoint.Run just wrote; non-checkpointable
		// processes re-run from round zero.
		s.finishRun(r, func(info *RunInfo) {
			info.Status = StatusQueued
			info.Round = round
			if spec.Process != ProcessRBB {
				info.Round = 0
			}
		})
	default:
		// Feed the result cache before publishing the result (first writer
		// wins; later identical runs would store a bit-identical summary
		// anyway): a client that reads the result and resubmits the same
		// law at once must hit the cache. The run is not terminal yet, so
		// gc() cannot have collected it; the live guard keeps an entry from
		// outliving its run should that ever change (gc evicts entries by
		// their producing run's id).
		s.mu.Lock()
		if _, live := s.runs[id]; live {
			if key := specKey(spec); s.cache[key].summary == nil {
				s.cache[key] = cacheEntry{runID: id, round: round, summary: summary}
			}
		}
		s.mu.Unlock()
		s.finishRun(r, func(info *RunInfo) {
			info.Status = StatusDone
			info.Round = round
			info.Summary = summary
		})
	}
	s.logger.Info("run left worker", "id", id, "status", string(r.Info().Status),
		"round", round, "elapsed_ms", float64(s.now().Sub(start))/float64(time.Millisecond))
	s.persist()
	s.gc()
}

// streamObserver emits an Event every spec.StreamEvery rounds and at the
// target round.
func streamObserver(r *run, pipe *shard.Pipeline, spec Spec) engine.Observer {
	return engine.ObserverFunc(func(st engine.Stepper) {
		round := st.Round()
		if round%spec.StreamEvery != 0 && round != spec.Rounds {
			return
		}
		r.publish(Event{
			Round:     round,
			MaxLoad:   st.MaxLoad(),
			EmptyFrac: float64(st.EmptyBins()) / float64(st.N()),
			WindowMax: pipe.WindowMax(),
		})
	})
}

// runSpec executes (or resumes) one run under checkpoint.Run. rbb runs
// on a server with a data directory start from, and snapshot into, the
// store's checkpoint file: periodic snapshots, on-demand trigger
// snapshots, and snapshot-and-stop on ctx cancellation. Every other run
// has no checkpoint path: tetris and batches have no snapshot support
// (a shutdown re-queues them from round zero, which replays the identical
// trajectory), and a memory-only server keeps nothing. The spec's
// placement decides where the rounds execute — in process or over TCP
// workers — never what they compute.
func (s *Server) runSpec(ctx context.Context, r *run, sp Spec) (int64, bool, *shard.Summary, error) {
	path := ""
	if s.store != nil && sp.Process == ProcessRBB {
		path = s.store.CheckpointPath(r.Info().ID)
	}
	proc, pipe, err := sp.Start(path, s.opts.RunWorkers)
	if err != nil {
		return 0, false, nil, err
	}
	defer proc.Close()
	pol := checkpoint.Policy{
		Path:     path,
		Every:    sp.CheckpointEvery,
		Seed:     sp.Seed,
		Pipeline: pipe,
		Trigger:  r.trigger,
		// A client cancellation deletes the run's checkpoint right after
		// the stop; don't write one just to unlink it (only shutdowns
		// need the stop snapshot).
		InterruptSnapshot: func() bool { return !r.wasCancelled() },
	}
	round, interrupted, err := checkpoint.Run(ctx, proc, sp.Rounds, pol, streamObserver(r, pipe, sp))
	if err != nil || interrupted {
		return round, interrupted, nil, err
	}
	sum := pipe.SummaryFor(proc)
	return round, false, &sum, nil
}

// badRequestError marks a client error (HTTP 400).
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

var (
	errUnknownRun = errors.New("unknown run")
	errQueueFull  = errors.New("queue full")
)
