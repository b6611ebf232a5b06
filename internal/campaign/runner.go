package campaign

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/shard"
	"repro/internal/spec"
	"repro/internal/table"
)

// Options configures one campaign execution.
type Options struct {
	// Dir is the campaign directory: manifest, per-point checkpoints and
	// the aggregate artifacts live in it. Empty runs the campaign
	// in-memory (no resumability, no artifacts).
	Dir string
	// Concurrency overrides the spec's concurrent-point budget when > 0.
	Concurrency int
	// HostWorkers is the host's default phase worker count per in-process
	// point (0 = GOMAXPROCS), overridden per point by the base placement.
	HostWorkers int
	// CheckpointEvery is the periodic snapshot period (rounds) for
	// in-process rbb points whose spec does not set its own. 0 writes
	// only interrupt and final snapshots.
	CheckpointEvery int64
	// Exec runs each point. nil runs points in process (spec.Start +
	// checkpoint.Run, checkpointing rbb points into Dir); Remote(url)
	// runs them against a running rbb-serve, where identical law points
	// hit the server's result cache; rbb-serve passes its own scheduler.
	Exec Executor
	// OnPoint, when non-nil, observes every point state transition
	// (running, done, failed, and back-to-pending on interruption) from
	// the worker goroutines; it must be safe for concurrent use.
	OnPoint func(PointState)
}

// Executor runs one campaign point. RunPoint drives pt to a terminal
// outcome: a PointRun with the summary (done), an error (failed), or
// PointRun.Interrupted when ctx was cancelled mid-flight (the point drops
// back to pending for a resume). runID is the run id the manifest holds
// for the point from an earlier attempt ("" if none); an executor whose
// runs outlive the campaign process re-attaches to it. started must be
// called once, as soon as the point's run exists, with its run id (""
// for runs that have none): it marks the point running and persists the
// id, so a campaign killed mid-point re-attaches instead of resubmitting.
type Executor interface {
	RunPoint(ctx context.Context, pt Point, runID string, started func(runID string)) (PointRun, error)
}

// PointRun is one point execution's outcome.
type PointRun struct {
	// Summary is the point's result; nil unless the run completed.
	Summary *shard.Summary
	// Round is the last completed round.
	Round int64
	// RunID is the executor's run identity ("" in process).
	RunID string
	// Cached marks a result answered from a result cache.
	Cached bool
	// Interrupted reports a run stopped by ctx before completing.
	Interrupted bool
}

// Result is a campaign execution's outcome.
type Result struct {
	// CampaignID is the law identity of the expanded campaign.
	CampaignID string
	// AxisNames are the plan's axis names (replica coordinate included).
	AxisNames []string
	// Points are the final point states in expansion order.
	Points []PointState
	// Done and Failed count terminal points.
	Done, Failed int
	// Stopped reports an interrupted campaign: the context was cancelled
	// before every point reached a terminal state. Re-running the same
	// spec over the same Dir resumes it.
	Stopped bool
	// Table is the aggregate phase-diagram table, set once every point
	// is done (with a Dir, the artifacts are on disk too).
	Table *table.Table
}

// runner is the shared state of one campaign execution.
type runner struct {
	opts Options
	spec CampaignSpec
	plan *Plan

	mu     sync.Mutex
	states []PointState
}

// Run executes (or resumes) a campaign: expand, reconcile against the
// directory's manifest, then drive every non-done point through a pool of
// Concurrency workers in expansion order. Cancelling ctx is the
// SIGTERM/shutdown hook — in-flight rbb points snapshot at their next
// round boundary via the checkpoint machinery and drop back to pending;
// queued points never start. Point failures don't stop the campaign; they
// are recorded and reported in the Result (and retried by a resume).
func Run(ctx context.Context, cs CampaignSpec, opts Options) (*Result, error) {
	plan, err := cs.Expand()
	if err != nil {
		return nil, err
	}
	if opts.Exec == nil {
		opts.Exec = local{dir: opts.Dir, hostWorkers: opts.HostWorkers, checkpointEvery: opts.CheckpointEvery}
	}
	r := &runner{opts: opts, spec: cs, plan: plan}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, err
		}
		m, err := ReadManifest(opts.Dir)
		if err != nil {
			return nil, err
		}
		if m != nil {
			if r.states, err = reconcile(m, plan); err != nil {
				return nil, err
			}
		}
	}
	if r.states == nil {
		r.states = newManifest(cs, plan).Points
	}
	if err := r.persist(); err != nil {
		return nil, err
	}

	conc := opts.Concurrency
	if conc <= 0 {
		conc = cs.Concurrency
	}
	if conc < 1 {
		conc = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// A cancelled campaign drains the queue without starting
				// new points; they stay pending for the resume.
				if ctx.Err() == nil {
					r.runPoint(ctx, i)
				}
			}
		}()
	}
	for i := range plan.Points {
		// Done points are skipped byte-identically: their stored summaries
		// and digests feed the aggregate exactly as a fresh run would.
		// Failed points get a fresh attempt.
		if r.states[i].Status != StatusDone {
			jobs <- i
		}
	}
	close(jobs)
	wg.Wait()

	res := &Result{CampaignID: plan.ID, AxisNames: plan.AxisNames, Points: r.snapshotStates()}
	for i := range res.Points {
		switch res.Points[i].Status {
		case StatusDone:
			res.Done++
		case StatusFailed:
			res.Failed++
		}
	}
	res.Stopped = ctx.Err() != nil && res.Done+res.Failed < len(res.Points)
	if err := r.persist(); err != nil {
		return res, err
	}
	if res.Done == len(res.Points) {
		tb, err := Aggregate(cs, plan, res.Points)
		if err != nil {
			return res, err
		}
		res.Table = tb
		if opts.Dir != "" {
			if err := WriteArtifacts(opts.Dir, tb); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// snapshotStates copies the current point states under the lock.
func (r *runner) snapshotStates() []PointState {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PointState, len(r.states))
	copy(out, r.states)
	return out
}

// persist writes the manifest (no-op without a directory).
func (r *runner) persist() error {
	if r.opts.Dir == "" {
		return nil
	}
	r.mu.Lock()
	m := &Manifest{Version: Version, CampaignID: r.plan.ID, Spec: r.spec, Points: make([]PointState, len(r.states))}
	copy(m.Points, r.states)
	r.mu.Unlock()
	return WriteManifest(r.opts.Dir, m)
}

// transition updates point i under the lock, persists the manifest, and
// notifies the observer. Manifest write errors are reported through the
// point state: losing durability silently would break the resume
// contract.
func (r *runner) transition(i int, mutate func(*PointState)) {
	r.mu.Lock()
	mutate(&r.states[i])
	st := r.states[i]
	r.mu.Unlock()
	if err := r.persist(); err != nil && st.Status != StatusFailed {
		r.mu.Lock()
		r.states[i].Status = StatusFailed
		r.states[i].Error = fmt.Sprintf("persist manifest: %v", err)
		st = r.states[i]
		r.mu.Unlock()
	}
	if r.opts.OnPoint != nil {
		r.opts.OnPoint(st)
	}
}

// runPoint drives point i to a terminal state (or to an interrupted
// pending state when ctx is cancelled mid-flight) through the executor.
func (r *runner) runPoint(ctx context.Context, i int) {
	pt := r.plan.Points[i]
	r.mu.Lock()
	prevRunID := r.states[i].RunID
	r.mu.Unlock()
	start := time.Now()
	run, err := r.opts.Exec.RunPoint(ctx, pt, prevRunID, func(runID string) {
		r.transition(i, func(st *PointState) { st.Status, st.RunID = StatusRunning, runID })
	})
	switch {
	case err != nil:
		notePoint(StatusFailed, false, 0)
		r.transition(i, func(st *PointState) {
			st.Status, st.Error, st.Round, st.RunID = StatusFailed, err.Error(), run.Round, run.RunID
		})
	case run.Interrupted:
		notePoint(StatusPending, true, 0)
		r.transition(i, func(st *PointState) {
			st.Status, st.Round, st.RunID = StatusPending, run.Round, run.RunID
		})
	default:
		notePoint(StatusDone, false, time.Since(start).Seconds())
		r.transition(i, func(st *PointState) {
			st.Status, st.Round, st.RunID, st.Cached = StatusDone, run.Round, run.RunID, run.Cached
			st.Summary, st.Digest, st.Error = run.Summary, SummaryDigest(run.Summary), ""
		})
		if r.opts.Dir != "" {
			// The point's checkpoint has served its purpose; the summary
			// is the durable result now.
			os.Remove(CheckpointPath(r.opts.Dir, pt.ID))
		}
	}
}

// local is the in-process executor: rbb points checkpoint into the
// campaign directory (resuming from the point's snapshot if one exists,
// periodic + interrupt snapshots), the leaky-bins processes run to
// completion or replay from round zero after an interruption — both
// reproduce the identical trajectory either way.
type local struct {
	dir             string
	hostWorkers     int
	checkpointEvery int64
}

// RunPoint implements Executor.
func (l local) RunPoint(ctx context.Context, pt Point, _ string, started func(string)) (PointRun, error) {
	sp := pt.Spec
	pol := checkpoint.Policy{Every: sp.CheckpointEvery, Seed: sp.Seed}
	if pol.Every == 0 {
		pol.Every = l.checkpointEvery
	}
	if l.dir != "" && sp.Process == spec.ProcessRBB {
		pol.Path = CheckpointPath(l.dir, pt.ID)
	}
	proc, pipe, err := sp.Start(pol.Path, l.hostWorkers)
	if err != nil {
		return PointRun{}, err
	}
	defer proc.Close()
	started("")
	pol.Pipeline = pipe
	round, stopped, err := checkpoint.Run(ctx, proc, sp.Rounds, pol)
	if err != nil || stopped {
		return PointRun{Round: round, Interrupted: stopped}, err
	}
	sum := pipe.SummaryFor(proc)
	return PointRun{Summary: &sum, Round: round}, nil
}
