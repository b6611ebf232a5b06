package checkpoint

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/shard"
)

// Policy configures whole-run checkpointing for Run.
type Policy struct {
	// Path is the checkpoint destination, atomically replaced on every
	// write. Empty disables checkpointing: Run then drives any
	// engine.Stepper as a plain observe loop, still cancellable through
	// its context. A set Path requires a Process.
	Path string
	// Every is the period of the periodic hook: a snapshot is written after
	// every Every-th completed round. 0 writes only the final (and
	// interrupt- or trigger-driven) snapshots.
	Every int64
	// Seed is the run's master seed, recorded in the snapshot header for
	// provenance.
	Seed uint64
	// Pipeline, when non-nil, is observed after every round and its
	// accumulator state rides inside every snapshot, so resumed summaries
	// cover the whole run, not just the post-resume suffix.
	Pipeline *shard.Pipeline
	// Trigger, when non-nil, requests an on-demand snapshot: each value
	// received causes a write at the next round boundary without stopping
	// the run. The service frontend wires its checkpoint-now endpoint into
	// it.
	Trigger <-chan struct{}
	// InterruptSnapshot, if non-nil, is consulted when ctx is cancelled:
	// returning false skips the stop snapshot (the run still stops). The
	// service frontend uses it to avoid writing — and immediately
	// deleting — a full snapshot when the stop is a client cancellation
	// rather than a shutdown; at n = 10⁸ that is ~0.5 GB of pointless
	// file I/O per cancel. nil means always snapshot.
	InterruptSnapshot func() bool
	// Compress flate-compresses checkpoint frame payloads (see
	// Options.Compress for the determinism caveat).
	Compress bool
	// OnWrite, if non-nil, is called after every successful checkpoint
	// write with the wall-clock time the write took (snapshot or stream,
	// encode and file I/O included). cmd/rbb-sim feeds its
	// ckpt_encode_seconds summary field from it.
	OnWrite func(seconds float64)
}

// Process is the stepper surface Run checkpoints: a round stepper whose
// complete deterministic state can be checkpointed between rounds, and
// the arrival rule it steps. Snapshot gathers that state into memory
// (resume tooling and tests use it); Run never does, it streams. Run
// checkpoints only the relaunch rule, because the format records no rule
// and every checkpoint resumes as rbb. *shard.Process (and with it
// *shard.Tetris) implements Process, and so does the multi-process
// coordinator of internal/shard/transport/tcp — which is how
// `rbb-sim -procs P` shares this runner (periodic, triggered and
// snapshot-and-stop checkpoints) with single-process runs.
type Process interface {
	engine.Stepper
	Rule() shard.ArrivalRule
	Snapshot() (*shard.EngineSnapshot, error)
}

// StreamProcess is implemented by engines that serialize their own
// checkpoint stream — the multi-process coordinator, whose workers encode
// their shards concurrently into self-checksummed frames (EncodeShards)
// that the coordinator relays straight to dst.
type StreamProcess interface {
	StreamCheckpoint(dst io.Writer, seed uint64, obs *shard.PipelineSnapshot, opts Options) error
}

// streamFunc writes one whole checkpoint stream of a running engine.
type streamFunc func(dst io.Writer, seed uint64, obs *shard.PipelineSnapshot, opts Options) error

// streamer returns how Run writes p's checkpoint stream: through the
// engine's own StreamCheckpoint, or by encoding an in-process process's
// live shards. Either way no whole-run snapshot is gathered.
func streamer(p Process) (streamFunc, error) {
	switch p := p.(type) {
	case StreamProcess:
		return p.StreamCheckpoint, nil
	case *shard.Process:
		return func(dst io.Writer, seed uint64, obs *shard.PipelineSnapshot, opts Options) error {
			return writeProcess(dst, p, seed, obs, opts)
		}, nil
	}
	return nil, fmt.Errorf("checkpoint: %T streams no checkpoint (want a StreamProcess or a *shard.Process)", p)
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	k, err := c.w.Write(p)
	c.n += int64(k)
	return k, err
}

// Run drives p to round target under pol, notifying obs (and pol.Pipeline)
// after every round. It is the one run loop: cmd/rbb-sim, rbb-serve and
// in-process campaign points all step through it, checkpointed or not.
// All checkpoint hooks are barrier-synchronized for free: a sharded Step
// returns only after the release and commit barriers, so every snapshot
// taken between Steps is a consistent whole-run cut — no extra
// synchronization protocol exists, by construction.
//
// With pol.Path empty, p may be any stepper (tetris and batches included).
// With pol.Path set, p must be a Process stepping the relaunch rule;
// anything else is refused before the first step, with an error naming
// the rule. The guard is by rule, not by type, so it holds on every
// placement: a tetris run in process or on tcp workers is a Process too,
// and its checkpoint would later resume as an rbb run.
//
// Cancelling ctx is the snapshot-and-stop hook: Run stops at the next
// round boundary (after at least one round), writes a snapshot when
// pol.Path is set, and returns early with stopped = true. The CLI derives
// ctx from SIGTERM/SIGINT via signal.NotifyContext, the server from its
// shutdown and per-run cancellation contexts, the campaign runner from
// its own — so there is exactly one snapshot-and-stop implementation.
//
// Run returns the number of completed rounds and whether it stopped early
// on ctx. When pol.Path is set, a snapshot is on disk at return: written
// every pol.Every rounds, on each pol.Trigger receive, at cancellation,
// and at normal completion.
func Run(ctx context.Context, p engine.Stepper, target int64, pol Policy, obs ...engine.Observer) (int64, bool, error) {
	// The pipeline observes before the caller's observers, so a caller
	// observer reading the pipeline (the server's stream events do) sees
	// the accumulators already folded over the round it is looking at.
	if pol.Pipeline != nil {
		obs = append([]engine.Observer{pol.Pipeline}, obs...)
	}
	var stream streamFunc
	if pol.Path != "" {
		cp, ok := p.(Process)
		if !ok {
			return p.Round(), false, fmt.Errorf("checkpoint: %T cannot be checkpointed (not a checkpoint.Process)", p)
		}
		if rule := cp.Rule(); !rule.Conserves() {
			return p.Round(), false, fmt.Errorf("checkpoint: cannot checkpoint a %s run (the format resumes only relaunch)", rule)
		}
		var err error
		if stream, err = streamer(cp); err != nil {
			return p.Round(), false, err
		}
	}
	// written remembers the round of the last successful write, so a
	// trigger snapshot landing on a periodic boundary or the final round
	// does not produce two identical back-to-back full writes.
	written := int64(-1)
	write := func() error {
		if pol.Path == "" {
			return nil
		}
		span := startCkptSpan()
		start := time.Now()
		var obs *shard.PipelineSnapshot
		if pol.Pipeline != nil {
			obs = pol.Pipeline.Snapshot()
		}
		var bytes int64
		err := WriteFileFunc(pol.Path, func(w io.Writer) error {
			cw := &countingWriter{w: w}
			err := stream(cw, pol.Seed, obs, Options{Compress: pol.Compress})
			bytes = cw.n
			return err
		})
		if err != nil {
			return err
		}
		seconds := time.Since(start).Seconds()
		noteCkptWrite(seconds, bytes)
		span.End()
		if pol.OnWrite != nil {
			pol.OnWrite(seconds)
		}
		written = p.Round()
		return nil
	}
	for p.Round() < target {
		p.Step()
		for _, o := range obs {
			o.Observe(p)
		}
		// Cancellation wins over a simultaneous trigger: both cases write,
		// but only cancellation stops, so checking it first keeps shutdown
		// latency one round.
		select {
		case <-ctx.Done():
			if pol.InterruptSnapshot == nil || pol.InterruptSnapshot() {
				if err := write(); err != nil {
					return p.Round(), true, fmt.Errorf("interrupt snapshot: %w", err)
				}
			}
			return p.Round(), true, nil
		default:
		}
		select {
		case <-pol.Trigger:
			if err := write(); err != nil {
				return p.Round(), false, fmt.Errorf("triggered snapshot: %w", err)
			}
		default:
		}
		if pol.Every > 0 && p.Round()%pol.Every == 0 && p.Round() < target && written != p.Round() {
			if err := write(); err != nil {
				return p.Round(), false, fmt.Errorf("periodic snapshot: %w", err)
			}
		}
	}
	if written != p.Round() {
		if err := write(); err != nil {
			return p.Round(), false, fmt.Errorf("final snapshot: %w", err)
		}
	}
	return p.Round(), false, nil
}
