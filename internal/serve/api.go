// Package serve is the long-running service frontend: an HTTP/JSON layer
// that multiplexes many concurrent sharded simulations over a bounded
// worker budget — the heavy-traffic path of the ROADMAP's north star.
//
// # API
//
//	POST   /v1/runs                 submit a run (Spec); 202 + RunInfo
//	GET    /v1/runs                 list all runs (newest last)
//	GET    /v1/runs/{id}            one run's RunInfo
//	GET    /v1/runs/{id}/result     final Summary; 409 until the run is done
//	GET    /v1/runs/{id}/stream     live observer events, NDJSON (or SSE
//	                                with Accept: text/event-stream)
//	POST   /v1/runs/{id}/cancel     cancel (DELETE /v1/runs/{id} is an alias)
//	POST   /v1/runs/{id}/checkpoint snapshot a running rbb run on demand
//	POST   /v1/campaigns            submit a parameter sweep
//	                                (campaign.CampaignSpec); 202 + CampaignInfo
//	GET    /v1/campaigns            list all campaigns (newest last)
//	GET    /v1/campaigns/{id}       one campaign's CampaignInfo
//	GET    /v1/campaigns/{id}/aggregate
//	                                phase-diagram table (?format=json|csv|text);
//	                                409 until the campaign is done
//	GET    /v1/campaigns/{id}/stream
//	                                per-point progress events, NDJSON or SSE
//	GET    /healthz                 liveness + scheduler counters
//
// # Determinism
//
// A run is the same pure function of (seed, n, shards) the CLI computes:
// the server builds the initial configuration and the process exactly as
// cmd/rbb-sim does — both lower the same spec.RunSpec — so a run's result
// and its byte-exact Summary encoding match `rbb-sim -json` for the same
// spec, no matter how many other runs share the scheduler. The worker
// budget, the per-run phase workers and the requested placement
// (Spec.Placement: the in-process pool, or TCP workers — self-spawned on
// loopback or daemons on other hosts) change wall-clock only.
//
// # Result cache
//
// Because results are bit-identical by construction, a submission whose
// result-determining fields (process, seed, n, m, rounds, shards, init,
// lambda, quantile set — NOT the placement and snapshot knobs) match an
// already-completed run returns a new run that is immediately done,
// carrying the stored Summary and Cached: true, without recomputing.
//
// # Retention
//
// Options.MaxHistory and Options.TTL bound the terminal-run history:
// beyond MaxHistory terminal runs (oldest first) or past TTL since
// finishing, terminal runs — and their checkpoints and cache entries — are
// garbage-collected. Queued and running runs are never collected.
//
// # Crash and restart story
//
// With a data directory configured, every state transition persists to a
// JSON manifest and rbb runs write periodic binary checkpoints
// (internal/checkpoint). On shutdown the scheduler cancels the run
// contexts; checkpoint.Run snapshots each in-flight rbb run at its next
// round boundary and the run returns to the queue. A restarted server
// re-enqueues queued and interrupted runs, resuming rbb runs from their
// checkpoints — the continued trajectory is byte-identical to an
// uninterrupted one. Processes without snapshot support (tetris, batches)
// restart from round zero, which reproduces the same trajectory anyway.
package serve

import (
	"repro/internal/shard"
	"repro/internal/spec"
)

// Spec is a run submission — the canonical spec.RunSpec, verbatim. The
// HTTP body is its JSON encoding; see the spec package for every field
// and the placement surface. Unknown fields are rejected, so a
// pre-placement body with the flat "transport" field gets a 400 naming
// it.
type Spec = spec.RunSpec

// Status is a run's scheduler state.
type Status string

const (
	// StatusQueued: waiting for a worker slot (fresh, or interrupted by a
	// shutdown and waiting to be resumed).
	StatusQueued Status = "queued"
	// StatusRunning: a worker is stepping the process.
	StatusRunning Status = "running"
	// StatusDone: completed; Summary holds the result.
	StatusDone Status = "done"
	// StatusFailed: aborted with an error (recorded in Error).
	StatusFailed Status = "failed"
	// StatusCancelled: cancelled by the client.
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// RunInfo is the public state of one run.
type RunInfo struct {
	ID     string `json:"id"`
	Spec   Spec   `json:"spec"`
	Status Status `json:"status"`
	// Round is the last known completed round (refreshed on every stream
	// event, at interruption, and at completion).
	Round int64 `json:"round"`
	// Error is the failure cause when Status is failed.
	Error string `json:"error,omitempty"`
	// Summary is the observer digest, set once Status is done.
	Summary *shard.Summary `json:"summary,omitempty"`
	// FinishedUnix is the Unix time the run reached a terminal status
	// (0 while queued or running). The retention TTL counts from it.
	FinishedUnix int64 `json:"finished_unix,omitempty"`
	// Cached marks a run answered from the result cache: it was born
	// done, carrying the Summary of an earlier identical submission.
	Cached bool `json:"cached,omitempty"`
	// Progress is the live stepping rate of a running run, refreshed on
	// every stream event and absent outside the running state. Wall-clock
	// derived and therefore non-deterministic — clients must treat it as
	// display-only.
	Progress *Progress `json:"progress,omitempty"`
}

// Progress is a running run's live throughput estimate.
type Progress struct {
	// Round is the completed round count as of the last stream event.
	Round int64 `json:"round"`
	// RoundsPerSec is the mean stepping rate since the run (re)entered a
	// worker slot.
	RoundsPerSec float64 `json:"rounds_per_sec"`
	// ETASeconds estimates the remaining wall-clock at the current rate
	// (0 once the target round is reached).
	ETASeconds float64 `json:"eta_seconds"`
	// MaxLoad and EmptyFrac mirror the last stream event — the
	// summary-so-far without a second subscription.
	MaxLoad   int32   `json:"max_load"`
	EmptyFrac float64 `json:"empty_frac"`
	// WindowMax is the windowed max-load statistic as of the last event.
	WindowMax int32 `json:"window_max"`
}

// Event is one streaming observer sample, emitted every StreamEvery rounds
// and at the final round.
type Event struct {
	Round     int64   `json:"round"`
	MaxLoad   int32   `json:"max_load"`
	EmptyFrac float64 `json:"empty_frac"`
	WindowMax int32   `json:"window_max"`
}
