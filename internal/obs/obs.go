// Package obs is the observability layer of the stack: a dependency-free
// metrics core (counters, gauges and histograms with atomic hot paths,
// collected in a Registry with a stable-ordered Prometheus text export), a
// span-based run tracer emitting Chrome-trace-format JSON, and the build
// provenance surface shared by the -version flags and the service's
// /version endpoint.
//
// # Trajectory neutrality
//
// Everything in this package is telemetry about a run, never part of it.
// The instrumented layers (internal/shard, the transports, internal/
// checkpoint, internal/serve) record wall-clock durations, byte counts and
// event counts — quantities that are machine noise — and none of that state
// is ever read back by result-determining code. The determinism contract is
// therefore structural: a run with metrics and tracing enabled produces the
// byte-identical trajectory, -json summary and final checkpoint of a run
// without (pinned by the observability-neutrality test in cmd/rbb-sim and
// by the transport-invariance and resume-equivalence CI gates, which run
// with metrics on). Telemetry goes to side channels only: the metrics
// endpoint/dump and the trace file, never stdout summaries.
//
// # Cost model
//
// Instrumentation sits at phase granularity (a handful of time.Now calls
// and atomic adds per round), not bin granularity, so the dense-round
// overhead stays under the recorded BENCH_obs.json bar (<2%). SetEnabled
// (false) additionally short-circuits every timer and counting path for
// clean ablation benchmarks; tracing is off unless a Tracer is installed
// with SetTracer.
package obs

import (
	"sync/atomic"
	"time"
)

// disabled is the global metrics kill switch, inverted so the zero value
// means "enabled" without an init step.
var disabled atomic.Bool

// Enabled reports whether metric collection is on (the default).
func Enabled() bool { return !disabled.Load() }

// SetEnabled turns metric collection on or off. Off short-circuits timers
// and counting paths; registered metrics keep their last values. Tracing is
// governed separately by SetTracer.
func SetEnabled(on bool) { disabled.Store(!on) }

// Timer measures one wall-clock interval for a histogram. The zero Timer
// (returned by StartTimer when metrics are disabled) is inert: observing it
// is a no-op, so call sites need no branches of their own.
type Timer struct{ start time.Time }

// StartTimer starts a timer, or returns an inert one when metrics are
// disabled.
func StartTimer() Timer {
	if !Enabled() {
		return Timer{}
	}
	return Timer{start: time.Now()}
}

// ObserveSeconds records the elapsed seconds into h and returns them
// (0 for an inert timer, which records nothing).
func (t Timer) ObserveSeconds(h *Histogram) float64 {
	if t.start.IsZero() {
		return 0
	}
	s := t.Seconds()
	h.Observe(s)
	return s
}

// Seconds returns the elapsed seconds without recording them (0 for an
// inert timer), for a caller that sums several intervals into one
// observation.
func (t Timer) Seconds() float64 {
	if t.start.IsZero() {
		return 0
	}
	return time.Since(t.start).Seconds()
}
