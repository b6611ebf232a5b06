package campaign

import "repro/internal/obs"

// Campaign telemetry: terminal point counts by status plus a wall-clock
// duration histogram per completed point. Point rates are human-scale
// (seconds to hours per point), nowhere near the simulation hot path, but
// the increments still honor the global obs switch so disabled-telemetry
// runs stay increment-free.
var (
	mPointsDone = obs.Default.Counter("rbb_campaign_points_total",
		"Campaign points by outcome.", obs.Label{Key: "status", Value: "done"})
	mPointsFailed = obs.Default.Counter("rbb_campaign_points_total",
		"Campaign points by outcome.", obs.Label{Key: "status", Value: "failed"})
	mPointsInterrupted = obs.Default.Counter("rbb_campaign_points_total",
		"Campaign points by outcome.", obs.Label{Key: "status", Value: "interrupted"})
	mPointSeconds = obs.Default.Histogram("rbb_campaign_point_seconds",
		"Wall-clock duration of one completed campaign point.", nil)
)

// notePoint records one point outcome. interrupted marks a point whose
// run was stopped mid-flight (it stays pending in the manifest). Every
// executor's outcomes pass through the runner, so in-process, remote and
// serve-hosted campaigns feed the same series.
func notePoint(st PointStatus, interrupted bool, seconds float64) {
	if !obs.Enabled() {
		return
	}
	switch {
	case interrupted:
		mPointsInterrupted.Inc()
	case st == StatusDone:
		mPointsDone.Inc()
		mPointSeconds.Observe(seconds)
	case st == StatusFailed:
		mPointsFailed.Inc()
	}
}
