package checkpoint

import "repro/internal/obs"

// Checkpoint-write telemetry. Helpers rather than inline calls because
// Run's observer parameter shadows the obs package name in its body.
var (
	mCkptWrites = obs.Default.Counter("rbb_ckpt_writes_total",
		"Successful checkpoint writes (periodic, triggered, interrupt and final).")
	mCkptSeconds = obs.Default.Histogram("rbb_ckpt_write_seconds",
		"Wall-clock duration of one checkpoint write, encode and file I/O included.", nil)
	mCkptBytes = obs.Default.Counter("rbb_ckpt_bytes_total",
		"Bytes put in checkpoint files by successful checkpoint writes.")
)

// startCkptSpan opens the trace span of one checkpoint write on the
// checkpoint lane.
func startCkptSpan() obs.Span { return obs.StartSpan("ckpt", obs.LaneCkpt) }

// noteCkptWrite records one successful checkpoint write of the given
// duration and file size.
func noteCkptWrite(seconds float64, bytes int64) {
	if obs.Enabled() {
		mCkptWrites.Inc()
		mCkptSeconds.Observe(seconds)
		mCkptBytes.Add(uint64(bytes))
	}
}
