package shard

import "repro/internal/obs"

// Telemetry of the round protocol. Everything here is observational —
// durations and counts recorded after the fact — and is never read back by
// the kernel, so trajectories are byte-identical with metrics on or off
// (see the obs package doc and the neutrality test in cmd/rbb-sim).
var (
	mPhaseRelease = obs.Default.Histogram("rbb_phase_seconds",
		"Wall-clock duration of one round-protocol phase across all owned shards.",
		nil, obs.Label{Key: "phase", Value: "release"})
	mPhaseCommit = obs.Default.Histogram("rbb_phase_seconds",
		"Wall-clock duration of one round-protocol phase across all owned shards.",
		nil, obs.Label{Key: "phase", Value: "commit"})
	mRounds = obs.Default.Counter("rbb_rounds_total",
		"Completed simulation rounds.")
	mExchangeBalls = obs.Default.Counter("rbb_exchange_balls_total",
		"Balls moved between shards through the exchange rows.")
	mExchangeMsgs = obs.Default.Counter("rbb_exchange_messages_total",
		"Non-empty shard-to-shard exchange rows drained (in process, once per sub-round).")
)
