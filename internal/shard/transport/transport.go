// Package transport defines the placement abstraction under the sharded
// round protocol: a Runner executes the per-shard work of one protocol
// phase (release, commit, or an in-process round's throw and drain) across
// the shards held in the local process and returns only when all of it has
// completed — it IS the phase barrier of the protocol.
//
// The round protocol itself (what runs inside a phase, which buffers move
// between the phases) lives in internal/shard; a Runner decides
// only *where* the per-shard work executes. The one implementation is the
// persistent worker pool with shard→worker affinity (transport/local.Pool).
// One level up, where whole shard ranges live in other processes, the
// multi-process coordinator in transport/tcp drives worker processes that
// each step their range on a local Pool.
//
// The determinism contract of internal/shard survives any Runner by
// construction: every per-shard phase function draws only from that shard's
// private rng stream and touches only that shard's state and buffer rows,
// so placement (and scheduling) can change wall-clock but never the
// trajectory. The transport-invariance matrix test in transport/tcp pins
// this across the pool, the TCP star and the TCP mesh.
package transport

// Runner executes per-shard phase work over the shards held in-process.
// Implementations are safe for use from one driving goroutine at a time
// (the round protocol is strictly phase-sequential).
type Runner interface {
	// Run calls f(i) exactly once for every local shard index i in
	// [0, shards) — distributed over the runner's workers — and returns
	// after every call has completed. It is the collective barrier ending
	// a protocol phase.
	Run(f func(i int))
	// Close releases the runner's resources (persistent workers). The
	// runner must not be used afterwards; Close is idempotent.
	Close() error
}
