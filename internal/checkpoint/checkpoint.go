// Package checkpoint is the save/restore layer for sharded runs: it gives a
// poly(n)-window simulation at n = 10⁷–10⁹ — hours of wall-clock — the
// ability to survive a restart or migrate between machines without
// perturbing the trajectory by a single draw.
//
// # Format v2 (current)
//
// A v2 checkpoint is a fixed header followed by independently checksummed
// frames — one per shard, in shard order, plus an optional observer frame —
// all little-endian:
//
//	header:
//	  magic   [8]byte  "RBBCKPT\n"
//	  version uint32   (2)
//	  seed    uint64   master seed of the run (provenance; restore reads the
//	                   serialized rng states, not this)
//	  n       uint64   number of bins
//	  shards  uint32   shard count S (the random law's decomposition)
//	  flags   uint32   bit 0: an observer frame follows the shard frames
//	                   bit 1: frame payloads are flate-compressed
//	  round   uint64   completed rounds at the cut
//	  hcrc    uint32   CRC-32C (Castagnoli) of the 40 preceding bytes
//	frame (one per shard s = 0..S-1, then the observer frame iff flag 0):
//	  kind    uint8    1 = shard, 2 = observer
//	  index   uint32   shard id (0 for the observer frame)
//	  width   uint8    storage width of the loads: 8, 16 or 32 bits
//	                   (0 for the observer frame)
//	  enc     uint8    0 = raw, 1 = flate (must match header flag bit 1)
//	  plen    uint64   encoded payload length in bytes
//	  payload plen bytes
//	  fcrc    uint32   CRC-32C of the frame from kind through payload
//	shard frame payload (before compression):
//	  rng    [4]uint64  xoshiro256** state of stream (seed, s)
//	  size   uint64     owned bins (must equal the canonical partition)
//	  loads  size × (width/8)-byte unsigned values (int32 when width = 32)
//	  nwords uint64     worklist words (must equal ceil(size/64))
//	  work   nwords × uint64
//	observer frame payload (before compression):
//	  rounds uint64; windowmax int32; windowany uint8
//	  emptymin, emptysum float64; emptyrounds uint64
//	  nq     uint32
//	  per quantile: p float64; count uint64; q, pos, want 5 × float64 each
//
// Frames carry their own CRC so a multi-process run serializes them
// concurrently — each worker encodes its own shards and streams the frames
// over its socket; the coordinator relays bytes and never materializes the
// whole blob (see internal/shard/transport/tcp). The per-frame width is
// the engine's storage width (Θ(log n) max loads w.h.p. make uint8 the
// common case), which is what shrinks a checkpoint ~4× before compression.
//
// # Streaming from live shards
//
// Run never gathers a whole-run snapshot. Every shard frame of a running
// engine comes from one encoder, EncodeShards, which reads the live shard
// (shard.Group.ShardView): its rng state, its loads at the storage width
// (a single byte copy at width 8) and its worklist words, rebuilt first
// when a dense round left them stale. Up to GOMAXPROCS shards encode
// concurrently, each encoder reusing one frame buffer, so a write
// allocates about one frame per encoder rather than the 4 bytes per bin of
// an []int32 gather. An in-process *shard.Process streams through it
// directly; the multi-process workers answer a snapshot request with it
// and the coordinator relays their frames (StreamProcess). Save and
// SaveOptions remain the encoders of a gathered Snapshot — the resume,
// migration and test paths — and write the identical bytes.
//
// The format records no arrival rule: every checkpoint resumes as a
// relaunch (rbb) run. Run therefore checks the rule before it steps, on
// every placement alike, and refuses to checkpoint a tetris or batches
// run.
//
// # Format v1 (legacy, still loaded)
//
// Version 1 is the monolithic form: the same header fields (no hcrc),
// every shard section inline with int32 loads, the observer section, and a
// single trailing CRC-32C over the entire stream. Load accepts both
// versions; Save always writes v2. A v2 checkpoint at width 32 with
// compression off carries byte-identical shard payloads to v1's sections.
//
// # Integrity
//
// Load validates everything it reads — magic, version, partition arithmetic,
// non-negative loads, worklist word counts, rng-state non-degeneracy,
// observer marker monotonicity — before the engine ever sees the data, and
// verifies every CRC; corrupted or truncated input yields an error, never a
// panic and never a silently wrong resume. Decompression is bounded by the
// exact expected payload size computed from (n, S, width), so a corrupted
// length cannot demand absurd memory. The worklist words are redundant with
// the loads on purpose: shard.RestoreProcess cross-checks the two, so a
// flipped bit that survives the CRC check (it cannot, but defense in depth
// is cheap here) is still caught structurally.
//
// # Determinism contract
//
// A run saved at round t and resumed is byte-identical to the uninterrupted
// run for every (seed, n, S), S = 1 included: the snapshot carries the raw
// xoshiro256** state of every shard stream (rng.Source.State/SetState), the
// full load vector, the per-shard storage widths (the widening ratchet is
// deterministic state), and the streaming-observer accumulators, which
// together are the entire reachable state of the round protocol. An
// uncompressed checkpoint is additionally a canonical encoding — one state,
// one byte stream (FuzzLoad pins this); compressed payloads are
// deterministic within one binary but not across Go releases, so
// byte-comparison gates use uncompressed checkpoints or files produced by
// the same binary. The test suite and the CI resume-equivalence job pin
// the contract.
package checkpoint

import (
	"errors"
	"fmt"

	"repro/internal/shard"
)

// Format versions. Save writes Version2; Load accepts both.
const (
	Version1 = 1
	Version2 = 2
)

// magic identifies a checkpoint file.
var magic = [8]byte{'R', 'B', 'B', 'C', 'K', 'P', 'T', '\n'}

// Header flags.
const (
	// flagObserver marks a snapshot carrying an observer-pipeline section
	// (v1) or observer frame (v2).
	flagObserver = 1 << 0
	// flagCompress marks flate-compressed frame payloads (v2 only).
	flagCompress = 1 << 1
)

// Frame kinds (v2).
const (
	frameShard    = 1
	frameObserver = 2
)

// Format sanity caps. maxBins is the engine's own limit (shard.MaxBins,
// 2³¹), so a checkpoint of a run that could not step is rejected at its
// header; the others sit far above every supported configuration, low
// enough that a corrupted header cannot demand absurd work before the
// per-field validation rejects it.
const (
	maxBins      = shard.MaxBins
	maxShards    = 1 << 20
	maxQuantiles = 1 << 10
)

// ErrChecksum is returned by Load when a CRC does not match its payload.
var ErrChecksum = errors.New("checkpoint: CRC mismatch")

// Options configures serialization.
type Options struct {
	// Compress flate-compresses every frame payload (compress/flate at
	// BestSpeed — the sparse regime's load vectors are mostly small values,
	// so even the fastest level collapses them). Compressed output is
	// deterministic within one binary but not guaranteed across Go
	// releases; leave it off when checkpoints are compared byte-for-byte
	// across builds.
	Compress bool
}

// Snapshot is one whole-run checkpoint: the run's provenance seed, the
// sharded engine state, and (optionally) the streaming-observer state.
type Snapshot struct {
	// Seed is the master seed the run was started from. It is recorded for
	// provenance and header printing; restore uses the serialized per-shard
	// rng states.
	Seed uint64
	// Engine is the full deterministic engine state.
	Engine *shard.EngineSnapshot
	// Observer is the streaming-pipeline state, or nil if the run has no
	// observer pipeline attached.
	Observer *shard.PipelineSnapshot
}

// validate checks the in-memory snapshot shape before serialization.
func (s *Snapshot) validate() error {
	if s == nil || s.Engine == nil {
		return errors.New("checkpoint: nil snapshot or engine state")
	}
	e := s.Engine
	if e.N < 1 || e.N > maxBins {
		return fmt.Errorf("checkpoint: %d bins outside [1, %d]", e.N, int64(maxBins))
	}
	if len(e.Shards) < 1 || len(e.Shards) > e.N || len(e.Shards) > maxShards {
		return fmt.Errorf("checkpoint: %d shards for %d bins", len(e.Shards), e.N)
	}
	if e.Round < 0 {
		return fmt.Errorf("checkpoint: round %d < 0", e.Round)
	}
	if s.Observer != nil && len(s.Observer.Sketches) > maxQuantiles {
		return fmt.Errorf("checkpoint: %d quantile sketches exceed %d", len(s.Observer.Sketches), maxQuantiles)
	}
	return nil
}
