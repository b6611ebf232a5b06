// Package spec defines RunSpec, the one canonical, versioned,
// JSON-serializable description of a simulation run. Every frontend lowers
// into it and every backend is built from it: cmd/rbb-sim's flags, the
// rbb-serve submission body and the persisted run manifest are all
// RunSpecs, and Build/Open lower a normalized RunSpec into the in-process
// sharded engines (internal/shard) or the TCP transport
// (internal/shard/transport/tcp).
//
// The struct splits into two planes:
//
//   - The law: Process, Seed, N, M, Rounds, Shards, Init, Lambda. These
//     determine the trajectory — a run is a pure function of them — and
//     only these feed ResultKey, the result-cache identity.
//   - Everything else: Placement (transport, worker processes, hosts),
//     observer knobs (Quantiles, StreamEvery) and the checkpoint policy
//     (CheckpointEvery). These change wall-clock, telemetry and the
//     restart story, never the result; the quantile set does shape the
//     Summary and therefore stays in ResultKey.
//
// # Compatibility
//
// RunSpec keeps the flat JSON field names served since the first rbb-serve
// release. The pre-placement flat "transport" field is gone: rbb-serve
// decodes bodies strictly, so one carrying it gets a 400 naming the field.
// Stored specs may still name the retired placements "spawn" and "proc";
// one resolver maps them onto "pool" and "tcp-mesh" (see
// Placement.Transport). Normalized specs always carry "version": 1 and a
// populated "placement".
package spec

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/shard"
)

// Version is the RunSpec schema version Normalize stamps. Version 0 (the
// field absent: every pre-versioning spec) is accepted and upgraded.
const Version = 1

// Process kinds accepted by RunSpec.Process.
const (
	// ProcessRBB is the paper's repeated balls-into-bins process
	// (checkpointable: periodic snapshots, snapshot-and-stop, resume).
	ProcessRBB = "rbb"
	// ProcessTetris is the leaky-bins process with a deterministic ⌈λn⌉
	// batch per round.
	ProcessTetris = "tetris"
	// ProcessBatches is the leaky-bins process with Binomial(n, λ) batches
	// — the Berenbrink et al. (2016) batched-arrival model.
	ProcessBatches = "batches"
)

// Transport kinds accepted by Placement.Transport. The trajectory is
// independent of all of them (the transport-invariance matrix pins it).
const (
	// TransportPool steps the run in process on the persistent worker pool
	// with shard→worker affinity (the default).
	TransportPool = "pool"
	// TransportTCP spreads the run over worker processes connected by TCP
	// sockets — self-spawned locally, or daemons named by Hosts — with
	// exchanges relayed through the coordinator (star topology).
	TransportTCP = "tcp"
	// TransportTCPMesh is TransportTCP with direct worker↔worker exchange
	// delivery; the coordinator keeps only barriers, stats folds and
	// checkpoint relay.
	TransportTCPMesh = "tcp-mesh"
)

// Placement says where a run executes — and nothing about what it
// computes. Two specs differing only in Placement produce byte-identical
// results.
type Placement struct {
	// Transport is one of the Transport* kinds (default TransportPool).
	// The retired names "spawn" (per-phase goroutines) and "proc" (local
	// worker processes over pipes) still resolve, to TransportPool and
	// TransportTCPMesh, so stored specs naming them keep running.
	Transport string `json:"transport,omitempty"`
	// Workers is the phase worker goroutine count — of the run itself on
	// the in-process pool, of each worker process for the tcp transports
	// (0 = the host default: rbb-serve's -run-workers, or GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Procs is the worker process count P for the tcp transports (default
	// 2; clamped to the shard count). With Hosts it must be absent or
	// len(Hosts).
	Procs int `json:"procs,omitempty"`
	// Hosts lists worker daemon addresses ("host:port", one worker each)
	// for the tcp transports; empty self-spawns Procs local workers.
	Hosts []string `json:"hosts,omitempty"`
	// Kernel selects the dense-round kernel: "batched" (the default) or
	// "scalar". Like every placement field it never perturbs the
	// trajectory — the kernels are byte-equivalent — so it is excluded
	// from ResultKey.
	Kernel string `json:"kernel,omitempty"`
}

// RunSpec is one run submission. The zero value of every optional field
// selects the documented default; Normalize makes the defaults explicit so
// a stored spec is self-describing.
type RunSpec struct {
	// Version is the schema version (0 = pre-versioning, upgraded to
	// Version by Normalize).
	Version int `json:"version,omitempty"`
	// Process is the process kind: rbb (default), tetris, or batches.
	Process string `json:"process,omitempty"`
	// Seed is the master seed; shard s draws from rng.NewStream(Seed, s).
	Seed uint64 `json:"seed"`
	// N is the number of bins (required, ≥ 1).
	N int `json:"n"`
	// M is the number of balls for rbb (default N, at most 2³¹−1; ignored
	// by tetris and batches, whose ball count is dynamic).
	M int `json:"m,omitempty"`
	// Rounds is the target round count (required, ≥ 1).
	Rounds int64 `json:"rounds"`
	// Shards is the shard count S, part of the random law's key (default
	// 1, so results reproduce across machines unless the client opts into
	// a wider decomposition).
	Shards int `json:"shards,omitempty"`
	// Init names the initial configuration family (default one-per-bin).
	Init string `json:"init,omitempty"`
	// Lambda is the per-bin arrival rate for tetris and batches (default
	// 0.75, the paper's stable regime).
	Lambda float64 `json:"lambda,omitempty"`
	// Quantiles are the max-load quantile probabilities tracked by the
	// run's P² sketches, each in (0, 1).
	Quantiles []float64 `json:"quantiles,omitempty"`
	// CheckpointEvery is the periodic snapshot period in rounds for rbb
	// runs (0 = the host's default; snapshots are also written on
	// shutdown and at completion).
	CheckpointEvery int64 `json:"checkpoint_every,omitempty"`
	// StreamEvery is the round period of stream events (0 = auto,
	// ~256 events per run).
	StreamEvery int64 `json:"stream_every,omitempty"`
	// LoadWidth is the per-shard load storage width floor in bits: 0
	// (auto: narrowest that fits, widening on demand), 8, 16 or 32. It
	// changes memory and checkpoint size only, never the result, and is
	// therefore excluded from ResultKey.
	LoadWidth int `json:"load_width,omitempty"`
	// Placement says where the run executes; see Placement.
	Placement Placement `json:"placement,omitzero"`
}

// Normalize fills defaults in place and validates the spec.
// defaultCheckpointEvery is the host's periodic-checkpoint default for
// specs that do not set their own.
func (sp *RunSpec) Normalize(defaultCheckpointEvery int64) error {
	if sp.Version < 0 || sp.Version > Version {
		return fmt.Errorf("unsupported spec version %d (this build speaks <= %d)", sp.Version, Version)
	}
	sp.Version = Version
	if sp.Process == "" {
		sp.Process = ProcessRBB
	}
	switch sp.Process {
	case ProcessRBB, ProcessTetris, ProcessBatches:
	default:
		return fmt.Errorf("unknown process %q (want %s|%s|%s)", sp.Process, ProcessRBB, ProcessTetris, ProcessBatches)
	}
	if sp.N < 1 || sp.N > shard.MaxBins {
		return fmt.Errorf("need 1 <= n <= %d (2^31), got %d", shard.MaxBins, sp.N)
	}
	if sp.Rounds < 1 {
		return fmt.Errorf("need rounds >= 1, got %d", sp.Rounds)
	}
	if sp.Process == ProcessRBB {
		switch {
		case sp.M == 0:
			sp.M = sp.N
		case sp.M < 0:
			return fmt.Errorf("need m >= 0, got %d", sp.M)
		case sp.M > math.MaxInt32:
			// Relaunch conserves the balls, and all of them may gather in
			// one bin, whose load is an int32.
			return fmt.Errorf("need m <= %d, got %d", math.MaxInt32, sp.M)
		}
		if sp.Lambda != 0 {
			return fmt.Errorf("lambda applies only to the tetris and batches processes")
		}
	} else {
		if sp.M != 0 {
			return fmt.Errorf("m applies only to the rbb process")
		}
		// A JSON 0 is indistinguishable from an absent field, so 0 means
		// "default" rather than an error, matching rbb-sim's -lambda flag.
		if sp.Lambda == 0 {
			sp.Lambda = 0.75
		}
		if sp.Lambda < 0 || sp.Lambda > 1 || math.IsNaN(sp.Lambda) {
			return fmt.Errorf("need lambda in (0, 1], got %v", sp.Lambda)
		}
	}
	if sp.Shards == 0 {
		sp.Shards = 1
	}
	if sp.Shards < 1 {
		return fmt.Errorf("need shards >= 1, got %d", sp.Shards)
	}
	if sp.Shards > sp.N {
		return fmt.Errorf("need shards <= n, got %d > %d", sp.Shards, sp.N)
	}
	if sp.Init == "" {
		sp.Init = string(config.GenOnePerBin)
	}
	if !slices.Contains(config.Generators(), config.Generator(sp.Init)) {
		return fmt.Errorf("unknown init %q", sp.Init)
	}
	for _, q := range sp.Quantiles {
		if math.IsNaN(q) || q <= 0 || q >= 1 {
			return fmt.Errorf("quantile %v outside (0, 1)", q)
		}
	}
	if sp.CheckpointEvery < 0 {
		return fmt.Errorf("need checkpoint_every >= 0, got %d", sp.CheckpointEvery)
	}
	if sp.CheckpointEvery == 0 {
		sp.CheckpointEvery = defaultCheckpointEvery
	}
	if sp.StreamEvery < 0 {
		return fmt.Errorf("need stream_every >= 0, got %d", sp.StreamEvery)
	}
	if sp.StreamEvery == 0 {
		sp.StreamEvery = sp.Rounds / 256
		if sp.StreamEvery < 1 {
			sp.StreamEvery = 1
		}
	}
	switch sp.LoadWidth {
	case 0, 8, 16, 32:
	default:
		return fmt.Errorf("unknown load_width %d (want 0|8|16|32)", sp.LoadWidth)
	}
	return sp.NormalizePlacement()
}

// NormalizePlacement resolves the transport name, fills placement defaults
// and validates the combination. It is the placement-only slice of
// Normalize, for frontends (cmd/rbb-sim) whose remaining fields keep CLI
// semantics — shards 0 = GOMAXPROCS, rounds 0 allowed — that Normalize's
// service defaults would override.
// With Shards 0 the procs-vs-shards checks are left to the engines, which
// clamp.
func (sp *RunSpec) NormalizePlacement() error {
	p := &sp.Placement
	p.Transport = sp.transport()
	switch p.Transport {
	case TransportPool, TransportTCP, TransportTCPMesh:
	default:
		return fmt.Errorf("unknown placement.transport %q (want %s|%s|%s)", p.Transport,
			TransportPool, TransportTCP, TransportTCPMesh)
	}
	if _, err := engine.ParseKernel(p.Kernel); err != nil {
		return fmt.Errorf("unknown placement.kernel %q (want batched|scalar)", p.Kernel)
	}
	if p.Kernel == "" {
		p.Kernel = engine.KernelBatched.String()
	}
	if p.Workers < 0 {
		return fmt.Errorf("need placement.workers >= 0, got %d", p.Workers)
	}
	if p.Procs < 0 {
		return fmt.Errorf("need placement.procs >= 0, got %d", p.Procs)
	}
	if p.Transport == TransportPool {
		if p.Procs > 1 {
			return fmt.Errorf("placement.procs %d needs a multi-process transport (%s|%s), got %q",
				p.Procs, TransportTCP, TransportTCPMesh, p.Transport)
		}
		if len(p.Hosts) > 0 {
			return fmt.Errorf("placement.hosts needs a tcp transport, got %q", p.Transport)
		}
		p.Procs = 0
		return nil
	}
	if len(p.Hosts) > 0 {
		if p.Procs != 0 && p.Procs != len(p.Hosts) {
			return fmt.Errorf("placement.procs %d contradicts %d placement.hosts (drop procs: hosts implies it)",
				p.Procs, len(p.Hosts))
		}
		if sp.Shards > 0 && len(p.Hosts) > sp.Shards {
			return fmt.Errorf("%d placement.hosts for %d shards (one worker per host needs hosts <= shards)",
				len(p.Hosts), sp.Shards)
		}
		p.Procs = len(p.Hosts)
		return nil
	}
	if p.Procs == 0 {
		p.Procs = 2
	}
	if sp.Shards > 0 && p.Procs > sp.Shards {
		return fmt.Errorf("placement.procs %d exceeds %d shards (each worker needs a non-empty shard range)",
			p.Procs, sp.Shards)
	}
	return nil
}

// transport is the one resolver of the effective transport kind: empty
// means the pool, and the retired names map onto their successors —
// "spawn" onto the pool, "proc" onto the loopback TCP mesh. Normalize,
// Build and Open all go through it; Build and Open need it because
// rbb-serve re-queues persisted specs without re-normalizing them.
func (sp RunSpec) transport() string {
	switch t := sp.Placement.Transport; t {
	case "", "spawn":
		return TransportPool
	case "proc":
		return TransportTCPMesh
	default:
		return t
	}
}

// ResultKey canonicalizes the result-determining fields of a normalized
// spec: two specs with equal keys produce byte-identical Summaries.
// Version, Placement and the snapshot/stream knobs are deliberately
// absent — they never perturb the trajectory, so specs differing only
// there share a result.
func (sp RunSpec) ResultKey() string {
	qs := append([]float64(nil), sp.Quantiles...)
	sort.Float64s(qs)
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%d|%d|%d|%d|%d|%s|%s",
		sp.Process, sp.Seed, sp.N, sp.M, sp.Rounds, sp.Shards, sp.Init,
		strconv.FormatFloat(sp.Lambda, 'g', -1, 64))
	for _, q := range qs {
		b.WriteByte('|')
		b.WriteString(strconv.FormatFloat(q, 'g', -1, 64))
	}
	return b.String()
}

// Kernel resolves the effective dense-round kernel, tolerating
// un-normalized specs (empty means the batched default).
func (sp RunSpec) Kernel() engine.Kernel {
	k, err := engine.ParseKernel(sp.Placement.Kernel)
	if err != nil {
		return engine.KernelBatched
	}
	return k
}
