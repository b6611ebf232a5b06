package spec

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/shard/transport/tcp"
	"repro/internal/tetris"
)

// Process is the run surface Build, Open and Start return: the engine
// stepping interface plus teardown, which checkpoint.Run drives. Every
// backend additionally implements checkpoint.Process (and the
// multi-process ones checkpoint.StreamProcess); checkpoint.Run
// checkpoints the ProcessRBB ones unchanged and refuses the others by
// their arrival rule.
type Process interface {
	engine.Stepper
	Close() error
}

// MakeLoads builds the spec's initial configuration exactly as every
// frontend always has: config.Make seeded with rng.New(Seed) — the first
// half of the (seed, n, shards) purity contract.
func (sp RunSpec) MakeLoads() ([]int32, error) {
	balls := sp.M
	if sp.Process != ProcessRBB {
		balls = sp.N
	}
	return config.Make(config.Generator(sp.Init), sp.N, balls, rng.New(sp.Seed))
}

// Rule maps the spec's process kind and λ onto the wire-encodable arrival
// rule the multi-process transports execute.
func (sp RunSpec) Rule() (shard.ArrivalRule, error) {
	switch sp.Process {
	case ProcessRBB:
		return shard.ArrivalRule{}, nil
	case ProcessTetris:
		return shard.RuleForLaw(tetris.Deterministic, sp.Lambda)
	case ProcessBatches:
		return shard.RuleForLaw(tetris.BinomialArrivals, sp.Lambda)
	}
	return shard.ArrivalRule{}, fmt.Errorf("unknown process %q", sp.Process)
}

// workers resolves the per-process phase worker count: the placement's if
// set, else the host default.
func (sp RunSpec) workers(hostDefault int) int {
	if sp.Placement.Workers > 0 {
		return sp.Placement.Workers
	}
	return hostDefault
}

// Build lowers a normalized spec into a fresh run on its placement.
// hostWorkers is the host's default phase worker count (rbb-serve's
// -run-workers; 0 = GOMAXPROCS), overridden by Placement.Workers.
func (sp RunSpec) Build(hostWorkers int) (Process, error) {
	loads, err := sp.MakeLoads()
	if err != nil {
		return nil, err
	}
	w := sp.workers(hostWorkers)
	width := engine.Width(sp.LoadWidth)
	kernel := sp.Kernel()
	switch kind := sp.transport(); kind {
	case TransportPool:
		shOpts := shard.Options{Shards: sp.Shards, Workers: w, Width: width, Kernel: kernel}
		if sp.Process == ProcessRBB {
			return shard.NewProcess(loads, sp.Seed, shOpts)
		}
		law := tetris.Deterministic
		if sp.Process == ProcessBatches {
			law = tetris.BinomialArrivals
		}
		return shard.NewTetris(loads, sp.Seed, shard.TetrisOptions{Options: shOpts, Law: law, Lambda: sp.Lambda})
	case TransportTCP, TransportTCPMesh:
		rule, err := sp.Rule()
		if err != nil {
			return nil, err
		}
		return tcp.NewProcess(loads, sp.Seed, tcp.Options{
			Shards: sp.Shards, Procs: sp.Placement.Procs, Workers: w, Rule: rule, Width: width,
			Kernel: kernel, Mesh: kind == TransportTCPMesh, Hosts: sp.Placement.Hosts,
		})
	default:
		return nil, fmt.Errorf("unknown placement.transport %q", kind)
	}
}

// Open lowers a normalized ProcessRBB spec into a run resumed from snap on
// the spec's placement — any checkpoint reopens under any placement, and
// the continued trajectory is byte-identical to an uninterrupted run. The
// returned pipeline restores the snapshot's observer accumulators (nil if
// the snapshot predates them).
func (sp RunSpec) Open(snap *checkpoint.Snapshot, hostWorkers int) (Process, *shard.Pipeline, error) {
	if sp.Process != ProcessRBB {
		return nil, nil, fmt.Errorf("process %q does not support checkpoints", sp.Process)
	}
	w := sp.workers(hostWorkers)
	kernel := sp.Kernel()
	var (
		p   Process
		err error
	)
	switch kind := sp.transport(); kind {
	case TransportPool:
		p, err = shard.RestoreProcess(snap.Engine, shard.Options{Workers: w, Kernel: kernel})
	case TransportTCP, TransportTCPMesh:
		p, err = tcp.New(snap, tcp.Options{
			Procs: sp.Placement.Procs, Workers: w, Kernel: kernel,
			Mesh: kind == TransportTCPMesh, Hosts: sp.Placement.Hosts,
		})
	default:
		return nil, nil, fmt.Errorf("unknown placement.transport %q", kind)
	}
	if err != nil {
		return nil, nil, err
	}
	var pipe *shard.Pipeline
	if snap.Observer != nil {
		if pipe, err = shard.RestorePipeline(snap.Observer); err != nil {
			p.Close()
			return nil, nil, err
		}
	}
	return p, pipe, nil
}

// Start lowers a normalized spec into a run ready for checkpoint.Run: it
// resumes from the checkpoint at path when a file exists there, and builds
// the run fresh otherwise (path empty, or no file yet). Any stat error
// other than not-exist fails the start — treating an unreadable
// checkpoint as absent would silently restart a long run from round zero.
// The file is keyed only by its path, so its identity (seed, n, shards) is
// cross-checked against the spec: a stale or foreign checkpoint can never
// impersonate this run's trajectory. The returned pipeline carries the
// snapshot's observer accumulators, or is fresh over sp.Quantiles.
//
// Every frontend that starts a run from a spec — rbb-serve's runs and
// in-process campaign points — goes through Start; rbb-sim's -resume,
// which takes its law from the file, keeps Open.
func (sp RunSpec) Start(path string, hostWorkers int) (Process, *shard.Pipeline, error) {
	var (
		proc Process
		pipe *shard.Pipeline
	)
	if path != "" {
		if _, err := os.Stat(path); err == nil {
			snap, err := checkpoint.ReadFile(path)
			if err != nil {
				return nil, nil, fmt.Errorf("resume: %w", err)
			}
			if snap.Seed != sp.Seed || snap.Engine.N != sp.N || len(snap.Engine.Shards) != sp.Shards {
				return nil, nil, fmt.Errorf("resume: checkpoint is for (seed %d, n %d, shards %d), spec wants (seed %d, n %d, shards %d)",
					snap.Seed, snap.Engine.N, len(snap.Engine.Shards), sp.Seed, sp.N, sp.Shards)
			}
			if proc, pipe, err = sp.Open(snap, hostWorkers); err != nil {
				return nil, nil, fmt.Errorf("resume: %w", err)
			}
		} else if !os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("resume: %w", err)
		}
	}
	if proc == nil {
		var err error
		if proc, err = sp.Build(hostWorkers); err != nil {
			return nil, nil, err
		}
	}
	if pipe == nil {
		var err error
		if pipe, err = shard.NewPipeline(sp.Quantiles); err != nil {
			proc.Close()
			return nil, nil, err
		}
	}
	return proc, pipe, nil
}

// UnreachableHostsError reports placement hosts that failed the
// reachability probe; rbb-serve renders it as a structured 400 naming
// every bad host.
type UnreachableHostsError struct {
	// Hosts are the unreachable addresses, in placement order.
	Hosts []string
	// Causes are the dial errors, parallel to Hosts.
	Causes []error
}

func (e *UnreachableHostsError) Error() string {
	parts := make([]string, len(e.Hosts))
	for i, h := range e.Hosts {
		parts[i] = fmt.Sprintf("%s (%v)", h, e.Causes[i])
	}
	return "unreachable placement hosts: " + strings.Join(parts, "; ")
}

// ProbePlacement verifies every placement host answers a TCP dial within
// timeout (0 = the probe default), returning an *UnreachableHostsError
// naming all failures. Specs without hosts pass trivially. A passing probe
// is advisory — a host can die between probe and join — but it turns the
// common misconfiguration (wrong port, daemon not started) into an
// immediate, attributable rejection instead of a mid-join failure.
func (sp RunSpec) ProbePlacement(timeout time.Duration) error {
	var bad UnreachableHostsError
	for _, h := range sp.Placement.Hosts {
		if err := tcp.Probe(h, timeout); err != nil {
			bad.Hosts = append(bad.Hosts, h)
			bad.Causes = append(bad.Causes, err)
		}
	}
	if len(bad.Hosts) > 0 {
		return &bad
	}
	return nil
}
