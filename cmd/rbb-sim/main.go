// Command rbb-sim runs a single repeated balls-into-bins (or Tetris)
// simulation and prints a per-round time series plus a final summary.
//
// The original and tetris processes run on the sharded multi-core engine
// (internal/shard): -shards picks the partition count (default: one shard
// per available CPU), which also selects the random law's decomposition —
// a run is a pure function of (seed, n, shards). Use an explicit -shards
// value for results that reproduce across machines.
//
// Phase placement is selectable and never affects results: -transport
// picks where the rounds execute — in process on persistent workers with
// shard→worker affinity (pool, the default), or across TCP worker
// processes (tcp: exchanges relayed through the coordinator; tcp-mesh:
// delivered worker↔worker, so the coordinator relays only barriers, stats
// and checkpoints). TCP workers self-spawn on loopback by default; -hosts
// dials worker daemons on other machines instead, each started as
// `rbb-sim -worker -listen addr` — the one worker mode an operator
// launches (self-spawned workers dial back on their own).
// -procs P sets the worker process count, and P alone implies -transport
// tcp-mesh. The retired names spawn and proc still resolve, to pool and
// tcp-mesh. The original, tetris — every process kind with a serializable
// arrival rule — run under every placement, and the trajectory is a pure
// function of (seed, n, shards) under all of them: the CI equivalence
// gates diff multi-process runs against single-process ones byte for
// byte. Internally the flags lower into spec.RunSpec, the same canonical
// run description rbb-serve accepts over HTTP.
//
// Long runs survive restarts: -checkpoint writes whole-run snapshots
// (periodically with -checkpoint-every, on SIGTERM/SIGINT, and at
// completion), and -resume continues from one. A resumed run is
// byte-identical to the uninterrupted run — the snapshot carries every
// shard's rng stream state, the load vector and the streaming-observer
// accumulators (see internal/checkpoint). A checkpoint written under any
// placement resumes under any other (-procs included: the snapshot doubles
// as the worker join payload).
//
// Memory and checkpoint size scale with the load storage width: by default
// each shard stores loads at the narrowest of 8/16/32 bits that fits and
// widens on demand (max load is Θ(log n) w.h.p., so uint8 is the steady
// state). -load-width pins a wider floor; -checkpoint-compress flate-
// compresses the per-shard checkpoint sections. Neither affects results.
//
// The dense-round inner loop is selectable the same way: -kernel batched
// (the default) runs the cache-blocked batched kernel, -kernel scalar the
// historical one-pass loop kept as its equivalence oracle; trajectories
// are byte-identical under both. -cpuprofile and -memprofile write pprof
// profiles of the run for kernel tuning — like -trace and -metrics they
// are side channels that never touch stdout or the results.
//
// Examples:
//
//	rbb-sim -n 1024 -rounds 10000
//	rbb-sim -n 65536 -rounds 500 -shards 4 -quantiles 0.5,0.99 -json
//	rbb-sim -n 4096 -init all-in-one -rounds 20000 -report-every 1000
//	rbb-sim -n 16777216 -rounds 500 -shards 64 -quantiles 0.5,0.9,0.99
//	rbb-sim -n 16777216 -rounds 500 -shards 64 -procs 4
//	rbb-sim -n 16777216 -rounds 5000 -shards 64 -checkpoint run.ckpt -checkpoint-every 500
//	rbb-sim -resume run.ckpt -rounds 5000 -checkpoint run.ckpt
//	rbb-sim -n 1024 -process tetris -rounds 5000
//	rbb-sim -n 512 -process token -strategy lifo -rounds 2000
//	rbb-sim -n 1024 -process choices -d 2 -rounds 5000
//	rbb-sim -n 1024 -process jackson -rounds 5000
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/jackson"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/shard/transport/tcp"
	"repro/internal/spec"
)

func main() {
	// A process spawned as a transport worker never reaches the CLI: it
	// runs the exchange protocol on its socket and exits inside
	// MaybeWorker.
	tcp.MaybeWorker()
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rbb-sim:", err)
		os.Exit(1)
	}
}

// jacksonStepper adapts the sequential Jackson network to the shared
// engine.Stepper interface: one Step is n events (the sequential analogue
// of a round).
type jacksonStepper struct {
	net    *jackson.Network
	rounds int64
}

func (j *jacksonStepper) Step()          { j.net.Round(); j.rounds++ }
func (j *jacksonStepper) Round() int64   { return j.rounds }
func (j *jacksonStepper) N() int         { return j.net.N() }
func (j *jacksonStepper) MaxLoad() int32 { return j.net.MaxLoad() }
func (j *jacksonStepper) EmptyBins() int { return j.net.N() - j.net.NonEmpty() }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rbb-sim", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		n         = fs.Int("n", 1024, "number of bins")
		m         = fs.Int("m", 0, "number of balls (default: n)")
		rounds    = fs.Int64("rounds", 10000, "rounds to simulate (with -resume: the total target round, counted from the original start)")
		process   = fs.String("process", "original", "process: original | tetris | token | choices | jackson")
		strategy  = fs.String("strategy", "fifo", "token queueing strategy: fifo | lifo | random")
		initName  = fs.String("init", "one-per-bin", "initial configuration: one-per-bin | all-in-one | uniform | zipf")
		lambda    = fs.Float64("lambda", 0.75, "tetris arrival rate per bin")
		choices   = fs.Int("d", 2, "number of choices for -process choices")
		seed      = fs.Uint64("seed", 1, "random seed")
		every     = fs.Int64("report-every", 0, "print a row every K rounds (0 = auto, ~20 rows)")
		shards    = fs.Int("shards", 0, "shard count for the data-parallel engine, original|tetris only (0 = GOMAXPROCS; the run is a pure function of seed, n and this value)")
		transp    = fs.String("transport", "", "phase transport: pool (in-process persistent workers with shard affinity, default) | tcp | tcp-mesh (worker processes over TCP; mesh delivers exchanges worker-to-worker); the retired names spawn and proc resolve to pool and tcp-mesh; never affects results")
		procs     = fs.Int("procs", 0, "worker processes for -transport tcp|tcp-mesh (0 = 2); -procs P > 1 with no -transport implies tcp-mesh, and 0 or 1 then stays in process; each worker holds a contiguous shard range; never affects results")
		hostsF    = fs.String("hosts", "", "comma-separated `rbb-sim -worker -listen` daemon addresses (host:port) for -transport tcp|tcp-mesh; default: self-spawned loopback workers")
		workerF   = fs.Bool("worker", false, "run as a TCP worker daemon for -hosts coordinators instead of a simulation (requires -listen)")
		listenF   = fs.String("listen", "", "with -worker: listen on this address and serve coordinator sessions until killed")
		quant     = fs.String("quantiles", "", "comma-separated probabilities in (0,1); streams P² sketches of the per-round max load and prints them in the summary (e.g. 0.5,0.9,0.99)")
		ckptPath  = fs.String("checkpoint", "", "write whole-run checkpoints to this file (original process only): every -checkpoint-every rounds, on SIGTERM/SIGINT, and at completion")
		ckptEvery = fs.Int64("checkpoint-every", 0, "rounds between periodic checkpoints (0 = only on signal and at completion; requires -checkpoint)")
		ckptComp  = fs.Bool("checkpoint-compress", false, "flate-compress the per-shard checkpoint sections (format v2; smaller files, identical state; requires -checkpoint)")
		loadWidth = fs.String("load-width", "auto", "load storage width floor in bits: auto | 8 | 16 | 32 (auto stores each shard at the narrowest width that fits, widening on demand; original|tetris only; never affects results)")
		kernelF   = fs.String("kernel", "", "dense-round kernel: batched (cache-blocked bulk draw + radix-partitioned staging + SWAR commit, default) | scalar (the historical one-pass loop); original|tetris only; never affects results")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU pprof profile of the run to this file (telemetry side channel, never affects results)")
		memProf   = fs.String("memprofile", "", "write a heap pprof profile (after a final GC) to this file on exit (telemetry side channel, never affects results)")
		resume    = fs.String("resume", "", "resume from a checkpoint file; n, m, seed, shards, quantiles and load widths come from the file")
		timings   = fs.Bool("timings", false, "add wall-clock fields (ckpt_encode_seconds) to the -json summary; timing is machine noise, so byte-compared summaries must leave it off")
		jsonOut   = fs.Bool("json", false, "print only the final observer summary as one JSON line (rounds, window max, empty-bin fractions, quantiles, memory) — the format served by rbb-serve")
		tracePath = fs.String("trace", "", "write phase spans as Chrome trace format JSON to this file (load it in chrome://tracing or Perfetto); telemetry only, never affects results")
		metrics   = fs.String("metrics", "", "dump the end-of-run metrics in Prometheus text format to this file (\"-\" = stderr); telemetry only, never affects results")
		version   = fs.Bool("version", false, "print build info and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, "rbb-sim", obs.Build())
		return nil
	}
	if *workerF {
		// Worker mode never simulates on its own: it serves coordinator
		// sessions whose init frames carry the whole run (checkpoint blob +
		// wire-encoded arrival rule), so the law flags above are meaningless
		// here and ignored.
		if *listenF == "" {
			return errors.New("-worker requires -listen addr")
		}
		return tcp.ListenAndServe(*listenF, os.Stderr)
	}
	if *listenF != "" {
		return errors.New("-listen requires -worker")
	}
	if *rounds < 0 {
		return fmt.Errorf("need rounds >= 0, got %d", *rounds)
	}
	if *ckptEvery < 0 {
		return fmt.Errorf("need checkpoint-every >= 0, got %d", *ckptEvery)
	}
	if *ckptEvery > 0 && *ckptPath == "" {
		return errors.New("-checkpoint-every requires -checkpoint")
	}
	if *ckptComp && *ckptPath == "" {
		return errors.New("-checkpoint-compress requires -checkpoint")
	}
	width, err := engine.ParseWidth(*loadWidth)
	if err != nil {
		return err
	}
	pl := placementFromFlags(*transp, *procs, *hostsF, *kernelF)
	// Telemetry sinks are side channels (file or stderr, never stdout), so
	// -trace and -metrics cannot perturb byte-compared summaries. Started
	// before the mode split below so every mode (fresh, resumed) is covered.
	stopTelemetry, err := startTelemetry(*tracePath, *metrics)
	if err != nil {
		return err
	}
	defer stopTelemetry()
	// Profiles are side channels under the same contract; -resume keeps
	// -cpuprofile/-memprofile free (like the placement flags) so kernel
	// tuning can profile a resumed stationary-regime run directly.
	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProfiles()
	if *resume != "" {
		// The checkpoint is self-describing; flags that would contradict it
		// are rejected rather than silently ignored. Placement flags
		// (-transport, -procs, -hosts, -kernel, workers) stay free: they
		// never change the law, so any checkpoint resumes under any
		// placement — a run born in process migrates to a TCP mesh across
		// machines mid-flight, or switches dense kernels.
		fixed := map[string]bool{
			"n": true, "m": true, "seed": true, "init": true, "process": true,
			"strategy": true, "lambda": true, "d": true, "shards": true, "quantiles": true,
			// The snapshot records every shard's storage width; a resume-time
			// floor would change the widths the next checkpoint records and
			// break byte-identical resume.
			"load-width": true,
		}
		var conflict string
		fs.Visit(func(f *flag.Flag) {
			if fixed[f.Name] && conflict == "" {
				conflict = f.Name
			}
		})
		if conflict != "" {
			return fmt.Errorf("-resume takes -%s from the checkpoint file; drop the flag", conflict)
		}
		return runResumed(out, *resume, *rounds, *every, *ckptPath, *ckptEvery, pl, *ckptComp, *timings, *jsonOut)
	}
	if *ckptPath != "" && *process != "original" {
		return fmt.Errorf("-checkpoint supports only -process original (got %q)", *process)
	}
	if *n < 1 || *n > shard.MaxBins {
		return fmt.Errorf("need 1 <= n <= %d (2^31), got %d", shard.MaxBins, *n)
	}
	if *shards < 0 {
		return fmt.Errorf("need shards >= 0, got %d", *shards)
	}
	probs, err := parseQuantiles(*quant)
	if err != nil {
		return err
	}
	balls := *m
	if balls == 0 {
		balls = *n
	}
	// The sharded process kinds lower into the canonical spec.RunSpec — the
	// same run description rbb-serve accepts over HTTP — and let it pick the
	// backend for the placement. NormalizePlacement is the CLI slice of the
	// spec validation: it folds -procs defaults and rejects contradictory
	// placements while leaving shards=0 (GOMAXPROCS) and rounds semantics to
	// the flags above.
	rs := spec.RunSpec{
		Process: spec.ProcessRBB, Seed: *seed, N: *n, M: balls, Shards: *shards,
		Init: *initName, LoadWidth: int(width), Placement: pl,
	}
	if *process == "tetris" {
		rs.Process, rs.M, rs.Lambda = spec.ProcessTetris, 0, *lambda
	}
	if err := rs.NormalizePlacement(); err != nil {
		return err
	}
	if rs.Placement.Transport != spec.TransportPool && *process != "original" && *process != "tetris" {
		return fmt.Errorf("-transport %s supports only -process original|tetris (got %q)", rs.Placement.Transport, *process)
	}

	var s engine.Stepper
	switch *process {
	case "original", "tetris":
		p, err := rs.Build(0)
		if err != nil {
			return err
		}
		defer p.Close()
		s = p
	case "token":
		loads, src, err := seededLoads(*n, balls, *initName, *seed)
		if err != nil {
			return err
		}
		strat, err := core.ParseStrategy(*strategy)
		if err != nil {
			return err
		}
		p, err := core.NewTokenProcess(loads, src, core.TokenOptions{Strategy: strat, TrackDelays: true})
		if err != nil {
			return err
		}
		s = p
	case "choices":
		loads, src, err := seededLoads(*n, balls, *initName, *seed)
		if err != nil {
			return err
		}
		p, err := core.NewChoicesProcess(loads, *choices, src)
		if err != nil {
			return err
		}
		s = p
	case "jackson":
		loads, src, err := seededLoads(*n, balls, *initName, *seed)
		if err != nil {
			return err
		}
		net, err := jackson.New(loads, src)
		if err != nil {
			return err
		}
		s = &jacksonStepper{net: net}
	default:
		return fmt.Errorf("unknown process %q (want original|tetris|token|choices|jackson)", *process)
	}

	if !*jsonOut {
		fmt.Fprintf(out, "# %s process, n=%d m=%d init=%s seed=%d%s (legitimate: max load <= %d)\n",
			*process, *n, balls, *initName, *seed, placementInfo(s, rs.Placement.Transport), config.LegitimateThreshold(*n, config.Beta))
	}
	// Every run carries a pipeline (window max, empty fraction, requested
	// quantiles): it feeds the summary, and a checkpointed run's resumed
	// summaries cover the whole run through it.
	pipe, err := shard.NewPipeline(probs)
	if err != nil {
		return err
	}
	pol := checkpoint.Policy{Path: *ckptPath, Every: *ckptEvery, Seed: *seed, Pipeline: pipe, Compress: *ckptComp}
	return runLoop(out, s, pipe, pol, *rounds, *every, *timings, *jsonOut)
}

// startTelemetry wires the -trace and -metrics side channels: it installs a
// process-wide tracer writing Chrome trace JSON to tracePath (when set) and
// returns a teardown that finalizes the trace file and dumps the metrics
// registry in Prometheus text format to metricsPath ("-" = stderr).
// Teardown errors are reported on stderr — telemetry must never change the
// exit status or stdout of a run.
func startTelemetry(tracePath, metricsPath string) (func(), error) {
	var (
		tr *obs.Tracer
		tf *os.File
	)
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, err
		}
		tf = f
		tr = obs.NewTracer(f)
		tr.Meta(obs.LanePhases, "phases")
		tr.Meta(obs.LaneCkpt, "checkpoint")
		obs.SetTracer(tr)
	}
	return func() {
		if tr != nil {
			obs.SetTracer(nil)
			if err := tr.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "rbb-sim: trace:", err)
			}
			if err := tf.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "rbb-sim: trace:", err)
			}
		}
		if metricsPath != "" {
			w := io.Writer(os.Stderr)
			var mf *os.File
			if metricsPath != "-" {
				f, err := os.Create(metricsPath)
				if err != nil {
					fmt.Fprintln(os.Stderr, "rbb-sim: metrics:", err)
					return
				}
				mf = f
				w = f
			}
			if err := obs.Default.WritePrometheus(w); err != nil {
				fmt.Fprintln(os.Stderr, "rbb-sim: metrics:", err)
			}
			if mf != nil {
				if err := mf.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "rbb-sim: metrics:", err)
				}
			}
		}
	}, nil
}

// startProfiles wires the -cpuprofile and -memprofile side channels under
// the same contract as startTelemetry: files only, teardown errors on
// stderr, never a change to stdout or the exit status. The CPU profile
// covers the whole run from here to teardown; the heap profile is written
// at teardown after a forced GC so it shows live steady-state memory (the
// kernel scratch buffers), not garbage awaiting collection.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cf *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cf = f
	}
	return func() {
		if cf != nil {
			pprof.StopCPUProfile()
			if err := cf.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "rbb-sim: cpuprofile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rbb-sim: memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rbb-sim: memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "rbb-sim: memprofile:", err)
			}
		}
	}, nil
}

// printSummary emits the run summary as one JSON line — the same encoding
// rbb-serve returns from its result endpoint, so the CI serve-smoke job
// can diff the two directly.
func printSummary(out io.Writer, sum shard.Summary) error {
	enc := json.NewEncoder(out)
	return enc.Encode(sum)
}

// runResumed rebuilds a run from a checkpoint file on the requested
// placement — in process or over TCP workers (the snapshot doubles as the
// worker join payload, so a run born under one placement migrates to any
// other, machines included) — and continues it to the target round.
func runResumed(out io.Writer, path string, target, every int64, ckptPath string, ckptEvery int64, pl spec.Placement, compress, timings, jsonOut bool) error {
	snap, err := checkpoint.ReadFile(path)
	if err != nil {
		return err
	}
	rs := spec.RunSpec{Process: spec.ProcessRBB, Placement: pl}
	if err := rs.NormalizePlacement(); err != nil {
		return err
	}
	p, pipe, err := rs.Open(snap, 0)
	if err != nil {
		return err
	}
	defer p.Close()
	if target < p.Round() {
		return fmt.Errorf("checkpoint is already at round %d, past the target -rounds %d (the flag counts total rounds from the original start, not additional rounds)", p.Round(), target)
	}
	if pipe == nil {
		// Pre-observer checkpoint (engine state only): start fresh
		// accumulators for the remaining rounds.
		pipe, err = shard.NewPipeline(nil)
		if err != nil {
			return err
		}
	}
	if !jsonOut {
		balls := p.(interface{ Balls() int64 }).Balls()
		fmt.Fprintf(out, "# original process resumed at round %d, n=%d m=%d seed=%d%s (legitimate: max load <= %d)\n",
			p.Round(), p.N(), balls, snap.Seed, placementInfo(p, rs.Placement.Transport), config.LegitimateThreshold(p.N(), config.Beta))
	}
	pol := checkpoint.Policy{Path: ckptPath, Every: ckptEvery, Seed: snap.Seed, Pipeline: pipe, Compress: compress}
	return runLoop(out, p, pipe, pol, target, every, timings, jsonOut)
}

// placementInfo renders the header's placement fields: the shard count
// (part of the random law's key) and, for worker processes, their count
// and transport. It never names the phase worker count, which varies by
// machine and must not break the byte-identical-stdout determinism check.
func placementInfo(s engine.Stepper, transport string) string {
	var info string
	if sh, ok := s.(interface{ Shards() int }); ok {
		info = fmt.Sprintf(" shards=%d", sh.Shards())
	}
	if pe, ok := s.(interface{ Procs() int }); ok {
		info += fmt.Sprintf(" procs=%d transport=%s", pe.Procs(), transport)
	}
	return info
}

// runLoop is rbb-sim's one run loop: it drives any process kind, fresh or
// resumed, to the target round through checkpoint.Run under pol, printing
// the text time series or the JSON summary. When the policy writes
// anywhere, SIGTERM/SIGINT cancel the run context and checkpoint.Run
// snapshots and stops at the next round boundary — the same shared path
// rbb-serve uses for its shutdown.
func runLoop(out io.Writer, s engine.Stepper, pipe *shard.Pipeline, pol checkpoint.Policy, target, every int64, timings, jsonOut bool) error {
	ctx := context.Background()
	// Cumulative across every write of the run (periodic, triggered, final),
	// matching the Summary field's contract — not just the last write.
	var encSeconds float64
	pol.OnWrite = func(seconds float64) { encSeconds += seconds }
	if pol.Path != "" {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, syscall.SIGTERM, os.Interrupt)
		defer stop()
	}
	n := s.N()
	var obs []engine.Observer
	if !jsonOut {
		interval := reportInterval(every, target)
		fmt.Fprintf(out, "%10s  %8s  %11s  %10s\n", "round", "max load", "empty frac", "legitimate")
		report := reporter(out, s, config.LegitimateThreshold(n, config.Beta))
		report()
		obs = append(obs, engine.ObserverFunc(func(st engine.Stepper) {
			if st.Round()%interval == 0 {
				report()
			}
		}))
	}
	round, interrupted, err := checkpoint.Run(ctx, s, target, pol, obs...)
	if err != nil {
		return err
	}
	if interrupted {
		// -json keeps stdout machine-parseable: no human-readable notice,
		// and no summary either (the run did not reach its target; the
		// checkpoint on disk is the resumable artifact).
		if !jsonOut {
			fmt.Fprintf(out, "\ninterrupted: checkpoint written to %s at round %d\n", pol.Path, round)
		}
		return nil
	}
	if jsonOut {
		sum := pipe.SummaryFor(s)
		if timings {
			sum.CkptEncodeSeconds = encSeconds
		}
		return printSummary(out, sum)
	}
	fmt.Fprintf(out, "\nwindow max load: %d (%.2f x ln n)\n", pipe.WindowMax(), float64(pipe.WindowMax())/math.Log(float64(n)))
	if q := pipe.String(); q != "" {
		fmt.Fprintf(out, "max-load quantiles over rounds: %s\n", q)
	}
	switch p := s.(type) {
	case *core.TokenProcess:
		fmt.Fprintf(out, "min ball progress: %d hops; max per-visit delay: %d; mean delay: %.3f\n",
			p.MinHops(), p.MaxDelay(), p.MeanDelay())
	case *shard.Tetris:
		if r, done := p.AllEmptiedRound(); done {
			fmt.Fprintf(out, "all bins emptied at least once by round %d (5n = %d)\n", r, 5*n)
		} else {
			fmt.Fprintf(out, "some bins have not emptied yet\n")
		}
	}
	return nil
}

// reporter returns the per-row printer shared by all run modes.
func reporter(out io.Writer, s engine.Stepper, threshold int32) func() {
	return func() {
		frac := float64(s.EmptyBins()) / float64(s.N())
		legit := "yes"
		if s.MaxLoad() > threshold {
			legit = "no"
		}
		fmt.Fprintf(out, "%10d  %8d  %11.4f  %10s\n", s.Round(), s.MaxLoad(), frac, legit)
	}
}

// reportInterval resolves the -report-every flag (0 = auto, ~20 rows).
func reportInterval(every, rounds int64) int64 {
	if every > 0 {
		return every
	}
	interval := rounds / 20
	if interval < 1 {
		interval = 1
	}
	return interval
}

// placementFromFlags folds the CLI placement flags into the canonical
// spec.Placement: -procs P > 1 with no -transport implies the loopback
// TCP mesh. Validation belongs to spec.NormalizePlacement.
func placementFromFlags(transport string, procs int, hosts, kernel string) spec.Placement {
	pl := spec.Placement{Transport: transport, Procs: procs, Kernel: kernel}
	if transport == "" && procs > 1 {
		pl.Transport = spec.TransportTCPMesh
	}
	for _, h := range strings.Split(hosts, ",") {
		if h = strings.TrimSpace(h); h != "" {
			pl.Hosts = append(pl.Hosts, h)
		}
	}
	return pl
}

// seededLoads builds the initial configuration for the sequential process
// kinds, which keep drawing from the returned source after it.
func seededLoads(n, balls int, initName string, seed uint64) ([]int32, *rng.Source, error) {
	src := rng.New(seed)
	loads, err := config.Make(config.Generator(initName), n, balls, src)
	if err != nil {
		return nil, nil, err
	}
	return loads, src, nil
}

// parseQuantiles parses the -quantiles flag.
func parseQuantiles(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var probs []float64
	for _, f := range strings.Split(s, ",") {
		p, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -quantiles entry %q: %v", f, err)
		}
		if p <= 0 || p >= 1 {
			return nil, fmt.Errorf("-quantiles entry %v outside (0, 1)", p)
		}
		probs = append(probs, p)
	}
	return probs, nil
}
