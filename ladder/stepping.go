package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/shard/transport/tcp"
	"repro/internal/spec"
)

// stationarySpec is the paper's legitimate steady state at the ROADMAP's
// acceptance shape: a dense release and commit over every bin each round.
func (b *bench) stationarySpec() spec.RunSpec {
	return b.normalized(spec.RunSpec{
		Process:         spec.ProcessRBB,
		Seed:            b.specSeed(1),
		N:               b.sz.statN,
		Rounds:          b.sz.statRounds,
		Shards:          b.sz.statShards,
		Init:            string(config.GenOnePerBin),
		Quantiles:       []float64{0.5, 0.99},
		CheckpointEvery: b.sz.statCkptEvery,
		Placement:       spec.Placement{Transport: spec.TransportPool, Workers: b.workers},
	})
}

// meshSpec is the stationary law placed on self-spawned loopback workers.
func (b *bench) meshSpec() spec.RunSpec {
	sp := b.stationarySpec()
	sp.Placement = spec.Placement{Transport: spec.TransportTCPMesh, Procs: b.procs, Workers: 1}
	return b.normalized(sp)
}

// recoverySpec is Theorem 1(b): all balls in one bin, stepped until the
// first legitimate round. Rounds is only a cap; reaching it is a failure.
func (b *bench) recoverySpec() spec.RunSpec {
	return b.normalized(spec.RunSpec{
		Process:         spec.ProcessRBB,
		Seed:            b.specSeed(2),
		N:               b.sz.recN,
		Rounds:          int64(64 * b.sz.recN),
		Shards:          1,
		Init:            string(config.GenAllInOne),
		CheckpointEvery: b.sz.recCkptEvery,
		Placement:       spec.Placement{Transport: spec.TransportPool, Workers: 1},
	})
}

func (b *bench) normalized(sp spec.RunSpec) spec.RunSpec {
	if err := sp.Normalize(0); err != nil {
		panic(fmt.Sprintf("ladder: workload spec does not normalize: %v", err)) // the specs are constants of this file
	}
	return sp
}

// episode is one untraced run of a spec through spec.RunSpec.Build and
// checkpoint.Run, the path rbb-sim and rbb-serve take.
type episode struct {
	setup    time.Duration // spec to first round ready
	stepping time.Duration // first round to return, checkpoint writes included
	legit    time.Duration // first round to the first legitimate round (recovery)
	rounds   int64
	roundMs  []float64 // per round, checkpoint writes excluded
	ckptMs   []float64 // per checkpoint write
	summary  []byte
	ckpt     [32]byte // sha256 of the final checkpoint file
	rssMiB   float64
}

// runEpisode builds sp on its placement and steps it to sp.Rounds, or with
// stopAt > 0 to the first round whose max load is at most stopAt.
func (b *bench) runEpisode(sp spec.RunSpec, stopAt int32) (ep episode, err error) {
	path := filepath.Join(b.dir, "episode.ckpt")
	t0 := time.Now()
	proc, err := sp.Build(0)
	if err != nil {
		return ep, err
	}
	defer func() {
		if cerr := proc.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	cp, ok := proc.(checkpoint.Process)
	if !ok {
		return ep, fmt.Errorf("placement %q cannot snapshot", sp.Placement.Transport)
	}
	pipe, err := shard.NewPipeline(sp.Quantiles)
	if err != nil {
		return ep, err
	}
	ep.setup = time.Since(t0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var start, last, legit time.Time
	roundObs := engine.ObserverFunc(func(st engine.Stepper) {
		now := time.Now()
		ep.roundMs = append(ep.roundMs, ms(now.Sub(last)))
		last = now
		if stopAt > 0 && legit.IsZero() && st.MaxLoad() <= stopAt {
			legit = now
			cancel() // checkpoint.Run writes the stop snapshot and returns
		}
	})
	pol := checkpoint.Policy{
		Path:     path,
		Every:    sp.CheckpointEvery,
		Seed:     sp.Seed,
		Pipeline: pipe,
		OnWrite: func(s float64) {
			ep.ckptMs = append(ep.ckptMs, s*1e3)
			last = time.Now()
		},
	}
	start = time.Now()
	last = start
	ep.rounds, _, err = checkpoint.Run(ctx, cp, sp.Rounds, pol, roundObs)
	ep.stepping = time.Since(start)
	if err != nil {
		return ep, err
	}
	if stopAt > 0 {
		if legit.IsZero() {
			return ep, fmt.Errorf("no legitimate round (max load <= %d) within %d rounds", stopAt, sp.Rounds)
		}
		ep.legit = legit.Sub(start)
	}
	if ep.rssMiB, err = treeRSSMiB(); err != nil {
		return ep, err
	}
	if ep.summary, err = json.Marshal(pipe.SummaryFor(cp)); err != nil {
		return ep, err
	}
	ep.ckpt, _, err = hashFile(path)
	return ep, err
}

func hashFile(path string) ([32]byte, int64, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return [32]byte{}, 0, err
	}
	return sha256.Sum256(blob), int64(len(blob)), nil
}

// freshStart returns freed memory to the kernel and restarts the peak-RSS
// reading, so an episode starts from a collected heap and measures its own
// peak, as a fresh process would.
func freshStart() {
	debug.FreeOSMemory()
	resetPeakRSS()
}

// episodes runs untraced episodes of sp until the deadline (at least one).
func (b *bench) episodes(sp spec.RunSpec, stopAt int32, deadline time.Time) ([]episode, error) {
	var eps []episode
	for len(eps) == 0 || time.Now().Before(deadline) {
		freshStart()
		ep, err := b.runEpisode(sp, stopAt)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", len(eps)+1, err)
		}
		b.ops += ep.rounds + int64(len(ep.ckptMs))
		eps = append(eps, ep)
	}
	return eps, nil
}

// checkEpisodes verifies that every episode of one spec produced the same
// summary, final checkpoint and round count as the reference, and that the
// summary covers the rounds stepped.
func (b *bench) checkEpisodes(what string, ref episode, eps []episode) {
	for i, ep := range eps {
		b.check(bytes.Equal(ep.summary, ref.summary), "%s episode %d: summary %s differs from %s", what, i+1, ep.summary, ref.summary)
		b.check(ep.ckpt == ref.ckpt, "%s episode %d: final checkpoint differs", what, i+1)
		b.check(ep.rounds == ref.rounds, "%s episode %d: %d rounds, reference %d", what, i+1, ep.rounds, ref.rounds)
		var sum shard.Summary
		err := json.Unmarshal(ep.summary, &sum)
		b.check(err == nil && sum.Rounds == ep.rounds, "%s episode %d: summary rounds %d (err %v), stepped %d", what, i+1, sum.Rounds, err, ep.rounds)
	}
}

// minSetups is the fewest set-ups whose median a run reports as setup_s.
const minSetups = 9

// setupOnly builds sp and tears it down again, returning the set-up time
// (spec to first round ready, as runEpisode measures it).
func (b *bench) setupOnly(sp spec.RunSpec) (float64, error) {
	freshStart()
	t0 := time.Now()
	p, err := sp.Build(0)
	if err != nil {
		return 0, err
	}
	_, err = shard.NewPipeline(sp.Quantiles)
	d := time.Since(t0).Seconds()
	if cerr := p.Close(); err == nil {
		err = cerr
	}
	return d, err
}

// putEndToEnd reports the end-to-end metrics of untraced stepping
// episodes, topping the set-up samples up to minSetups. Each figure is the
// median over episodes of the episode's own figure, so a burst of host
// noise that slows one episode does not move the run's value.
func (b *bench) putEndToEnd(sp spec.RunSpec, eps []episode) error {
	var setups, p50s, p90s, rates, peaks []float64
	rounds := 0
	for _, ep := range eps {
		setups = append(setups, ep.setup.Seconds())
		p50s = append(p50s, median(ep.roundMs))
		p90s = append(p90s, quantile(ep.roundMs, 0.9))
		rates = append(rates, float64(sp.N)*float64(ep.rounds)/ep.stepping.Seconds())
		rounds += len(ep.roundMs)
		peaks = append(peaks, ep.rssMiB)
	}
	for len(setups) < minSetups {
		d, err := b.setupOnly(sp)
		if err != nil {
			return fmt.Errorf("set-up sample: %w", err)
		}
		setups = append(setups, d)
	}
	b.put("setup_s", median(setups), len(setups))
	b.put("latency_ms.p50", median(p50s), rounds)
	b.put("latency_ms.p90", median(p90s), rounds)
	b.put("bin_rounds_per_s", median(rates), len(rates))
	b.put("peak_rss_mib", median(peaks), len(peaks))
	return nil
}

func (b *bench) stationary() error {
	sp := b.stationarySpec()
	if !b.cfg.trace {
		eps, err := b.episodes(sp, 0, b.deadline)
		if err != nil {
			return err
		}
		b.checkEpisodes("stationary", eps[0], eps)
		return b.putEndToEnd(sp, eps)
	}
	// Untraced and traced episodes alternate, so the tracing overhead is
	// measured under the same host conditions. The last third of the run
	// places the same law on a tcp-mesh, which times the transport/tcp and
	// wire layers.
	groupUntil := b.deadline.Add(-time.Duration(b.cfg.seconds) * time.Second / 3)
	base, traced, err := b.groupLegs("stationary", sp, 0, groupUntil)
	if err != nil {
		return err
	}
	if _, _, err := b.meshLegs(b.deadline); err != nil {
		return err
	}
	loads, err := sp.MakeLoads()
	if err != nil {
		return err
	}
	freshStart()
	if _, err := b.engineRung(loads, sp.Seed, sp.Rounds, 0); err != nil {
		return err
	}
	engineRounds := b.tr.durs("engine.round")
	b.put("engine.round_ms", median(engineRounds), len(engineRounds))
	b.putShardLayers()
	b.put("shard.cost_x", median(b.st.busyMs)/median(engineRounds), len(b.st.busyMs))
	b.putCheckpointLayers(traced[0])
	b.putBaseline(base, traced)
	return nil
}

// groupLegs runs untraced and traced episodes of sp in turn until the
// deadline (at least one of each), so the tracing overhead is measured
// under the same host conditions, and checks that they all give the same
// result.
func (b *bench) groupLegs(what string, sp spec.RunSpec, stopAt int32, deadline time.Time) (base []episode, traced []tracedEpisode, err error) {
	for len(traced) == 0 || time.Now().Before(deadline) {
		freshStart()
		ep, err := b.runEpisode(sp, stopAt)
		if err != nil {
			return nil, nil, err
		}
		freshStart()
		te, err := b.tracedGroupEpisode(sp, stopAt)
		if err != nil {
			return nil, nil, err
		}
		b.ops += ep.rounds + int64(len(ep.ckptMs))
		base, traced = append(base, ep), append(traced, te)
	}
	b.checkEpisodes(what, base[0], base)
	b.checkTraced(what, base[0], traced)
	return base, traced, nil
}

// putBaseline reports the untraced episodes' checkpoint figure and the
// tracing overhead: traced over untraced median round time, minus one.
func (b *bench) putBaseline(base []episode, traced []tracedEpisode) {
	var rounds, ckpts []float64
	for _, ep := range base {
		rounds = append(rounds, ep.roundMs...)
		ckpts = append(ckpts, ep.ckptMs...)
	}
	b.put("ckpt_ms.p50", median(ckpts), len(ckpts))
	tr := roundDurs(traced)
	b.put("bench.trace_overhead", median(tr)/median(rounds)-1, len(tr))
}

func (b *bench) recovery() error {
	sp := b.recoverySpec()
	thr := config.LegitimateThreshold(sp.N, config.Beta)
	if !b.cfg.trace {
		eps, err := b.episodes(sp, thr, b.deadline)
		if err != nil {
			return err
		}
		b.checkEpisodes("recovery", eps[0], eps)
		return b.putEndToEnd(sp, eps)
	}
	// Untraced and traced recoveries alternate for the first two thirds of
	// the run (each takes seconds), then one recovery on the bare engine.
	base, traced, err := b.groupLegs("recovery", sp, thr, b.deadline.Add(-time.Duration(b.cfg.seconds)*time.Second/3))
	if err != nil {
		return err
	}
	loads, err := sp.MakeLoads()
	if err != nil {
		return err
	}
	freshStart()
	er, err := b.engineRung(loads, sp.Seed, sp.Rounds, thr)
	if err != nil {
		return err
	}
	b.check(er.rounds == traced[0].rounds, "recovery: engine rung reached legitimacy at round %d, S=1 shard run at %d", er.rounds, traced[0].rounds)
	var rec, ckpts, tracedS []float64
	for i := range base {
		rec = append(rec, base[i].legit.Seconds())
		ckpts = append(ckpts, base[i].ckptMs...)
		tracedS = append(tracedS, traced[i].stepMs/1e3)
	}
	b.put("recover_s", median(rec), len(rec))
	b.put("engine.recover_s", er.wall.Seconds(), 1)
	b.putShardLayers()
	b.put("shard.cost_x", median(tracedS)/er.wall.Seconds(), len(tracedS))
	b.putCheckpointLayers(traced[0])
	b.put("ckpt_ms.p50", median(ckpts), len(ckpts))
	b.put("bench.trace_overhead", median(tracedS)/median(rec)-1, len(tracedS))
	// Serve's runs take the S = 1 path recovery times; one untraced and one
	// traced rbb-serve lifetime time the serve layer.
	_, _, err = b.serveLegs(time.Time{})
	return err
}

func (b *bench) mesh() error {
	sp := b.meshSpec()
	pool := b.stationarySpec()
	if !b.cfg.trace {
		eps, err := b.episodes(sp, 0, b.deadline)
		if err != nil {
			return err
		}
		b.checkEpisodes("mesh", eps[0], eps)
		if err := b.putEndToEnd(sp, eps); err != nil {
			return err
		}
		// The placement must not change the result: one pool run of the
		// same law, outside the timed window, is the reference.
		freshStart()
		ref, err := b.runEpisode(pool, 0)
		if err != nil {
			return fmt.Errorf("pool reference: %w", err)
		}
		b.checkEpisodes("mesh vs pool", ref, eps[:1])
		return nil
	}
	base, traced, err := b.meshLegs(b.deadline)
	if err != nil {
		return err
	}
	b.putDurs("spec.make_loads_ms", "spec.make_loads")
	b.put("checkpoint.bytes", float64(traced[0].ckptBytes), len(traced))
	b.putBaseline(base, traced)
	return nil
}

// meshLegs runs pool, untraced mesh and traced mesh episodes of the
// stationary law in turn until the deadline (at least once), so the
// placement ratio and the tracing overhead compare like conditions. It
// checks that all three produce the same result and reports the
// transport/tcp and wire layers.
func (b *bench) meshLegs(deadline time.Time) (base []episode, traced []tracedEpisode, err error) {
	sp, pool := b.meshSpec(), b.stationarySpec()
	var refs []episode
	for len(traced) == 0 || time.Now().Before(deadline) {
		freshStart()
		ref, err := b.runEpisode(pool, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("pool reference: %w", err)
		}
		freshStart()
		ep, err := b.runEpisode(sp, 0)
		if err != nil {
			return nil, nil, err
		}
		freshStart()
		te, err := b.tracedMeshEpisode(sp)
		if err != nil {
			return nil, nil, err
		}
		b.ops += ref.rounds + ep.rounds + int64(len(ref.ckptMs)+len(ep.ckptMs))
		refs, base, traced = append(refs, ref), append(base, ep), append(traced, te)
	}
	b.checkEpisodes("mesh vs pool", refs[0], append(refs, base...))
	b.checkTraced("mesh", base[0], traced)
	b.putDurs("tcp.join_ms", "tcp.join")
	b.putDurs("checkpoint.stream_ms", "checkpoint.stream")
	var coord, rounds float64
	for _, te := range traced {
		coord += te.coordBytes
		rounds += float64(te.rounds)
	}
	b.put("tcp.coord_bytes_per_round", coord/rounds, int(rounds))
	var meshRounds, poolRounds []float64
	for i := range base {
		meshRounds = append(meshRounds, base[i].roundMs...)
		poolRounds = append(poolRounds, refs[i].roundMs...)
	}
	b.put("wire.mesh_over_pool_x", median(meshRounds)/median(poolRounds), len(meshRounds))
	return base, traced, nil
}

// tracedEpisode is one traced run of a stepping workload.
type tracedEpisode struct {
	rounds     int64
	roundMs    []float64 // "round" span durations
	stepMs     float64   // sum of roundMs (checkpoint writes excluded)
	summary    []byte
	ckpt       [32]byte
	ckptBytes  int64
	coordBytes float64 // tcp coordinator socket bytes moved by Step calls
}

func roundDurs(tes []tracedEpisode) []float64 {
	var out []float64
	for _, te := range tes {
		out = append(out, te.roundMs...)
	}
	return out
}

// checkTraced verifies that the traced runs reproduced the untraced one.
func (b *bench) checkTraced(what string, base episode, tes []tracedEpisode) {
	for i, te := range tes {
		b.check(bytes.Equal(te.summary, base.summary), "%s traced episode %d: summary %s differs from untraced %s", what, i+1, te.summary, base.summary)
		b.check(te.ckpt == base.ckpt, "%s traced episode %d: final checkpoint differs from untraced", what, i+1)
		b.check(te.rounds == base.rounds, "%s traced episode %d: %d rounds, untraced %d", what, i+1, te.rounds, base.rounds)
	}
}

// groupStepper exposes a traced Group's folded statistics as the
// engine.Stepper the observer pipeline reads. The episode loop steps the
// group itself, so Step is never called.
type groupStepper struct {
	g       *shard.Group
	round   int64
	maxLoad int32
	empty   int
}

func (s *groupStepper) Step()              { panic("ladder: groupStepper is stepped by the episode loop") }
func (s *groupStepper) Round() int64       { return s.round }
func (s *groupStepper) N() int             { return s.g.N() }
func (s *groupStepper) MaxLoad() int32     { return s.maxLoad }
func (s *groupStepper) EmptyBins() int     { return s.empty }
func (s *groupStepper) NonEmptyBins() int  { return s.g.N() - s.empty }
func (s *groupStepper) Load(u int) int32   { return s.g.Load(u) }
func (s *groupStepper) LoadsCopy() []int32 { return s.g.AppendLoads(nil) }

// LoadBytes lets Pipeline.SummaryFor fill the memory figure exactly as it
// does for shard.Process.
func (s *groupStepper) LoadBytes() int64 { return s.g.LoadBytes() }

// relaunch is the rbb arrival rule: every released ball is thrown again.
func relaunch(_, released int, _ *rng.Source) int { return released }

// shardSeries accumulates the traced run's per-round shard-layer figures.
type shardSeries struct {
	busyMs, barrierMs, imbalance, released, exchange []float64
	busyNs, balls, expected                          float64
}

// tracedGroupEpisode assembles the spec's in-process run by hand — loads,
// a shard.Group over a timed local.Pool, the release/commit phases, the
// stats fold, the observer pipeline and the checkpoint writes — timing
// each call. Its trajectory, summary and checkpoints equal runEpisode's.
func (b *bench) tracedGroupEpisode(sp spec.RunSpec, stopAt int32) (te tracedEpisode, err error) {
	tr := b.tr
	root := tr.begin("episode", -1, 0)
	defer tr.end(root)
	id := tr.begin("spec.make_loads", root, 0)
	loads, err := sp.MakeLoads()
	tr.end(id)
	if err != nil {
		return te, err
	}
	id = tr.begin("spec.build", root, 0)
	run := newTracedRunner(tr, sp.Shards, sp.Placement.Workers)
	run.name, run.parent = "shard.prefault", id
	g, err := shard.NewGroup(sp.N, sp.Shards, 0, sp.Shards, loads, sp.Seed, run, shard.GroupOptions{Width: engine.Width(sp.LoadWidth), Kernel: sp.Kernel()})
	if err != nil {
		tr.end(id)
		run.Close()
		return te, err
	}
	defer g.Close()
	pipe, err := shard.NewPipeline(sp.Quantiles)
	tr.end(id)
	if err != nil {
		return te, err
	}
	st := &groupStepper{g: g, maxLoad: g.MaxLoad(), empty: g.EmptyBins()}
	path := filepath.Join(b.dir, "traced.ckpt")
	s := sp.Shards
	var buf bytes.Buffer
	var exchanged, expected float64
	for st.round < sp.Rounds {
		round := st.round + 1
		emptyBefore := st.empty
		rs := tr.begin("round", root, round)
		ph := tr.begin("shard.release", rs, round)
		run.name, run.parent, run.trace = "shard.release.part", ph, round
		g.Release(relaunch)
		tr.end(ph)
		busy, barrier := run.busy, run.wall-run.slowest
		b.st.imbalance = append(b.st.imbalance, run.imbalance)
		exch := 0
		for src := 0; src < s; src++ {
			for dst := 0; dst < s; dst++ {
				if src != dst {
					exch += len(g.Outgoing(src, dst))
				}
			}
		}
		ph = tr.begin("shard.commit", rs, round)
		run.name, run.parent = "shard.commit.part", ph
		g.Commit()
		tr.end(ph)
		busy += run.busy
		barrier += run.wall - run.slowest
		b.st.imbalance = append(b.st.imbalance, run.imbalance)
		fold := tr.begin("shard.fold", rs, round)
		st.maxLoad, st.empty, st.round = g.MaxLoad(), g.EmptyBins(), round
		pipe.Observe(st)
		tr.end(fold)
		tr.end(rs)
		te.roundMs = append(te.roundMs, tr.ms(rs))

		released := g.Released()
		b.st.busyMs = append(b.st.busyMs, float64(busy)/1e6)
		b.st.barrierMs = append(b.st.barrierMs, float64(barrier)/1e6)
		b.st.released = append(b.st.released, float64(released))
		b.st.exchange = append(b.st.exchange, float64(exch))
		b.st.busyNs += float64(busy)
		b.st.balls += float64(released)
		exchanged += float64(exch)
		// E25's closed form for the cross-shard share of a round's throws.
		expected += (1 - float64(emptyBefore)/float64(sp.N)) * float64(sp.N) * float64(s-1) / float64(s)

		legit := stopAt > 0 && st.maxLoad <= stopAt
		periodic := sp.CheckpointEvery > 0 && round%sp.CheckpointEvery == 0 && round < sp.Rounds
		if legit || periodic || round == sp.Rounds {
			if err := b.tracedCheckpoint(g, st, sp.Seed, pipe, path, &buf, root); err != nil {
				return te, err
			}
		}
		b.ops++
		if legit {
			break
		}
	}
	if stopAt > 0 && st.maxLoad > stopAt {
		return te, fmt.Errorf("traced run: no legitimate round within %d rounds", sp.Rounds)
	}
	te.rounds = st.round
	te.stepMs = sumOf(te.roundMs)
	b.st.expected += expected
	if s > 1 {
		// Each released ball lands in another shard with probability
		// (S−1)/S, so the exchanged count is binomial around the closed
		// form with relative standard deviation 1/sqrt(expected·S). Eight
		// of those, and at least 1%, leave room for chance but not for a
		// routing or partition defect.
		tol := max(0.01, 8/math.Sqrt(expected*float64(s)))
		b.check(math.Abs(exchanged/expected-1) <= tol, "traced episode: %.0f balls crossed shards, closed form %.0f (ratio %.5f, tolerance %.5f)", exchanged, expected, exchanged/expected, tol)
	}
	if te.summary, err = json.Marshal(pipe.SummaryFor(st)); err != nil {
		return te, err
	}
	te.ckpt, te.ckptBytes, err = hashFile(path)
	return te, err
}

// tracedCheckpoint writes one checkpoint in three timed steps: the
// whole-run gather (Group.SnapshotShard per shard), the encode into a
// discarding writer, and the atomic file write of the encoded bytes. The
// bytes equal what checkpoint.Run writes for the same state.
func (b *bench) tracedCheckpoint(g *shard.Group, st *groupStepper, seed uint64, pipe *shard.Pipeline, path string, buf *bytes.Buffer, parent int32) error {
	tr := b.tr
	id := tr.begin("checkpoint.gather", parent, st.round)
	es := &shard.EngineSnapshot{N: g.N(), Round: st.round, Shards: make([]shard.ShardSnapshot, g.Shards())}
	for i := range es.Shards {
		ss, err := g.SnapshotShard(i)
		if err != nil {
			tr.end(id)
			return err
		}
		es.Shards[i] = ss
	}
	tr.end(id)
	snap := &checkpoint.Snapshot{Seed: seed, Engine: es, Observer: pipe.Snapshot()}
	id = tr.begin("checkpoint.encode", parent, st.round)
	err := checkpoint.SaveOptions(io.Discard, snap, checkpoint.Options{})
	tr.end(id)
	if err != nil {
		return err
	}
	buf.Reset()
	if err := checkpoint.SaveOptions(buf, snap, checkpoint.Options{}); err != nil {
		return err
	}
	id = tr.begin("checkpoint.file", parent, st.round)
	err = checkpoint.WriteFileFunc(path, func(w io.Writer) error {
		_, err := w.Write(buf.Bytes())
		return err
	})
	tr.end(id)
	b.ops++
	return err
}

// tracedMeshEpisode times the public calls of a tcp-mesh run: the loads,
// the initial snapshot, the spawn-and-join in tcp.New, each Step and each
// streamed checkpoint, and reads the coordinator's socket byte counters.
func (b *bench) tracedMeshEpisode(sp spec.RunSpec) (te tracedEpisode, err error) {
	tr := b.tr
	root := tr.begin("episode", -1, 0)
	defer tr.end(root)
	id := tr.begin("spec.make_loads", root, 0)
	loads, err := sp.MakeLoads()
	tr.end(id)
	if err != nil {
		return te, err
	}
	id = tr.begin("shard.initial_snapshot", root, 0)
	es, err := shard.InitialSnapshot(loads, sp.Seed, sp.Shards, engine.Width(sp.LoadWidth))
	tr.end(id)
	if err != nil {
		return te, err
	}
	id = tr.begin("tcp.join", root, 0)
	e, err := tcp.New(&checkpoint.Snapshot{Seed: sp.Seed, Engine: es}, tcp.Options{
		Procs: sp.Placement.Procs, Workers: sp.Placement.Workers, Width: engine.Width(sp.LoadWidth),
		Kernel: sp.Kernel(), Mesh: true,
	})
	tr.end(id)
	if err != nil {
		return te, err
	}
	defer func() {
		if cerr := e.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	pipe, err := shard.NewPipeline(sp.Quantiles)
	if err != nil {
		return te, err
	}
	path := filepath.Join(b.dir, "traced.ckpt")
	for e.Round() < sp.Rounds {
		round := e.Round() + 1
		c0 := coordBytes()
		rs := tr.begin("round", root, round)
		id := tr.begin("tcp.step", rs, round)
		e.Step()
		tr.end(id)
		id = tr.begin("tcp.fold", rs, round)
		pipe.Observe(e)
		tr.end(id)
		tr.end(rs)
		te.coordBytes += coordBytes() - c0
		te.roundMs = append(te.roundMs, tr.ms(rs))
		b.ops++
		if (sp.CheckpointEvery > 0 && round%sp.CheckpointEvery == 0) || round == sp.Rounds {
			id := tr.begin("checkpoint.stream", root, round)
			err := checkpoint.WriteFileFunc(path, func(w io.Writer) error {
				return e.StreamCheckpoint(w, sp.Seed, pipe.Snapshot(), checkpoint.Options{})
			})
			tr.end(id)
			if err != nil {
				return te, err
			}
			b.ops++
		}
	}
	te.rounds = e.Round()
	te.stepMs = sumOf(te.roundMs)
	if te.summary, err = json.Marshal(pipe.SummaryFor(e)); err != nil {
		return te, err
	}
	te.ckpt, te.ckptBytes, err = hashFile(path)
	return te, err
}

func coordBytes() float64 {
	p := scrapeSelf()
	return p.family("rbb_tcp_tx_bytes_total") + p.family("rbb_tcp_rx_bytes_total")
}

// rungResult is one run of the standalone engine rung.
type rungResult struct {
	rounds int64
	wall   time.Duration
}

// engineRung steps a bare engine.State (ReleaseUniform + Commit, one core)
// from loads: rounds rounds, or with stopAt > 0 until the first legitimate
// round. Shard 0's stream makes it the S = 1 sharded run's exact
// trajectory.
func (b *bench) engineRung(loads []int32, seed uint64, rounds int64, stopAt int32) (rungResult, error) {
	var res rungResult
	freshStart()
	st, err := engine.New(loads, engine.Options{})
	if err != nil {
		return res, err
	}
	d := engine.NewDrawer(rng.NewStream(seed, 0))
	tr := b.tr
	root := tr.begin("engine.rung", -1, 0)
	start := time.Now()
	for res.rounds < rounds {
		res.rounds++
		id := tr.begin("engine.round", root, res.rounds)
		st.ReleaseUniform(d, nil)
		st.Commit()
		tr.end(id)
		b.ops++
		if stopAt > 0 && st.MaxLoad() <= stopAt {
			break
		}
	}
	res.wall = time.Since(start)
	tr.end(root)
	if stopAt > 0 && st.MaxLoad() > stopAt {
		return res, errors.New("engine rung: no legitimate round within the cap")
	}
	return res, nil
}

// putShardLayers reports the shard, local and spec layers of traced
// group episodes.
func (b *bench) putShardLayers() {
	b.putDurs("spec.make_loads_ms", "spec.make_loads")
	b.putDurs("spec.build_ms", "spec.build")
	b.putDurs("shard.release_ms", "shard.release")
	b.putDurs("shard.commit_ms", "shard.commit")
	fold := b.tr.durs("shard.fold")
	b.put("shard.fold_us", median(fold)*1e3, len(fold))
	st := &b.st
	b.put("shard.busy_ms", median(st.busyMs), len(st.busyMs))
	b.put("shard.ns_per_ball", st.busyNs/st.balls, len(st.busyMs))
	b.put("shard.released_per_round", mean(st.released), len(st.released))
	b.put("shard.exchange_balls_per_round", mean(st.exchange), len(st.exchange))
	if st.expected > 0 { // S = 1 moves nothing across shards: nothing to compare
		b.put("shard.exchange_closed_form_ratio", sumOf(st.exchange)/st.expected, len(st.exchange))
	}
	b.put("local.barrier_wait_ms", median(st.barrierMs), len(st.barrierMs))
	b.put("local.imbalance", median(st.imbalance), len(st.imbalance))
}

func (b *bench) putCheckpointLayers(te tracedEpisode) {
	b.put("checkpoint.bytes", float64(te.ckptBytes), 1)
	b.putDurs("checkpoint.gather_ms", "checkpoint.gather")
	b.putDurs("checkpoint.encode_ms", "checkpoint.encode")
	b.putDurs("checkpoint.file_ms", "checkpoint.file")
}

func sumOf(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// putDurs reports the median duration of the named spans.
func (b *bench) putDurs(metric, spanName string) {
	d := b.tr.durs(spanName)
	b.put(metric, median(d), len(d))
}
