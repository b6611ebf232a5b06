// Package rbb is a Go implementation of the self-stabilizing repeated
// balls-into-bins process of Becchetti, Clementi, Natale, Pasquale and
// Posta (SPAA 2015; Distributed Computing 2019), together with everything
// the paper's analysis and applications touch:
//
//   - the repeated balls-into-bins process itself, in a fast anonymous
//     engine (Process) and an identity-tracking engine (TokenProcess, the
//     Traversal of the complete graph) with FIFO/LIFO/Random queueing
//     strategies;
//   - the Tetris analysis process of §3.3, including the batched-arrival
//     "leaky bins" variant of Berenbrink et al. [18]: the same Process
//     under an ArrivalRule that throws a batch a round (NewTetris), with
//     the Lemma 4 first-emptying rounds recorded by an EmptyTracker;
//   - a sharded multi-core engine that executes one run data-parallel
//     across CPU cores, scaling a single run to n = 10⁷–10⁸ bins. It is
//     the same stepper as Process: NewProcess and NewTetris build its
//     one-shard form over a caller's Source, NewShardedProcess its
//     S-shard form over a seed, under the rule its ShardOptions name;
//   - the Lemma 3 coupling (Coupled) establishing pathwise domination;
//   - the Lemma 5 one-dimensional drift chain (DriftChain) with exact tail
//     computation;
//   - the §4 multi-token traversal protocol on arbitrary graphs
//     (Traversal), with queueing strategies, delay and cover-time
//     tracking and a single-token baseline;
//   - the §4.1 adversarial fault model (schedules × placements with
//     a fault-injecting traversal runner, in internal/adversary);
//   - deterministic, splittable PRNG streams (Source) so every result in
//     this repository is reproducible from a seed.
//
// # Quick start
//
//	src := rbb.NewSource(42)
//	p, err := rbb.NewProcess(rbb.OnePerBin(1024), src)
//	if err != nil { ... }
//	for i := 0; i < 10000; i++ {
//		p.Step()
//	}
//	fmt.Println(p.MaxLoad(), p.EmptyBins(), rbb.IsLegitimate(p.LoadsCopy()))
//
// The package is a thin facade: each concrete type is implemented in an
// internal package (internal/shard, internal/core, ...) and re-exported
// here by type alias, so the full method sets documented there are
// available on the aliases below. The experiment suite reproducing every
// quantitative claim of the paper lives behind RunExperiment /
// ExperimentIDs (see DESIGN.md and EXPERIMENTS.md).
package rbb

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/coupling"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/jackson"
	"repro/internal/markov"
	"repro/internal/mixing"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/walks"
)

// Source is a deterministic xoshiro256** random source. Not safe for
// concurrent use; derive per-goroutine streams with NewStreamSource or
// Source.Split.
type Source = rng.Source

// NewSource returns a Source seeded from seed.
func NewSource(seed uint64) *Source { return rng.New(seed) }

// NewStreamSource returns the stream-th independent Source for a seed; use
// it to give parallel trials non-overlapping randomness.
func NewStreamSource(seed, stream uint64) *Source { return rng.NewStream(seed, stream) }

// Process is the anonymous repeated balls-into-bins engine (the paper's
// process, §2): every round each non-empty bin releases one ball to a
// uniformly random bin. Under a batch ArrivalRule it is the Tetris
// process instead (NewTetris).
type Process = shard.Process

// NewProcess builds the sequential Process over a copy of the initial
// configuration: one shard, stepped on the calling goroutine, drawing
// from src. Its rounds write no process-wide telemetry.
func NewProcess(loads []int32, src *Source) (*Process, error) {
	return shard.NewSequential(loads, src, ArrivalRule{})
}

// ArrivalRule decides how many balls a round throws: the released ones
// under ArrivalRelaunch (the paper's process, the zero rule), ⌈λn⌉ under
// ArrivalQuota (the §3.3 Tetris process at λ = 3/4), and a Binomial(n, λ)
// or Poisson(λn) batch under ArrivalBinomial and ArrivalPoisson (leaky
// bins, [18]). A Lambda of 0 means 3/4.
type ArrivalRule = shard.ArrivalRule

// ArrivalKind selects an ArrivalRule's law.
type ArrivalKind = shard.ArrivalKind

// Arrival laws.
const (
	ArrivalRelaunch = shard.ArrivalRelaunch
	ArrivalQuota    = shard.ArrivalQuota
	ArrivalBinomial = shard.ArrivalBinomial
	ArrivalPoisson  = shard.ArrivalPoisson
)

// NewTetris builds the sequential Tetris process over a copy of the
// configuration: every non-empty bin discards one ball per round and a
// batch of fresh balls, as rule decides, arrives uniformly at random. It
// is the Process under rule — one shard, stepped on the calling
// goroutine, drawing from src — and refuses relaunch, the zero rule, which
// is NewProcess's.
func NewTetris(loads []int32, src *Source, rule ArrivalRule) (*Process, error) {
	if rule.Conserves() {
		return nil, fmt.Errorf("rbb: NewTetris under the %v rule (want quota, binomial or poisson)", rule)
	}
	return shard.NewSequential(loads, src, rule)
}

// EmptyTracker records the first round at which each bin of a Process was
// empty (Lemma 4: under the Tetris rule every bin has emptied within 5n
// rounds w.h.p.). It is an observer bound to its process: observe it
// after every round, or step through its RunUntilAllEmptied.
type EmptyTracker = shard.EmptyTracker

// NewEmptyTracker starts tracking p at its current round.
func NewEmptyTracker(p *Process) *EmptyTracker { return shard.NewEmptyTracker(p) }

// TokenProcess is the identity-tracking engine: same law as Process plus
// per-ball positions, progress, delays and cover tracking. It is the same
// type as Traversal: the token process is the traversal of the complete
// graph with self-loops.
type TokenProcess = walks.Traversal

// TokenOptions configures a TokenProcess; it is the same type as
// TraversalOptions.
type TokenOptions = walks.Options

// Strategy selects which queued ball a bin releases.
type Strategy = walks.Strategy

// Queueing strategies. The process law is oblivious to this choice
// (§2 footnote 2; verified by experiment E16).
const (
	FIFO   = walks.FIFO
	LIFO   = walks.LIFO
	Random = walks.Random
)

// NewTokenProcess builds a TokenProcess over a copy of the configuration:
// the traversal of the complete graph on len(loads) nodes.
func NewTokenProcess(loads []int32, src *Source, opts TokenOptions) (*TokenProcess, error) {
	return walks.NewTokenProcess(loads, src, opts)
}

// ChoicesProcess is the d-choices generalization (paper §1.3, citing
// [36]): each relaunched ball samples d bins and joins the least loaded.
// d = 1 is the paper's process; d ≥ 2 exhibits the power of two choices
// (experiment E18).
type ChoicesProcess = core.ChoicesProcess

// NewChoicesProcess builds a d-choices process over a copy of the
// configuration.
func NewChoicesProcess(loads []int32, d int, src *Source) (*ChoicesProcess, error) {
	return core.NewChoicesProcess(loads, d, src)
}

// ShardOptions configures the data-parallel sharded engine
// (internal/shard): Rule selects the arrival law (relaunch by default)
// and Shards the partition — and with it the random law's decomposition,
// so a run is a pure function of (seed, n, Shards, Rule) — while Workers
// (the goroutine count of the persistent affinity worker pool) only
// selects placement and never affects the trajectory.
type ShardOptions = shard.Options

// NewShardedProcess builds the Process over a copy of the configuration,
// executed across shards so a single run scales to n = 10⁷–10⁸ bins;
// shard s draws from NewStreamSource(seed, s). Under a batch opts.Rule it
// is the sharded Tetris process. Law-equivalent (not
// trajectory-equivalent) to the sequential process for Shards > 1;
// trajectory-identical to one driven by NewStreamSource(seed, 0) for
// Shards = 1.
func NewShardedProcess(loads []int32, seed uint64, opts ShardOptions) (*Process, error) {
	return shard.NewProcess(loads, seed, opts)
}

// Coupled runs the original process and Tetris on the joint probability
// space of Lemma 3, tracking pathwise domination.
type Coupled = coupling.Coupled

// NewCoupled builds a coupled run from a shared initial configuration.
func NewCoupled(loads []int32, src *Source) (*Coupled, error) {
	return coupling.New(loads, src)
}

// DriftChain is the Lemma 5 chain Z_t = max(Z_{t−1} − 1 + X_t, absorbed at
// 0) with X ~ Binomial(⌈3n/4⌉, 1/n).
type DriftChain = markov.Chain

// NewDriftChain builds the chain for a given n.
func NewDriftChain(n int) (*DriftChain, error) { return markov.NewChain(n) }

// DriftBound returns the Lemma 5 tail bound e^{−t/144} (valid for t ≥ 8k).
func DriftBound(t int64) float64 { return markov.PaperBound(t) }

// JacksonNetwork is the closed Jackson network of §1.3 — the sequential
// classical counterpart with an exact product-form stationary law.
type JacksonNetwork = jackson.Network

// NewJacksonNetwork builds a network over a copy of the configuration.
func NewJacksonNetwork(loads []int32, src *Source) (*JacksonNetwork, error) {
	return jackson.New(loads, src)
}

// JacksonStationaryMaxCDF returns the exact stationary P(max queue ≤ k)
// of the closed Jackson network (uniform over compositions).
func JacksonStationaryMaxCDF(n, m, k int) (float64, error) {
	return jackson.StationaryMaxCDF(n, m, k)
}

// Graph is the network substrate for multi-token traversal (§4, §5).
type Graph = graph.Graph

// NewCompleteGraph returns the clique with self-loops on n vertices —
// parallel walks on it are exactly the repeated balls-into-bins process.
func NewCompleteGraph(n int) (Graph, error) { return graph.NewComplete(n) }

// NewRingGraph returns the n-cycle.
func NewRingGraph(n int) (Graph, error) { return graph.NewRing(n) }

// NewTorusGraph returns the rows×cols 2-D torus.
func NewTorusGraph(rows, cols int) (Graph, error) { return graph.NewTorus(rows, cols) }

// NewHypercubeGraph returns the d-dimensional hypercube.
func NewHypercubeGraph(d int) (Graph, error) { return graph.NewHypercube(d) }

// NewRandomRegularGraph returns a uniformly random simple d-regular graph
// on n vertices (configuration model with rejection).
func NewRandomRegularGraph(n, d int, src *Source) (Graph, error) {
	return graph.NewRandomRegular(n, d, src, 2000)
}

// SpectralGap estimates 1 − λ₂ of the simple random walk on a regular
// graph (power iteration on the lazy chain; see internal/mixing). The §5
// conjecture spans graphs whose gaps range from Θ(1/n²) to Θ(1).
func SpectralGap(g Graph, iters int, src *Source) (gap, lambda2 float64, err error) {
	return mixing.SpectralGap(g, iters, src)
}

// MixingTimeTV computes the exact ε-TV mixing time of the lazy walk on a
// regular graph from a given start vertex.
func MixingTimeTV(g Graph, start int, eps float64, maxSteps int) (int, bool, error) {
	return mixing.MixingTimeTV(g, start, eps, maxSteps)
}

// Traversal is the §4 multi-token traversal engine: m tokens walking a
// graph under the one-token-per-round-per-node constraint. It is the same
// type as TokenProcess.
type Traversal = walks.Traversal

// TraversalOptions configures a Traversal; it is the same type as
// TokenOptions.
type TraversalOptions = walks.Options

// NewTraversal builds a traversal with loads[u] tokens at node u.
func NewTraversal(g Graph, loads []int32, src *Source, opts TraversalOptions) (*Traversal, error) {
	return walks.New(g, loads, src, opts)
}

// NewTraversalOnePerNode builds the canonical start with one token per
// node (m = n).
func NewTraversalOnePerNode(g Graph, src *Source, opts TraversalOptions) (*Traversal, error) {
	return walks.NewOnePerNode(g, src, opts)
}

// SingleWalkCover returns the cover time of a single random walk from
// start — the Corollary 1 baseline.
func SingleWalkCover(g Graph, start int, src *Source, maxRounds int64) (int64, bool) {
	return walks.SingleWalkCover(g, start, src, maxRounds)
}

// --- configurations -------------------------------------------------------

// OnePerBin returns the balanced configuration of n balls in n bins.
func OnePerBin(n int) []int32 { return config.OnePerBin(n) }

// AllInOne returns the worst case: all m balls in bin 0 of n bins.
func AllInOne(n, m int) []int32 { return config.AllInOne(n, m) }

// UniformRandom throws m balls u.a.r. into n bins (the classical one-shot
// configuration).
func UniformRandom(n, m int, src *Source) []int32 { return config.UniformRandom(n, m, src) }

// LegitimateThreshold returns the max load permitted in a legitimate
// configuration: ⌈beta·ln n⌉.
func LegitimateThreshold(n int, beta float64) int32 { return config.LegitimateThreshold(n, beta) }

// IsLegitimate reports whether loads is legitimate with the default
// constant (Beta = 4).
func IsLegitimate(loads []int32) bool { return config.IsLegitimate(loads) }

// Beta is the default legitimacy constant.
const Beta = config.Beta

// --- experiments ----------------------------------------------------------

// ExperimentConfig parameterizes the reproduction suite (see DESIGN.md §3).
type ExperimentConfig = experiments.Config

// ExperimentResult is one experiment's table and pass/fail shape check.
type ExperimentResult = experiments.Result

// Experiment scales.
const (
	ScaleSmall  = experiments.Small
	ScaleMedium = experiments.Medium
	ScaleLarge  = experiments.Large
)

// ExperimentIDs lists the suite in order (E01..E20).
func ExperimentIDs() []string {
	var ids []string
	for _, e := range experiments.Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// RunExperiment executes one experiment by ID.
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentResult, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	return e.Run(cfg)
}

// RunAllExperiments executes the whole suite in order.
func RunAllExperiments(cfg ExperimentConfig) ([]*ExperimentResult, error) {
	return experiments.RunAll(cfg)
}

// UnknownExperimentError reports a RunExperiment call with an ID outside
// the registry.
type UnknownExperimentError struct {
	ID string
}

// Error implements the error interface.
func (e *UnknownExperimentError) Error() string {
	return "rbb: unknown experiment " + e.ID + " (want E01..E20)"
}
