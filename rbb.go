// Package rbb is a Go implementation of the self-stabilizing repeated
// balls-into-bins process of Becchetti, Clementi, Natale, Pasquale and
// Posta (SPAA 2015; Distributed Computing 2019), together with everything
// the paper's analysis and applications touch:
//
//   - the repeated balls-into-bins process itself, in a fast anonymous
//     engine (Process) and an identity-tracking engine (TokenProcess) with
//     FIFO/LIFO/Random queueing strategies;
//   - the Tetris analysis process of §3.3 (Tetris), including the
//     batched-arrival "leaky bins" variant of Berenbrink et al. [18];
//   - a sharded multi-core engine (ShardedProcess, ShardedTetris) that
//     executes one run data-parallel across CPU cores, scaling a single
//     run to n = 10⁷–10⁸ bins;
//   - the Lemma 3 coupling (Coupled) establishing pathwise domination;
//   - the Lemma 5 one-dimensional drift chain (DriftChain) with exact tail
//     computation;
//   - the §4 multi-token traversal protocol on arbitrary graphs
//     (Traversal), with cover-time tracking and a single-token baseline;
//   - the §4.1 adversarial fault model (schedules × placements with
//     fault-injecting run helpers, in internal/adversary);
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
//	fmt.Println(p.MaxLoad(), p.EmptyBins(), rbb.IsLegitimate(p.Loads()))
//
// The package is a thin facade: each concrete type is implemented in an
// internal package (internal/core, internal/tetris, ...) and re-exported
// here by type alias, so the full method sets documented there are
// available on the aliases below. The experiment suite reproducing every
// quantitative claim of the paper lives behind RunExperiment /
// ExperimentIDs (see DESIGN.md and EXPERIMENTS.md).
package rbb

import (
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
	"repro/internal/tetris"
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
// uniformly random bin.
type Process = core.Process

// NewProcess builds a Process over a copy of the initial configuration.
func NewProcess(loads []int32, src *Source) (*Process, error) {
	return core.NewProcess(loads, src)
}

// TokenProcess is the identity-tracking engine: same law as Process plus
// per-ball positions, progress, delays and cover tracking.
type TokenProcess = core.TokenProcess

// TokenOptions configures a TokenProcess.
type TokenOptions = core.TokenOptions

// Strategy selects which queued ball a bin releases.
type Strategy = core.Strategy

// Queueing strategies. The process law is oblivious to this choice
// (§2 footnote 2; verified by experiment E16).
const (
	FIFO   = core.FIFO
	LIFO   = core.LIFO
	Random = core.Random
)

// NewTokenProcess builds a TokenProcess over a copy of the configuration.
func NewTokenProcess(loads []int32, src *Source, opts TokenOptions) (*TokenProcess, error) {
	return core.NewTokenProcess(loads, src, opts)
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

// Tetris is the §3.3 analysis process: every non-empty bin discards one
// ball per round and ⌈3n/4⌉ fresh balls (or a Binomial/Poisson batch)
// arrive uniformly at random.
type Tetris = tetris.Process

// TetrisOptions configures arrivals for a Tetris process.
type TetrisOptions = tetris.Options

// Arrival laws for Tetris.
const (
	DeterministicArrivals = tetris.Deterministic
	BinomialArrivals      = tetris.BinomialArrivals
	PoissonArrivals       = tetris.PoissonArrivals
)

// NewTetris builds a Tetris process over a copy of the configuration.
func NewTetris(loads []int32, src *Source, opts TetrisOptions) (*Tetris, error) {
	return tetris.New(loads, src, opts)
}

// ShardOptions configures the data-parallel sharded engine
// (internal/shard): Shards selects the partition — and with it the random
// law's decomposition, so a run is a pure function of (seed, n, Shards) —
// while Workers (the goroutine count of the persistent affinity worker
// pool) only selects placement and never affects the trajectory.
type ShardOptions = shard.Options

// ShardedProcess is the data-parallel repeated balls-into-bins engine: the
// same law as Process, executed across shards so a single run scales to
// n = 10⁷–10⁸ bins. Law-equivalent (not trajectory-equivalent) to Process
// for Shards > 1; trajectory-identical to a Process driven by
// NewStreamSource(seed, 0) for Shards = 1.
type ShardedProcess = shard.Process

// NewShardedProcess builds a sharded process over a copy of the
// configuration; shard s draws from NewStreamSource(seed, s).
func NewShardedProcess(loads []int32, seed uint64, opts ShardOptions) (*ShardedProcess, error) {
	return shard.NewProcess(loads, seed, opts)
}

// ShardedTetris is the data-parallel Tetris / leaky-bins engine: the batch
// of arrivals is decomposed exactly across shards (fixed quotas, or
// per-shard Binomial/Poisson draws whose sums recover the sequential law).
type ShardedTetris = shard.Tetris

// ShardedTetrisOptions configures a ShardedTetris.
type ShardedTetrisOptions = shard.TetrisOptions

// NewShardedTetris builds a sharded Tetris process over a copy of the
// configuration.
func NewShardedTetris(loads []int32, seed uint64, opts ShardedTetrisOptions) (*ShardedTetris, error) {
	return shard.NewTetris(loads, seed, opts)
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
// graph under the one-token-per-round-per-node constraint.
type Traversal = walks.Traversal

// TraversalOptions configures a Traversal.
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
