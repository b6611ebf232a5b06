// Package tetris names the arrival laws of the Tetris process of §3.3 —
// the analysis device the paper couples with the original process — and
// of the batched-arrival ("leaky bins") probabilistic variant studied by
// Berenbrink et al. (PODC 2016), cited as [18]. The stepper is
// shard.Tetris: shard.NewSequentialTetris builds the sequential process
// from an ArrivalLaw and Options, and shard.RuleForLaw maps a law to the
// arrival rule a sharded round executes.
//
// Starting from any configuration, in each round:
//
//   - every non-empty bin discards one ball, and
//   - K new balls are thrown, each independently and uniformly at random.
//
// In the paper's Tetris process K is exactly (3/4)n per round; for n not
// divisible by 4 this implementation uses K = ⌈3n/4⌉, which is conservative
// for every use in this repository (more arrivals ⇒ the dominating process
// only gets larger, so upper-bound experiments remain upper bounds). In the
// leaky-bins variant K is Binomial(n, λ) or Poisson(λn), freshly sampled
// each round.
//
// Unlike the original process, arrivals in different rounds are i.i.d. —
// this is the property that makes Tetris analyzable (Lemma 4–6) and the
// reason its per-bin load is exactly the Markov chain of Lemma 5
// (see package markov).
package tetris

import "fmt"

// ArrivalLaw selects how the number of new balls per round is drawn.
type ArrivalLaw uint8

const (
	// Deterministic throws exactly ⌈λ·n⌉ balls per round — λ = 3/4 gives
	// the paper's Tetris process.
	Deterministic ArrivalLaw = iota
	// BinomialArrivals throws Binomial(n, λ) balls per round (leaky bins,
	// [18]).
	BinomialArrivals
	// PoissonArrivals throws Poisson(λ·n) balls per round.
	PoissonArrivals
)

// String returns the law name.
func (l ArrivalLaw) String() string {
	switch l {
	case Deterministic:
		return "deterministic"
	case BinomialArrivals:
		return "binomial"
	case PoissonArrivals:
		return "poisson"
	default:
		return fmt.Sprintf("law(%d)", uint8(l))
	}
}

// Options configures a Tetris process's arrivals
// (shard.NewSequentialTetris).
type Options struct {
	// Law is the arrival law (default Deterministic).
	Law ArrivalLaw
	// Lambda is the arrival rate per bin; 0 means the paper's 3/4.
	Lambda float64
}
