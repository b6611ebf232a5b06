// Package tetris implements the Tetris process of §3.3 — the analysis
// device the paper couples with the original process — plus the
// batched-arrival ("leaky bins") probabilistic variant studied by
// Berenbrink et al. (PODC 2016), cited as [18].
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

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/rng"
)

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

// Options configures a Process.
type Options struct {
	// Law is the arrival law (default Deterministic).
	Law ArrivalLaw
	// Lambda is the arrival rate per bin; 0 means the paper's 3/4.
	Lambda float64
}

// Process is a Tetris process instance. Create one with New; not safe for
// concurrent use.
type Process struct {
	n   int
	eng *engine.State
	src *rng.Source

	law    ArrivalLaw
	lambda float64
	fixedK int
	binom  *dist.Binomial
	pois   *dist.Poisson

	round int64
	balls int64

	// firstEmpty[u] is the first round at which bin u was empty (0 if it
	// started empty), or −1 if it has never been empty. Drives the Lemma 4
	// experiment. Maintained by the stepping layer's OnEmptied hook, which
	// fires exactly when a bin releases to zero and receives no arrival —
	// the same post-merge emptiness the dense scan used to observe.
	firstEmpty   []int64
	neverEmptied int
}

// New builds a Tetris process over a copy of the initial configuration.
func New(loads []int32, src *rng.Source, opts Options) (*Process, error) {
	n := len(loads)
	if n < 1 {
		return nil, errors.New("tetris: New with no bins")
	}
	if src == nil {
		return nil, errors.New("tetris: New with nil rng source")
	}
	lambda := opts.Lambda
	if lambda == 0 {
		lambda = 0.75
	}
	if lambda < 0 || lambda > 1 || math.IsNaN(lambda) {
		return nil, fmt.Errorf("tetris: lambda = %v outside (0, 1]", opts.Lambda)
	}
	p := &Process{
		n:          n,
		src:        src,
		law:        opts.Law,
		lambda:     lambda,
		firstEmpty: make([]int64, n),
	}
	eng, balls, err := engine.NewFill(n, engine.CopyFill(loads), engine.Options{OnEmptied: p.markEmptied})
	if err != nil {
		return nil, fmt.Errorf("tetris: %w", err)
	}
	p.eng, p.balls = eng, balls
	for i, l := range loads {
		if l == 0 {
			p.firstEmpty[i] = 0
		} else {
			p.firstEmpty[i] = -1
			p.neverEmptied++
		}
	}
	switch opts.Law {
	case Deterministic:
		p.fixedK = int(math.Ceil(lambda * float64(n)))
	case BinomialArrivals:
		b, err := dist.NewBinomial(n, lambda)
		if err != nil {
			return nil, err
		}
		p.binom = b
	case PoissonArrivals:
		ps, err := dist.NewPoisson(lambda * float64(n))
		if err != nil {
			return nil, err
		}
		p.pois = ps
	default:
		return nil, fmt.Errorf("tetris: unknown arrival law %v", opts.Law)
	}
	return p, nil
}

// markEmptied records the first round at which a bin is observed empty
// after arrivals merge; the stepping layer invokes it from Commit.
func (p *Process) markEmptied(u int) {
	if p.firstEmpty[u] < 0 {
		p.firstEmpty[u] = p.round + 1
		p.neverEmptied--
	}
}

// arrivalsCount draws the number of new balls for the next round.
func (p *Process) arrivalsCount() int {
	switch p.law {
	case BinomialArrivals:
		return p.binom.Sample(p.src)
	case PoissonArrivals:
		return p.pois.Sample(p.src)
	default:
		return p.fixedK
	}
}

// Step advances one round: every non-empty bin discards one ball, then K
// fresh balls land uniformly at random. Departures consume no randomness;
// the K destination draws (preceded by the batch-size draw under the
// Binomial/Poisson laws) happen after all departures, as in the paper.
func (p *Process) Step() {
	removed := int64(p.eng.ReleaseEach(nil))
	k := p.arrivalsCount()
	p.eng.ThrowUniform(p.src, k)
	p.eng.Commit()
	p.balls += int64(k) - removed
	p.round++
}

// Run advances the process by k rounds.
func (p *Process) Run(k int64) {
	for i := int64(0); i < k; i++ {
		p.Step()
	}
}

// N returns the number of bins.
func (p *Process) N() int { return p.n }

// Round returns the number of completed rounds.
func (p *Process) Round() int64 { return p.round }

// MaxLoad returns the current maximum bin load M̂(t).
func (p *Process) MaxLoad() int32 { return p.eng.MaxLoad() }

// EmptyBins returns the current number of empty bins.
func (p *Process) EmptyBins() int { return p.eng.EmptyBins() }

// NonEmptyBins returns the current number of non-empty bins.
func (p *Process) NonEmptyBins() int { return p.eng.NonEmptyBins() }

// Balls returns the current total number of balls in the system (Tetris
// does not conserve balls).
func (p *Process) Balls() int64 { return p.balls }

// Load returns the load of bin u.
func (p *Process) Load(u int) int32 { return p.eng.Load(u) }

// LoadsCopy returns a fresh copy of the load vector.
func (p *Process) LoadsCopy() []int32 { return p.eng.LoadsCopy() }

// FirstEmptyRound returns the first round at which bin u was empty, or −1
// if it has not emptied yet.
func (p *Process) FirstEmptyRound(u int) int64 { return p.firstEmpty[u] }

// AllEmptiedRound returns the first round by which every bin had been empty
// at least once, or −1 if some bin has never emptied. Lemma 4: from any
// start this is at most 5n w.h.p.
func (p *Process) AllEmptiedRound() (int64, bool) {
	if p.neverEmptied > 0 {
		return -1, false
	}
	var worst int64
	for _, r := range p.firstEmpty {
		if r > worst {
			worst = r
		}
	}
	return worst, true
}

// RunUntilAllEmptied steps until every bin has been empty at least once or
// maxRounds elapse.
func (p *Process) RunUntilAllEmptied(maxRounds int64) (int64, bool) {
	for i := int64(0); p.neverEmptied > 0 && i < maxRounds; i++ {
		p.Step()
	}
	return p.AllEmptiedRound()
}

// CheckInvariants verifies non-negative loads, the engine statistics and
// the ball counter.
func (p *Process) CheckInvariants() error {
	if err := p.eng.CheckInvariants(); err != nil {
		return fmt.Errorf("tetris: %w", err)
	}
	if s := p.eng.Sum(); s != p.balls {
		return fmt.Errorf("tetris: ball counter %d != actual %d", p.balls, s)
	}
	return nil
}
