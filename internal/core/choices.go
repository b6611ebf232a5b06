// Package core holds the d-choices variant of the paper's process and the
// process's exact law on tiny systems.
//
// Given n bins and m balls (the paper takes m = n), in every round one ball
// is extracted from each non-empty bin and re-assigned to a bin chosen
// uniformly at random (self included). With W(t) the set of non-empty bins
// and X_u uniform over [n], the exact update is
//
//	Q_v(t+1) = max(Q_v(t) − 1, 0) + |{ u ∈ W(t) : X_u(t+1) = v }|
//
// The anonymous loads-only engine of that law is shard.Process
// (shard.NewSequential builds the sequential one), used for the max-load,
// empty-bin and convergence experiments (E1–E3, E11, E13); the token
// process, with ball identities, queueing strategies, delays and cover,
// is walks.NewTokenProcess (E9, E16). This package holds:
//
//   - ChoicesProcess: the d-choices generalization, where each relaunched
//     ball joins the least loaded of d sampled bins (E18).
//   - EnumerateArrivals: the exact enumeration of every realization of a
//     few rounds, behind the Appendix B reproduction (E12).
package core

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/rng"
)

// ChoicesProcess is the d-choices generalization of the repeated
// balls-into-bins process discussed in the paper's related work (§1.3,
// citing Czumaj & Stemann [36]): every round each non-empty bin releases
// one ball, and each released ball samples d bins independently and
// uniformly at random and joins the least loaded of them.
//
// Loads are compared against the post-departure, pre-arrival snapshot of
// the round (all departures are simultaneous, then all balls choose, then
// all arrivals land), which keeps the process synchronous and well-defined;
// ties go to the first-sampled bin. d = 1 is exactly the paper's process.
//
// The "power of two choices" effect carries over from the one-shot setting:
// experiment E18 shows the stationary maximum load collapses from Θ(log n)
// at d = 1 to a small constant for d ≥ 2.
type ChoicesProcess struct {
	n   int
	d   int
	m   int64
	eng *engine.State
	src *rng.Source

	round int64
}

// NewChoicesProcess builds a d-choices process over a copy of the initial
// configuration. d must be ≥ 1.
func NewChoicesProcess(loads []int32, d int, src *rng.Source) (*ChoicesProcess, error) {
	n := len(loads)
	if n < 1 {
		return nil, errors.New("core: NewChoicesProcess with no bins")
	}
	if d < 1 {
		return nil, fmt.Errorf("core: NewChoicesProcess with d = %d < 1", d)
	}
	if src == nil {
		return nil, errors.New("core: NewChoicesProcess with nil rng source")
	}
	eng, m, err := engine.NewFill(n, engine.CopyFill(loads), engine.Options{})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &ChoicesProcess{
		n:   n,
		d:   d,
		m:   m,
		eng: eng,
		src: src,
	}, nil
}

// Step advances one synchronous round: simultaneous departures, then every
// released ball samples d candidate bins against the post-departure
// snapshot and joins the least loaded, then all arrivals merge. All d
// draws for one ball precede the next ball's draws, balls in released-bin
// order — the same draw sequence as a dense scan.
func (p *ChoicesProcess) Step() {
	n := p.n
	departures := p.eng.ReleaseEach(nil)
	d := p.d
	for i := 0; i < departures; i++ {
		best := p.src.Intn(n)
		bestLoad := p.eng.Load(best)
		for j := 1; j < d; j++ {
			c := p.src.Intn(n)
			if l := p.eng.Load(c); l < bestLoad {
				best, bestLoad = c, l
			}
		}
		p.eng.Deposit(best)
	}
	p.eng.Commit()
	p.round++
}

// Run advances the process by k rounds.
func (p *ChoicesProcess) Run(k int64) {
	for i := int64(0); i < k; i++ {
		p.Step()
	}
}

// N returns the number of bins.
func (p *ChoicesProcess) N() int { return p.n }

// Choices returns d.
func (p *ChoicesProcess) Choices() int { return p.d }

// Balls returns the number of balls.
func (p *ChoicesProcess) Balls() int64 { return p.m }

// Round returns the number of completed rounds.
func (p *ChoicesProcess) Round() int64 { return p.round }

// MaxLoad returns the current maximum bin load.
func (p *ChoicesProcess) MaxLoad() int32 { return p.eng.MaxLoad() }

// EmptyBins returns the current number of empty bins.
func (p *ChoicesProcess) EmptyBins() int { return p.eng.EmptyBins() }

// NonEmptyBins returns |W(t)|, the current number of non-empty bins.
func (p *ChoicesProcess) NonEmptyBins() int { return p.eng.NonEmptyBins() }

// Load returns the load of bin u.
func (p *ChoicesProcess) Load(u int) int32 { return p.eng.Load(u) }

// LoadsCopy returns a fresh copy of the load vector.
func (p *ChoicesProcess) LoadsCopy() []int32 { return p.eng.LoadsCopy() }

// CheckInvariants verifies ball conservation and the engine statistics.
func (p *ChoicesProcess) CheckInvariants() error {
	if err := p.eng.CheckInvariants(); err != nil {
		return fmt.Errorf("core: choices: %w", err)
	}
	if s := p.eng.Sum(); s != p.m {
		return fmt.Errorf("core: choices balls not conserved: %d != %d", s, p.m)
	}
	return nil
}
