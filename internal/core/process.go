// Package core implements the paper's primary object: the synchronous
// repeated balls-into-bins process.
//
// Given n bins and m balls (the paper takes m = n), in every round one ball
// is extracted from each non-empty bin and re-assigned to a bin chosen
// uniformly at random (self included). With W(t) the set of non-empty bins
// and X_u uniform over [n], the exact update is
//
//	Q_v(t+1) = max(Q_v(t) − 1, 0) + |{ u ∈ W(t) : X_u(t+1) = v }|
//
// Two engines implement the same law:
//
//   - Process: anonymous loads-only engine with per-round cost proportional
//     to |W(t)| (the non-empty bins) in the sparse regime, via the shared
//     stepping layer in internal/engine. Used for max-load, empty-bin and
//     convergence experiments (E1–E3, E11, E13).
//   - TokenProcess: ball identities with pluggable queueing strategies
//     (FIFO/LIFO/Random), per-ball progress, per-visit delay and cover-time
//     tracking. Used for the traversal-flavored experiments (E9, E16).
//
// Both engines consume exactly one RNG draw per non-empty bin per round, in
// bin order, for the destination; TokenProcess draws ball selections (only
// needed by the Random strategy) from a separate source. Given identical
// destination sources, the two engines therefore produce identical load
// vectors round by round — a property the test suite exploits to verify the
// queueing-strategy obliviousness claimed by the paper (§2, footnote 2).
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/rng"
)

// Process is the anonymous repeated balls-into-bins engine. Create one with
// NewProcess; it is not safe for concurrent use.
type Process struct {
	n    int
	m    int64
	eng  *engine.State
	draw *engine.Drawer

	round int64
}

// NewProcess builds a process over a copy of the given initial
// configuration. It returns an error if loads is empty, contains a negative
// entry, or src is nil.
func NewProcess(loads []int32, src *rng.Source) (*Process, error) {
	if src == nil {
		return nil, errors.New("core: NewProcess with nil rng source")
	}
	eng, m, err := engine.NewFill(len(loads), engine.CopyFill(loads), engine.Options{})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if m > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d balls exceed int32 bin capacity", m)
	}
	return &Process{
		n:    len(loads),
		m:    m,
		eng:  eng,
		draw: engine.NewDrawer(src),
	}, nil
}

// Step advances the process by one synchronous round: every non-empty bin
// releases one ball, and every released ball lands in an independently and
// uniformly chosen bin (self included). Destinations are drawn in bin order,
// one draw per non-empty bin.
func (p *Process) Step() {
	p.eng.ReleaseUniform(p.draw, nil)
	p.eng.Commit()
	p.round++
}

// Run advances the process by k rounds.
func (p *Process) Run(k int64) {
	for i := int64(0); i < k; i++ {
		p.Step()
	}
}

// RunUntil steps until pred returns true or maxRounds steps have elapsed
// (whichever first), and reports whether pred was satisfied. pred is
// evaluated after each step (and once before the first step, so a process
// already satisfying it takes zero steps).
func (p *Process) RunUntil(pred func(*Process) bool, maxRounds int64) bool {
	if pred(p) {
		return true
	}
	for i := int64(0); i < maxRounds; i++ {
		p.Step()
		if pred(p) {
			return true
		}
	}
	return false
}

// ConvergenceTime runs the process until its maximum load drops to at most
// threshold, returning the number of rounds taken. ok is false if the bound
// was not reached within maxRounds.
func (p *Process) ConvergenceTime(threshold int32, maxRounds int64) (rounds int64, ok bool) {
	start := p.round
	reached := p.RunUntil(func(q *Process) bool { return q.MaxLoad() <= threshold }, maxRounds)
	return p.round - start, reached
}

// N returns the number of bins.
func (p *Process) N() int { return p.n }

// Balls returns the number of balls m.
func (p *Process) Balls() int64 { return p.m }

// Round returns the number of completed rounds.
func (p *Process) Round() int64 { return p.round }

// MaxLoad returns the current maximum bin load M(t).
func (p *Process) MaxLoad() int32 { return p.eng.MaxLoad() }

// EmptyBins returns the current number of empty bins.
func (p *Process) EmptyBins() int { return p.eng.EmptyBins() }

// NonEmptyBins returns |W(t)|, the current number of non-empty bins.
func (p *Process) NonEmptyBins() int { return p.eng.NonEmptyBins() }

// Load returns the load of bin u.
func (p *Process) Load(u int) int32 { return p.eng.Load(u) }

// Loads returns the live load vector. The slice is owned by the process;
// callers must not modify it and must copy it if they need it across Steps.
func (p *Process) Loads() []int32 { return p.eng.Loads() }

// LoadsCopy returns a fresh copy of the current load vector.
func (p *Process) LoadsCopy() []int32 { return p.eng.LoadsCopy() }

// SetLoads replaces the current configuration in place — the §4.1
// adversarial model, where in a faulty round an adversary reassigns all
// balls arbitrarily. The number of balls must be preserved.
func (p *Process) SetLoads(loads []int32) error {
	if len(loads) != p.n {
		return fmt.Errorf("core: SetLoads with %d bins, want %d", len(loads), p.n)
	}
	var s int64
	for i, l := range loads {
		if l < 0 {
			return fmt.Errorf("core: SetLoads bin %d negative load %d", i, l)
		}
		s += int64(l)
	}
	if s != p.m {
		return fmt.Errorf("core: SetLoads with %d balls, want %d", s, p.m)
	}
	return p.eng.Reload(loads)
}

// LoadHistogram returns counts[k] = number of bins currently holding
// exactly k balls, for k = 0..MaxLoad(). The stationary shape of this
// histogram (geometric-like tail) is what drives the O(log n) maximum.
func (p *Process) LoadHistogram() []int64 {
	counts := make([]int64, p.eng.MaxLoad()+1)
	for _, l := range p.eng.Loads() {
		counts[l]++
	}
	return counts
}

// CheckInvariants verifies ball conservation, non-negativity and the
// engine's incremental statistics; it is called by tests after arbitrary
// step sequences.
func (p *Process) CheckInvariants() error {
	if err := p.eng.CheckInvariants(); err != nil {
		return fmt.Errorf("core: round %d: %w", p.round, err)
	}
	if s := p.eng.Sum(); s != p.m {
		return fmt.Errorf("core: balls not conserved at round %d: %d != %d", p.round, s, p.m)
	}
	return nil
}
