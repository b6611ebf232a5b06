// Package adversary implements the §4.1 fault model: in designated faulty
// rounds an adversary reassigns all balls/tokens to nodes in an arbitrary
// way. The paper shows that if faults occur no more often than once every
// γn rounds (γ ≥ 6), the O(n log² n) cover-time bound survives with a
// constant-factor slowdown, because Lemma 4 confines each fault's damage to
// the following ≤ 5n rounds.
//
// A fault is a Schedule (when) paired with a Placement (where the adversary
// puts everything). RunTraversalUntilCovered runs the traversal engine
// under a fault stream.
package adversary

import (
	"errors"
	"fmt"

	"repro/internal/rng"
	"repro/internal/walks"
)

// Schedule decides which rounds are faulty.
type Schedule interface {
	// Faulty reports whether the fault fires before executing round
	// round+1 (i.e. with `round` rounds completed).
	Faulty(round int64) bool
	// Name is a short label for tables.
	Name() string
}

// Never is the fault-free schedule.
type Never struct{}

// Faulty always returns false.
func (Never) Faulty(int64) bool { return false }

// Name returns "never".
func (Never) Name() string { return "never" }

// Periodic fires every Every rounds (at rounds Every, 2·Every, ...).
type Periodic struct {
	Every int64
}

// NewPeriodic validates and builds a Periodic schedule.
func NewPeriodic(every int64) (Periodic, error) {
	if every < 1 {
		return Periodic{}, fmt.Errorf("adversary: NewPeriodic every = %d < 1", every)
	}
	return Periodic{Every: every}, nil
}

// Faulty reports round > 0 and round divisible by Every.
func (p Periodic) Faulty(round int64) bool {
	return p.Every > 0 && round > 0 && round%p.Every == 0
}

// Name returns "every-K".
func (p Periodic) Name() string { return fmt.Sprintf("every-%d", p.Every) }

// Placement produces the adversarial positions for m tokens over n nodes.
type Placement interface {
	// Positions returns a token→node assignment of length m with entries
	// in [0, n).
	Positions(n, m int, r *rng.Source) []int32
	// Name is a short label for tables.
	Name() string
}

// AllToOne concentrates every token on a single node — the harshest
// reassignment (it recreates the worst-case all-in-one configuration).
type AllToOne struct {
	Node int
}

// Positions puts every token on Node (clamped into range).
func (a AllToOne) Positions(n, m int, _ *rng.Source) []int32 {
	node := a.Node
	if node < 0 || node >= n {
		node = 0
	}
	out := make([]int32, m)
	for i := range out {
		out[i] = int32(node)
	}
	return out
}

// Name returns "all-to-one".
func (AllToOne) Name() string { return "all-to-one" }

// HalfAndHalf splits tokens between two nodes — a concentrated but
// two-front reassignment.
type HalfAndHalf struct {
	A, B int
}

// Positions places the first half on A and the rest on B (clamped).
func (h HalfAndHalf) Positions(n, m int, _ *rng.Source) []int32 {
	a, b := h.A, h.B
	if a < 0 || a >= n {
		a = 0
	}
	if b < 0 || b >= n {
		b = n - 1
	}
	out := make([]int32, m)
	for i := range out {
		if i < m/2 {
			out[i] = int32(a)
		} else {
			out[i] = int32(b)
		}
	}
	return out
}

// Name returns "half-and-half".
func (HalfAndHalf) Name() string { return "half-and-half" }

// UniformScatter re-throws every token uniformly — a benign "fault"
// baseline against which the concentrating adversaries are compared.
type UniformScatter struct{}

// Positions draws m independent uniform nodes.
func (UniformScatter) Positions(n, m int, r *rng.Source) []int32 {
	out := make([]int32, m)
	for i := range out {
		out[i] = int32(r.Intn(n))
	}
	return out
}

// Name returns "uniform-scatter".
func (UniformScatter) Name() string { return "uniform-scatter" }

// RunTraversalUntilCovered advances a traversal until parallel cover or
// maxRounds, injecting faults per the schedule. It returns the cover round,
// the number of faults injected, and whether cover completed.
func RunTraversalUntilCovered(t *walks.Traversal, sched Schedule, place Placement, maxRounds int64, r *rng.Source) (cover int64, faults int64, ok bool, err error) {
	if t == nil || sched == nil || place == nil {
		return -1, 0, false, errors.New("adversary: RunTraversalUntilCovered with nil argument")
	}
	for i := int64(0); t.CoverRound() < 0 && i < maxRounds; i++ {
		if sched.Faulty(t.Round()) {
			positions := place.Positions(t.N(), t.Tokens(), r)
			if err := t.ReassignAll(positions); err != nil {
				return -1, faults, false, err
			}
			faults++
		}
		t.Step()
	}
	return t.CoverRound(), faults, t.CoverRound() >= 0, nil
}
