package engine

// Stepper is the uniform round-advancing surface of every synchronous
// engine in this repository (core.Process, core.TokenProcess,
// core.ChoicesProcess, tetris.Process, walks.Traversal, shard.Process,
// shard.Tetris, the multi-process tcp.Engine, and the Jackson round
// adapter in cmd/rbb-sim). The simulation harness, the experiment suite,
// the run loop and the CLIs drive processes through this interface so that
// every workload picks up engine-level improvements for free. It carries
// only what those drivers read: a load vector is not part of it, so the
// multi-process coordinator, which holds no loads, never gathers one.
type Stepper interface {
	// Step advances one synchronous round.
	Step()
	// Round returns the number of completed rounds.
	Round() int64
	// N returns the number of bins (nodes).
	N() int
	// MaxLoad returns the current maximum bin load.
	MaxLoad() int32
	// EmptyBins returns the current number of empty bins.
	EmptyBins() int
}

// Observer receives the process after each completed round. Observers see
// the post-round state (Round() already advanced).
type Observer interface {
	Observe(s Stepper)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Stepper)

// Observe implements Observer.
func (f ObserverFunc) Observe(s Stepper) { f(s) }

// Run advances s by rounds rounds, notifying every observer after each
// round.
func Run(s Stepper, rounds int64, obs ...Observer) {
	if len(obs) == 0 {
		for i := int64(0); i < rounds; i++ {
			s.Step()
		}
		return
	}
	for i := int64(0); i < rounds; i++ {
		s.Step()
		for _, o := range obs {
			o.Observe(s)
		}
	}
}

// RunUntil steps s until pred returns true or maxRounds rounds have
// elapsed, whichever comes first, and reports whether pred was satisfied.
// pred is evaluated once before the first step (a process already
// satisfying it takes zero steps) and after each step.
func RunUntil(s Stepper, pred func(Stepper) bool, maxRounds int64) bool {
	if pred(s) {
		return true
	}
	for i := int64(0); i < maxRounds; i++ {
		s.Step()
		if pred(s) {
			return true
		}
	}
	return false
}

// WindowMax is an Observer tracking the running maximum load over the
// observed rounds — the M_T statistic of Theorem 1(a).
type WindowMax struct {
	max int32
	any bool
}

// Observe implements Observer.
func (w *WindowMax) Observe(s Stepper) {
	if m := s.MaxLoad(); !w.any || m > w.max {
		w.max = m
		w.any = true
	}
}

// Max returns the maximum observed load (0 before any observation).
func (w *WindowMax) Max() int32 { return w.max }

// State returns the accumulator state (the running maximum and whether any
// round has been observed), for checkpointing.
func (w *WindowMax) State() (max int32, any bool) { return w.max, w.any }

// SetState restores accumulator state captured with State.
func (w *WindowMax) SetState(max int32, any bool) { w.max, w.any = max, any }

// EmptyFraction is an Observer tracking the minimum and mean empty-bin
// fraction over the observed rounds — the Lemma 1–2 statistics.
type EmptyFraction struct {
	min    float64
	sum    float64
	rounds int64
}

// Observe implements Observer.
func (e *EmptyFraction) Observe(s Stepper) {
	frac := float64(s.EmptyBins()) / float64(s.N())
	if e.rounds == 0 || frac < e.min {
		e.min = frac
	}
	e.sum += frac
	e.rounds++
}

// Min returns the minimum observed empty fraction (1 before any
// observation).
func (e *EmptyFraction) Min() float64 {
	if e.rounds == 0 {
		return 1
	}
	return e.min
}

// Mean returns the mean observed empty fraction (0 before any observation).
func (e *EmptyFraction) Mean() float64 {
	if e.rounds == 0 {
		return 0
	}
	return e.sum / float64(e.rounds)
}

// State returns the accumulator state (minimum, running sum, observed
// rounds), for checkpointing.
func (e *EmptyFraction) State() (min, sum float64, rounds int64) {
	return e.min, e.sum, e.rounds
}

// SetState restores accumulator state captured with State.
func (e *EmptyFraction) SetState(min, sum float64, rounds int64) {
	e.min, e.sum, e.rounds = min, sum, rounds
}
