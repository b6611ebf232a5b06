// Package timeseries provides a bounded-memory recorder for per-round
// simulation observables over long windows: geometric checkpoints (the
// x-axis of the paper-shape table E11).
package timeseries

import (
	"fmt"
	"math"
)

// Checkpoints captures a value at geometrically spaced rounds
// t = start, start*factor, start*factor², ... It answers "what is M(t) at
// t = 1, 2, 4, 8, ..." with O(log T) memory.
type Checkpoints struct {
	times  []int64
	values []float64
	next   int64
	factor float64
}

// NewCheckpoints creates a recorder whose first checkpoint is at round
// start, each subsequent checkpoint at ceil(previous*factor). factor must be
// > 1 and start >= 1.
func NewCheckpoints(start int64, factor float64) (*Checkpoints, error) {
	if start < 1 {
		return nil, fmt.Errorf("timeseries: NewCheckpoints start = %d < 1", start)
	}
	if !(factor > 1) {
		return nil, fmt.Errorf("timeseries: NewCheckpoints factor = %v must be > 1", factor)
	}
	return &Checkpoints{next: start, factor: factor}, nil
}

// Observe records value if round is at or past the next checkpoint.
// Rounds must be fed in nondecreasing order.
func (c *Checkpoints) Observe(round int64, value float64) {
	if round < c.next {
		return
	}
	c.times = append(c.times, round)
	c.values = append(c.values, value)
	nxt := int64(math.Ceil(float64(c.next) * c.factor))
	if nxt <= c.next {
		nxt = c.next + 1
	}
	c.next = nxt
	// If the caller skipped far ahead, do not emit duplicates; jump the
	// schedule past the observed round.
	for c.next <= round {
		nxt = int64(math.Ceil(float64(c.next) * c.factor))
		if nxt <= c.next {
			nxt = c.next + 1
		}
		c.next = nxt
	}
}

// Times returns the recorded checkpoint rounds.
func (c *Checkpoints) Times() []int64 { return c.times }

// Values returns the recorded values, aligned with Times.
func (c *Checkpoints) Values() []float64 { return c.values }
