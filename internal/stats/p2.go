package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// P2Quantile is an online estimator of a single quantile using the P²
// algorithm of Jain & Chlamtac (CACM 1985): five markers track the
// running minimum, the target quantile, the two intermediate quantiles
// and the running maximum, adjusted per observation with a piecewise-
// parabolic interpolation. O(1) memory and O(1) per observation — the
// streaming-observer building block that lets 10⁸-bin runs keep quantile
// summaries without per-round history.
//
// With fewer than five observations the estimate is exact (computed from
// the buffered sample); beyond that it is an approximation whose error
// vanishes as the stream grows. The zero value is not usable; create with
// NewP2Quantile.
type P2Quantile struct {
	p     float64
	count int64
	q     [5]float64 // marker heights
	n     [5]float64 // marker positions (1-based)
	np    [5]float64 // desired marker positions
	dn    [5]float64 // desired position increments
}

// NewP2Quantile returns an estimator for the p-quantile, 0 < p < 1.
func NewP2Quantile(p float64) (*P2Quantile, error) {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		return nil, fmt.Errorf("stats: NewP2Quantile p = %v outside (0, 1)", p)
	}
	return &P2Quantile{
		p:  p,
		dn: [5]float64{0, p / 2, p, (1 + p) / 2, 1},
	}, nil
}

// Add accumulates one observation.
func (e *P2Quantile) Add(x float64) {
	if e.count < 5 {
		e.q[e.count] = x
		e.count++
		if e.count == 5 {
			sort.Float64s(e.q[:])
			p := e.p
			e.n = [5]float64{1, 2, 3, 4, 5}
			e.np = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
		}
		return
	}
	e.count++
	// Locate the cell, extending the extreme markers if needed.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		k = 3
		for i := 1; i < 4; i++ {
			if x < e.q[i] {
				k = i - 1
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := range e.np {
		e.np[i] += e.dn[i]
	}
	// Adjust the three interior markers.
	for i := 1; i < 4; i++ {
		d := e.np[i] - e.n[i]
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1
			}
			q := e.parabolic(i, s)
			if !(e.q[i-1] < q && q < e.q[i+1]) {
				q = e.linear(i, s)
			}
			e.q[i] = q
			e.n[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i by d (±1).
func (e *P2Quantile) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.n[i+1]-e.n[i-1])*
		((e.n[i]-e.n[i-1]+d)*(e.q[i+1]-e.q[i])/(e.n[i+1]-e.n[i])+
			(e.n[i+1]-e.n[i]-d)*(e.q[i]-e.q[i-1])/(e.n[i]-e.n[i-1]))
}

// linear is the fallback height prediction when the parabola overshoots a
// neighboring marker.
func (e *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.n[j]-e.n[i])
}

// Quantile returns the current estimate (0 before any observation; exact
// while fewer than five observations have been seen).
func (e *P2Quantile) Quantile() float64 {
	if e.count == 0 {
		return 0
	}
	if e.count < 5 {
		buf := append([]float64(nil), e.q[:e.count]...)
		sort.Float64s(buf)
		return Quantile(buf, e.p)
	}
	return e.q[2]
}

// P2State is the complete serializable state of a P2Quantile, for
// checkpointing. While Count < 5 the first Count entries of Q hold the raw
// buffered sample and Pos/Want are meaningless; from Count = 5 on, Q/Pos/
// Want are the five marker heights, positions and desired positions. The
// struct marshals to JSON (the full marker table of the sketch, exposed by
// the service frontend's snapshot endpoint); the marker values of a live
// stream are always finite, so the encoding never hits JSON's NaN/Inf gap.
type P2State struct {
	P     float64    `json:"p"`
	Count int64      `json:"count"`
	Q     [5]float64 `json:"q"`
	Pos   [5]float64 `json:"pos"`
	Want  [5]float64 `json:"want"`
}

// State returns the estimator state for checkpointing.
func (e *P2Quantile) State() P2State {
	return P2State{P: e.p, Count: e.count, Q: e.q, Pos: e.n, Want: e.np}
}

// RestoreP2Quantile rebuilds an estimator from a state captured with State.
// A restored estimator continues the stream exactly: feeding the same
// subsequent observations to the original and the restored copy yields
// identical estimates.
func RestoreP2Quantile(st P2State) (*P2Quantile, error) {
	e, err := NewP2Quantile(st.P)
	if err != nil {
		return nil, err
	}
	if st.Count < 0 {
		return nil, fmt.Errorf("stats: RestoreP2Quantile count = %d < 0", st.Count)
	}
	for _, v := range st.Q {
		if math.IsNaN(v) {
			return nil, errors.New("stats: RestoreP2Quantile NaN marker height")
		}
	}
	e.count = st.Count
	e.q = st.Q
	if st.Count >= 5 {
		for i := 0; i < 5; i++ {
			if math.IsNaN(st.Want[i]) || math.IsInf(st.Want[i], 0) {
				return nil, errors.New("stats: RestoreP2Quantile non-finite desired position")
			}
			if i == 0 {
				continue
			}
			if !(st.Pos[i] > st.Pos[i-1]) {
				return nil, errors.New("stats: RestoreP2Quantile marker positions not increasing")
			}
			if !(st.Q[i] >= st.Q[i-1]) {
				return nil, errors.New("stats: RestoreP2Quantile marker heights not sorted")
			}
			if !(st.Want[i] > st.Want[i-1]) {
				return nil, errors.New("stats: RestoreP2Quantile desired positions not increasing")
			}
		}
		e.n = st.Pos
		e.np = st.Want
	}
	return e, nil
}
