package timeseries

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// MaxTracker keeps the running maximum of a series and the first time the
// maximum was attained.
type MaxTracker struct {
	max     float64
	atRound int64
	n       int64
}

// Observe records value at round.
func (m *MaxTracker) Observe(round int64, value float64) {
	if m.n == 0 || value > m.max {
		m.max = value
		m.atRound = round
	}
	m.n++
}

// Max returns the running maximum (0 if nothing observed).
func (m *MaxTracker) Max() float64 { return m.max }

// ArgMax returns the first round at which the maximum was attained.
func (m *MaxTracker) ArgMax() int64 { return m.atRound }

// N returns the number of observations.
func (m *MaxTracker) N() int64 { return m.n }

func TestMaxTracker(t *testing.T) {
	var m MaxTracker
	if m.Max() != 0 || m.N() != 0 {
		t.Fatal("zero value should report 0")
	}
	m.Observe(1, 5)
	m.Observe(2, 3)
	m.Observe(3, 9)
	m.Observe(4, 9)
	if m.Max() != 9 {
		t.Errorf("max = %v", m.Max())
	}
	if m.ArgMax() != 3 {
		t.Errorf("argmax = %d, want first attainment 3", m.ArgMax())
	}
	if m.N() != 4 {
		t.Errorf("n = %d", m.N())
	}
}

func TestMaxTrackerNegative(t *testing.T) {
	var m MaxTracker
	m.Observe(0, -5)
	m.Observe(1, -7)
	if m.Max() != -5 {
		t.Errorf("max of negatives = %v, want -5", m.Max())
	}
}

func TestCheckpointsDoubling(t *testing.T) {
	c, err := NewCheckpoints(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(1); r <= 100; r++ {
		c.Observe(r, float64(r*10))
	}
	wantTimes := []int64{1, 2, 4, 8, 16, 32, 64}
	if len(c.Times()) != len(wantTimes) {
		t.Fatalf("times = %v", c.Times())
	}
	for i, w := range wantTimes {
		if c.Times()[i] != w {
			t.Fatalf("times = %v, want %v", c.Times(), wantTimes)
		}
		if c.Values()[i] != float64(w*10) {
			t.Fatalf("value at %d = %v", w, c.Values()[i])
		}
	}
	if len(c.Times()) != 7 {
		t.Fatalf("len = %d", len(c.Times()))
	}
}

func TestCheckpointsSkippedRounds(t *testing.T) {
	c, err := NewCheckpoints(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Jump straight to round 50: one checkpoint recorded, schedule jumps
	// past 50.
	c.Observe(50, 1)
	if len(c.Times()) != 1 || c.Times()[0] != 50 {
		t.Fatalf("times = %v", c.Times())
	}
	c.Observe(51, 2)
	if len(c.Times()) != 1 {
		t.Fatalf("checkpoint fired too soon: %v", c.Times())
	}
	c.Observe(64, 3)
	if len(c.Times()) != 2 || c.Times()[1] != 64 {
		t.Fatalf("times = %v", c.Times())
	}
}

func TestCheckpointsFractionalFactor(t *testing.T) {
	c, err := NewCheckpoints(10, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(1); r <= 60; r++ {
		c.Observe(r, 0)
	}
	want := []int64{10, 15, 23, 35, 53}
	got := c.Times()
	if len(got) != len(want) {
		t.Fatalf("times = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("times = %v, want %v", got, want)
		}
	}
}

func TestCheckpointsValidation(t *testing.T) {
	if _, err := NewCheckpoints(0, 2); err == nil {
		t.Error("start 0 should error")
	}
	if _, err := NewCheckpoints(1, 1); err == nil {
		t.Error("factor 1 should error")
	}
	if _, err := NewCheckpoints(1, math.NaN()); err == nil {
		t.Error("NaN factor should error")
	}
}

// Reducer combines two adjacent samples during decimation.
type Reducer func(a, b float64) float64

// MaxReduce keeps the larger sample (right for load maxima).
func MaxReduce(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// MeanReduce averages the two samples (right for fractions/rates).
func MeanReduce(a, b float64) float64 { return (a + b) / 2 }

// Decimator records a series of unknown length into a fixed budget of
// samples. When the buffer fills, resolution halves: adjacent pairs are
// combined with the Reducer and the stride doubles. The result is a uniform
// subsampling at stride 2^k with at most capacity points.
type Decimator struct {
	samples []float64
	cap     int
	stride  int64
	// pending accumulates the current stride window.
	pending      float64
	pendingCount int64
	reduce       Reducer
	total        int64
}

// NewDecimator creates a Decimator holding at most capacity samples
// (capacity must be an even number >= 2).
func NewDecimator(capacity int, reduce Reducer) (*Decimator, error) {
	if capacity < 2 || capacity%2 != 0 {
		return nil, fmt.Errorf("timeseries: NewDecimator capacity %d must be even and >= 2", capacity)
	}
	if reduce == nil {
		return nil, fmt.Errorf("timeseries: NewDecimator nil reducer")
	}
	return &Decimator{
		samples: make([]float64, 0, capacity),
		cap:     capacity,
		stride:  1,
		reduce:  reduce,
	}, nil
}

// Observe appends one sample.
func (d *Decimator) Observe(value float64) {
	d.total++
	if d.pendingCount == 0 {
		d.pending = value
	} else {
		d.pending = d.reduce(d.pending, value)
	}
	d.pendingCount++
	if d.pendingCount < d.stride {
		return
	}
	d.samples = append(d.samples, d.pending)
	d.pendingCount = 0
	if len(d.samples) == d.cap {
		// Halve resolution.
		half := d.samples[:0]
		for i := 0; i+1 < d.cap; i += 2 {
			half = append(half, d.reduce(d.samples[i], d.samples[i+1]))
		}
		d.samples = half
		d.stride *= 2
	}
}

// Samples returns the decimated series (window aggregates at stride
// Stride(), plus any complete windows since the last halving). The partial
// trailing window, if any, is not included.
func (d *Decimator) Samples() []float64 { return d.samples }

// Stride returns the number of raw observations represented by each sample.
func (d *Decimator) Stride() int64 { return d.stride }

// Total returns the number of raw observations seen.
func (d *Decimator) Total() int64 { return d.total }

func TestDecimatorNoOverflow(t *testing.T) {
	d, err := NewDecimator(8, MaxReduce)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		d.Observe(float64(i))
	}
	if d.Stride() != 1 {
		t.Fatalf("stride = %d", d.Stride())
	}
	got := d.Samples()
	if len(got) != 5 || got[4] != 5 {
		t.Fatalf("samples = %v", got)
	}
}

func TestDecimatorHalving(t *testing.T) {
	d, err := NewDecimator(4, MaxReduce)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		d.Observe(float64(i))
	}
	// After 4 samples {1,2,3,4} buffer is full -> halve to {2,4} stride 2.
	// Samples 5,6 -> window max 6; 7,8 -> window max 8. Buffer {2,4,6,8}
	// full again -> halve to {4,8} stride 4.
	if d.Stride() != 4 {
		t.Fatalf("stride = %d", d.Stride())
	}
	got := d.Samples()
	if len(got) != 2 || got[0] != 4 || got[1] != 8 {
		t.Fatalf("samples = %v", got)
	}
	if d.Total() != 8 {
		t.Fatalf("total = %d", d.Total())
	}
}

func TestDecimatorMeanReduce(t *testing.T) {
	d, err := NewDecimator(2, MeanReduce)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		d.Observe(float64(i)) // 0,1,2,3
	}
	// {0,1} full -> {0.5} stride 2; then window {2,3} -> mean 2.5 -> full
	// {0.5,2.5} -> halve to {1.5} stride 4.
	got := d.Samples()
	if len(got) != 1 || got[0] != 1.5 {
		t.Fatalf("samples = %v, stride %d", got, d.Stride())
	}
}

func TestDecimatorMaxPreserved(t *testing.T) {
	// Property: with MaxReduce, the max over Samples() equals the max of
	// all complete-window observations (the global max is preserved as long
	// as it does not sit in the trailing partial window).
	if err := quick.Check(func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		d, err := NewDecimator(8, MaxReduce)
		if err != nil {
			return false
		}
		for _, v := range raw {
			d.Observe(float64(v))
		}
		complete := int64(len(raw)) - int64(len(raw))%d.Stride()
		var want float64 = -1
		for _, v := range raw[:complete] {
			if float64(v) > want {
				want = float64(v)
			}
		}
		if complete == 0 {
			return len(d.Samples()) == 0
		}
		var got float64 = -1
		for _, v := range d.Samples() {
			if v > got {
				got = v
			}
		}
		return got == want
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecimatorValidation(t *testing.T) {
	if _, err := NewDecimator(3, MaxReduce); err == nil {
		t.Error("odd capacity should error")
	}
	if _, err := NewDecimator(0, MaxReduce); err == nil {
		t.Error("zero capacity should error")
	}
	if _, err := NewDecimator(4, nil); err == nil {
		t.Error("nil reducer should error")
	}
}
