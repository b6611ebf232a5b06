package stats

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/rng"
)

// TestP2StateJSONRoundTrip: the full marker table survives JSON exactly,
// in both the exact-sample phase (count < 5) and the steady state, and the
// decoded state restores an estimator that continues the stream exactly.
func TestP2StateJSONRoundTrip(t *testing.T) {
	for _, feed := range []int{3, 200} {
		e, err := NewP2Quantile(0.9)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(5)
		for i := 0; i < feed; i++ {
			e.Add(float64(src.Uint64n(1000)))
		}
		st := e.State()
		blob, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var back P2State
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, back) {
			t.Fatalf("feed %d: JSON round trip not exact:\n got %+v\nwant %+v", feed, back, st)
		}
		restored, err := RestoreP2Quantile(back)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			x := float64(src.Uint64n(1000))
			e.Add(x)
			restored.Add(x)
		}
		if e.Quantile() != restored.Quantile() || e.count != restored.count {
			t.Fatalf("feed %d: restored estimator diverged: %v vs %v", feed, restored.Quantile(), e.Quantile())
		}
	}
}

func TestNewP2QuantileValidation(t *testing.T) {
	for _, p := range []float64{0, 1, -0.2, 1.5, math.NaN()} {
		if _, err := NewP2Quantile(p); err == nil {
			t.Errorf("p = %v accepted", p)
		}
	}
}

func TestP2ExactBelowFive(t *testing.T) {
	e, err := NewP2Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if e.Quantile() != 0 {
		t.Error("empty sketch not zero")
	}
	for _, x := range []float64{5, 1, 9} {
		e.Add(x)
	}
	if got := e.Quantile(); got != 5 {
		t.Errorf("median of {5,1,9} = %v, want 5", got)
	}
	if e.count != 3 {
		t.Errorf("count = %d", e.count)
	}
}

func TestP2AgainstExactQuantiles(t *testing.T) {
	src := rng.New(99)
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		e, err := NewP2Quantile(p)
		if err != nil {
			t.Fatal(err)
		}
		const n = 20000
		xs := make([]float64, n)
		for i := range xs {
			x := src.Float64()
			xs[i] = x
			e.Add(x)
		}
		sort.Float64s(xs)
		exact := Quantile(xs, p)
		if d := e.Quantile() - exact; math.Abs(d) > 0.01 {
			t.Errorf("p=%v: sketch %v, exact %v", p, e.Quantile(), exact)
		}
		if e.q[0] != xs[0] || e.q[4] != xs[n-1] {
			t.Errorf("p=%v: min/max markers drifted", p)
		}
		if e.count != n {
			t.Errorf("p=%v: count = %d", p, e.count)
		}
	}
}

func TestP2MonotoneStream(t *testing.T) {
	// A sorted integer-valued stream (the shape the max-load observer
	// feeds it in practice): the estimate must land near the target rank.
	e, err := NewP2Quantile(0.9)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		e.Add(float64(i))
	}
	if got := e.Quantile(); math.Abs(got-0.9*n) > 0.05*n {
		t.Errorf("p90 of 0..999 = %v", got)
	}
}

func TestP2ConstantStream(t *testing.T) {
	e, err := NewP2Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		e.Add(7)
	}
	if e.Quantile() != 7 || e.q[0] != 7 || e.q[4] != 7 {
		t.Errorf("constant stream: q=%v min=%v max=%v", e.Quantile(), e.q[0], e.q[4])
	}
}

// TestP2StateRoundTrip: an estimator restored mid-stream tracks the
// original exactly over any shared suffix — the property the checkpoint
// layer's observer section depends on.
func TestP2StateRoundTrip(t *testing.T) {
	for _, cut := range []int{0, 3, 5, 200} {
		e, err := NewP2Quantile(0.9)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(uint64(17 + cut))
		for i := 0; i < cut; i++ {
			e.Add(src.Float64() * 100)
		}
		r, err := RestoreP2Quantile(e.State())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if r.count != e.count || r.p != e.p || r.Quantile() != e.Quantile() {
			t.Fatalf("cut %d: restored (n=%d p=%v q=%v), want (n=%d p=%v q=%v)",
				cut, r.count, r.p, r.Quantile(), e.count, e.p, e.Quantile())
		}
		for i := 0; i < 300; i++ {
			x := src.Float64() * 100
			e.Add(x)
			r.Add(x)
			if e.Quantile() != r.Quantile() {
				t.Fatalf("cut %d: diverged after %d more observations: %v vs %v",
					cut, i+1, e.Quantile(), r.Quantile())
			}
		}
		if e.q[0] != r.q[0] || e.q[4] != r.q[4] {
			t.Fatalf("cut %d: extremes diverge", cut)
		}
	}
}

// TestRestoreP2QuantileValidation: corrupted states are rejected.
func TestRestoreP2QuantileValidation(t *testing.T) {
	e, err := NewP2Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		e.Add(float64(i))
	}
	good := e.State()
	bad := good
	bad.P = 1.5
	if _, err := RestoreP2Quantile(bad); err == nil {
		t.Error("p outside (0,1) accepted")
	}
	bad = good
	bad.Count = -1
	if _, err := RestoreP2Quantile(bad); err == nil {
		t.Error("negative count accepted")
	}
	bad = good
	bad.Q[2] = math.NaN()
	if _, err := RestoreP2Quantile(bad); err == nil {
		t.Error("NaN marker height accepted")
	}
	bad = good
	bad.Pos[1] = bad.Pos[3]
	if _, err := RestoreP2Quantile(bad); err == nil {
		t.Error("non-increasing marker positions accepted")
	}
	bad = good
	bad.Want[2] = math.NaN()
	if _, err := RestoreP2Quantile(bad); err == nil {
		t.Error("NaN desired position accepted")
	}
	bad = good
	bad.Want[3] = bad.Want[1]
	if _, err := RestoreP2Quantile(bad); err == nil {
		t.Error("non-increasing desired positions accepted")
	}
	bad = good
	bad.Q[1], bad.Q[3] = bad.Q[3], bad.Q[1]
	if bad.Q[1] != bad.Q[3] { // only meaningful if the heights actually differ
		if _, err := RestoreP2Quantile(bad); err == nil {
			t.Error("unsorted marker heights accepted")
		}
	}
	if _, err := RestoreP2Quantile(good); err != nil {
		t.Errorf("clean state rejected: %v", err)
	}
}
