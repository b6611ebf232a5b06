package timeseries

import (
	"math"
	"testing"
)

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
