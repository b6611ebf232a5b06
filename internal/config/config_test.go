package config

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// Sum returns the total number of balls in loads.
func Sum(loads []int32) int64 {
	var s int64
	for _, l := range loads {
		s += int64(l)
	}
	return s
}

// CountEmpty returns the number of zero-load bins.
func CountEmpty(loads []int32) int {
	c := 0
	for _, l := range loads {
		if l == 0 {
			c++
		}
	}
	return c
}

// Validate checks that loads is a well-formed configuration of m balls:
// non-negative entries summing to m.
func Validate(loads []int32, m int) error {
	var s int64
	for i, l := range loads {
		if l < 0 {
			return fmt.Errorf("config: bin %d has negative load %d", i, l)
		}
		s += int64(l)
	}
	if s != int64(m) {
		return fmt.Errorf("config: loads sum to %d, want %d", s, m)
	}
	return nil
}

func TestLegitimateThreshold(t *testing.T) {
	if LegitimateThreshold(1, 4) != 1 {
		t.Error("n=1 threshold should be 1")
	}
	n := 1024
	want := int32(math.Ceil(4 * math.Log(1024)))
	if got := LegitimateThreshold(n, 4); got != want {
		t.Errorf("threshold(1024) = %d, want %d", got, want)
	}
}

func TestIsLegitimate(t *testing.T) {
	n := 256
	if !IsLegitimate(OnePerBin(n)) {
		t.Error("one-per-bin must be legitimate")
	}
	if IsLegitimate(AllInOne(n, n)) {
		t.Error("all-in-one must be illegitimate for n=256")
	}
}

func TestMaxLoadSumEmpty(t *testing.T) {
	loads := []int32{0, 3, 1, 0, 5}
	if MaxLoad(loads) != 5 {
		t.Error("MaxLoad wrong")
	}
	if Sum(loads) != 9 {
		t.Error("Sum wrong")
	}
	if CountEmpty(loads) != 2 {
		t.Error("CountEmpty wrong")
	}
	if MaxLoad(nil) != 0 || Sum(nil) != 0 || CountEmpty(nil) != 0 {
		t.Error("empty slice handling wrong")
	}
}

func TestValidate(t *testing.T) {
	if err := Validate([]int32{1, 2, 3}, 6); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := Validate([]int32{1, 2, 3}, 7); err == nil {
		t.Error("wrong sum accepted")
	}
	if err := Validate([]int32{1, -1, 3}, 3); err == nil {
		t.Error("negative load accepted")
	}
}

func TestOnePerBin(t *testing.T) {
	loads := OnePerBin(100)
	if err := Validate(loads, 100); err != nil {
		t.Fatal(err)
	}
	if MaxLoad(loads) != 1 || CountEmpty(loads) != 0 {
		t.Error("one-per-bin shape wrong")
	}
}

func TestAllInOne(t *testing.T) {
	loads := AllInOne(50, 200)
	if err := Validate(loads, 200); err != nil {
		t.Fatal(err)
	}
	if loads[0] != 200 || CountEmpty(loads) != 49 {
		t.Error("all-in-one shape wrong")
	}
}

func TestUniformRandom(t *testing.T) {
	r := rng.New(1)
	loads := UniformRandom(1000, 1000, r)
	if err := Validate(loads, 1000); err != nil {
		t.Fatal(err)
	}
	// Classical one-shot max load for n=1000 is ~O(ln n / ln ln n) ≈ 3-7;
	// anything above 15 would be essentially impossible.
	if m := MaxLoad(loads); m > 15 || m < 2 {
		t.Errorf("uniform max load = %d, implausible", m)
	}
}

func TestZipfSkewedMax(t *testing.T) {
	r := rng.New(2)
	loads, err := Zipf(1000, 1000, 1.5, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(loads, 1000); err != nil {
		t.Fatal(err)
	}
	if MaxLoad(loads) < 50 {
		t.Errorf("Zipf(1.5) max load = %d, expected heavy head", MaxLoad(loads))
	}
}

func TestMake(t *testing.T) {
	r := rng.New(3)
	for _, g := range Generators() {
		n, m := 64, 64
		loads, err := Make(g, n, m, r)
		if err != nil {
			t.Fatalf("Make(%s): %v", g, err)
		}
		if err := Validate(loads, m); err != nil {
			t.Fatalf("Make(%s) invalid: %v", g, err)
		}
	}
}

func TestMakeErrors(t *testing.T) {
	r := rng.New(4)
	if _, err := Make("bogus", 8, 8, r); err == nil {
		t.Error("unknown generator accepted")
	}
	if _, err := Make(GenOnePerBin, 8, 9, r); err == nil {
		t.Error("one-per-bin with m != n accepted")
	}
	if _, err := Make(GenUniform, 8, 8, nil); err == nil {
		t.Error("uniform without rng accepted")
	}
	if _, err := Make(GenAllInOne, 0, 0, nil); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Make(GenAllInOne, 4, -1, nil); err == nil {
		t.Error("m<0 accepted")
	}
}

// TestStartFillMatchesMake: every range of every generator's Start holds
// the same loads as that slice of Make at the same seed — ranges that
// start at bin 0, ranges that end at the last bin, single bins, empty
// ranges and the whole run — so a run built range by range starts from
// Make's configuration however it is partitioned.
func TestStartFillMatchesMake(t *testing.T) {
	const seed = 17
	for _, g := range Generators() {
		for _, nm := range [][2]int{{1, 1}, {7, 7}, {64, 64}, {1000, 1000}, {20011, 20011}, {300, 900}, {50, 0}} {
			n, m := nm[0], nm[1]
			if g == GenOnePerBin && m != n {
				continue
			}
			want, err := Make(g, n, m, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(want, m); err != nil {
				t.Fatalf("%s n=%d m=%d: %v", g, n, m, err)
			}
			st, err := NewStart(g, n, m, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			ranges := [][2]int{{0, n}, {0, 0}, {n, n}, {0, 1}, {n - 1, n}, {0, n / 2}, {n / 2, n}, {n / 3, 2 * n / 3}}
			for s := 1; s <= 8 && s <= n; s++ { // every shard of the partitions into 1..8 shards
				q, r := n/s, n%s
				for i := 0; i < s; i++ {
					lo := i*q + min(i, r)
					hi := lo + q
					if i < r {
						hi++
					}
					ranges = append(ranges, [2]int{lo, hi})
				}
			}
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				got := make([]int32, hi-lo)
				for i := range got {
					got[i] = -7 // Fill must overwrite every cell
				}
				st.Fill(lo, got)
				if !slices.Equal(got, want[lo:hi]) {
					t.Fatalf("%s n=%d m=%d: Fill(%d, [%d bins]) differs from Make's slice", g, n, m, lo, hi-lo)
				}
			}
			whole := make([]int32, n)
			st.Fill(0, whole)
			if Sum(whole) != int64(m) || CountEmpty(whole) != CountEmpty(want) {
				t.Fatalf("%s n=%d m=%d: whole-range Fill holds %d balls in %d empty bins", g, n, m, Sum(whole), CountEmpty(whole))
			}
		}
	}
}

// TestNewStartErrors: NewStart refuses what Make refuses, with Make's
// errors.
func TestNewStartErrors(t *testing.T) {
	for _, tc := range []struct {
		g    Generator
		n, m int
		r    *rng.Source
	}{
		{"bogus", 8, 8, rng.New(1)},
		{GenOnePerBin, 8, 9, nil},
		{GenUniform, 8, 8, nil},
		{GenZipf, 8, 8, nil},
		{GenAllInOne, 0, 0, nil},
		{GenAllInOne, 4, -1, nil},
	} {
		_, serr := NewStart(tc.g, tc.n, tc.m, tc.r)
		_, merr := Make(tc.g, tc.n, tc.m, tc.r)
		if serr == nil || merr == nil || serr.Error() != merr.Error() {
			t.Errorf("%s n=%d m=%d: NewStart error %v, Make error %v", tc.g, tc.n, tc.m, serr, merr)
		}
	}
}
