package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 collided on %d of 1000 draws", same)
	}
}

func TestReseedMatchesNew(t *testing.T) {
	a := New(7)
	a.Uint64()
	a.Reseed(99)
	b := New(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Reseed does not reproduce New")
		}
	}
}

func TestStreamsIndependent(t *testing.T) {
	s0 := NewStream(123, 0)
	s1 := NewStream(123, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if s0.Uint64() == s1.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 0 and 1 collided %d times", same)
	}
}

func TestStreamDeterministic(t *testing.T) {
	a := NewStream(5, 17)
	b := NewStream(5, 17)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("NewStream not deterministic")
		}
	}
}

func TestSplitDiffersFromParent(t *testing.T) {
	parent := New(9)
	child := parent.Split()
	p2 := New(9)
	p2.Uint64()
	p2.Uint64() // Split consumed two draws
	same := 0
	for i := 0; i < 1000; i++ {
		if child.Uint64() == p2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("child stream tracks parent (%d collisions)", same)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(3)
	if err := quick.Check(func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.Uint64n(n)
		return v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nSmallUniform(t *testing.T) {
	// Chi-square-ish sanity: for n=7 over 70000 draws each bucket should be
	// near 10000.
	r := New(11)
	const n, draws = 7, 70000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	for i, c := range counts {
		if c < 9500 || c > 10500 {
			t.Fatalf("bucket %d has %d draws, want ~10000", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	r := New(1)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(6)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		f := r.Float64()
		sum += f
		sumSq += f * f
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(7)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(8)
	const p, draws = 0.3, 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / draws
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate = %v", p, rate)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(9)
	const draws = 200000
	var sum float64
	for i := 0; i < draws; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatal("negative exponential draw")
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(10)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(12)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(13)
	const n, draws = 5, 50000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	for i, c := range counts {
		if c < 9200 || c > 10800 {
			t.Fatalf("Perm(5)[0]==%d occurred %d times, want ~10000", i, c)
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(14)
	xs := []int{1, 1, 2, 3, 5, 8, 13}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset sum: %d != %d", got, sum)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(15)
	const p, draws = 0.25, 100000
	var sum float64
	for i := 0; i < draws; i++ {
		g := r.Geometric(p)
		if g < 0 {
			t.Fatal("negative geometric draw")
		}
		sum += float64(g)
	}
	want := (1 - p) / p // mean of failures-before-success
	if mean := sum / draws; math.Abs(mean-want) > 0.1 {
		t.Fatalf("geometric mean = %v, want ~%v", mean, want)
	}
}

func TestGeometricPOne(t *testing.T) {
	r := New(16)
	for i := 0; i < 10; i++ {
		if r.Geometric(1) != 0 {
			t.Fatal("Geometric(1) != 0")
		}
	}
}

func TestJumpChangesState(t *testing.T) {
	r := New(17)
	before := r.State()
	r.Jump()
	if r.State() == before {
		t.Fatal("Jump did not change state")
	}
	// Jumped stream should not collide with the original.
	a := New(17)
	b := New(17)
	b.Jump()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("jumped stream collides with original (%d)", same)
	}
}

func TestStateRoundTrip(t *testing.T) {
	r := New(18)
	r.Uint64()
	st := r.State()
	want := make([]uint64, 16)
	for i := range want {
		want[i] = r.Uint64()
	}
	var r2 Source
	if err := r2.SetState(st); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if got := r2.Uint64(); got != w {
			t.Fatalf("replay diverged at %d: %d != %d", i, got, w)
		}
	}
}

func TestSetStateRejectsZero(t *testing.T) {
	var r Source
	if err := r.SetState([4]uint64{}); err == nil {
		t.Fatal("SetState accepted the all-zero state")
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkUint64n(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64n(12345)
	}
	_ = sink
}

// TestFill32nMatchesUint64n pins the bulk draw to the scalar one: the same
// values and the same final State as repeated Uint64n, for every bound
// shape — 1 (every draw is 0), small odd, decimal, a power of two (no
// rejection possible), and the int32 ceiling.
//
// A random state cannot reach the rejection branch in a test: the
// threshold 2⁶⁴ mod n is below n ≤ 2³¹, so a draw rejects with probability
// under 2⁻³³. The second start state therefore has s[1] = 0, which makes the
// next raw word 0; its product with n has low half 0, below the threshold
// of every n that is not a power of two, so the first draw of each batch
// from that state is rejected.
func TestFill32nMatchesUint64n(t *testing.T) {
	forced := [4]uint64{golden, 0, 3, 5}
	for _, n := range []uint64{1, 3, 1000, 1 << 22, 1<<31 - 1, 3 << 29} {
		for _, start := range [][4]uint64{NewStream(17, n).State(), forced} {
			a, b := New(0), New(0)
			if err := a.SetState(start); err != nil {
				t.Fatal(err)
			}
			if err := b.SetState(start); err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{0, 1, 7, 512, 4099} {
				got := make([]int32, size)
				a.Fill32n(got, n)
				for i := range got {
					if want := b.Uint64n(n); uint64(got[i]) != want {
						t.Fatalf("n=%d size=%d: draw %d = %d, Uint64n %d", n, size, i, got[i], want)
					}
				}
				if a.State() != b.State() {
					t.Fatalf("n=%d size=%d: state diverged after the batch", n, size)
				}
			}
		}
		if n&(n-1) == 0 {
			continue
		}
		// From the forced state one draw consumes two raw words.
		r, raw := New(0), New(0)
		_ = r.SetState(forced)
		_ = raw.SetState(forced)
		r.Fill32n(make([]int32, 1), n)
		raw.Uint64()
		if r.State() == raw.State() {
			t.Fatalf("n=%d: the forced draw was not rejected", n)
		}
		raw.Uint64()
		if r.State() != raw.State() {
			t.Fatalf("n=%d: the forced draw consumed more than two words", n)
		}
	}
}

func TestFill32nPanicsOutsideInt32(t *testing.T) {
	for _, n := range []uint64{0, 1<<31 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Fill32n(_, %d) did not panic", n)
				}
			}()
			New(1).Fill32n(make([]int32, 1), n)
		}()
	}
}

func BenchmarkFill32n(b *testing.B) {
	r := New(1)
	dst := make([]int32, 512)
	b.SetBytes(int64(len(dst)) * 4)
	for i := 0; i < b.N; i++ {
		r.Fill32n(dst, 12345)
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}

// TestNewStreamStateRestore pins the property the checkpoint layer depends
// on: the state of a stream keyed by a global shard id can be captured,
// serialized elsewhere, and restored into a source that was never derived
// from (seed, shard) — and the continuation is draw-for-draw identical.
func TestNewStreamStateRestore(t *testing.T) {
	for _, shardID := range []uint64{0, 1, 7, 63} {
		s := NewStream(99, shardID)
		for i := 0; i < 1000; i++ {
			s.Uint64()
		}
		st := s.State()
		want := make([]uint64, 64)
		for i := range want {
			want[i] = s.Uint64()
		}
		// Restore into a source with unrelated history.
		r := New(123456)
		r.Uint64()
		if err := r.SetState(st); err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if got := r.Uint64(); got != w {
				t.Fatalf("stream %d diverged at draw %d: %d != %d", shardID, i, got, w)
			}
		}
		// The restored source must also agree on derived draws (bounded,
		// float), not just raw words: Uint64n and Float64 consume state
		// identically on both.
		s2 := NewStream(99, shardID)
		for i := 0; i < 1000+64; i++ {
			s2.Uint64()
		}
		if err := r.SetState(s2.State()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if a, b := r.Uint64n(1000), s2.Uint64n(1000); a != b {
				t.Fatalf("stream %d bounded draw %d: %d != %d", shardID, i, a, b)
			}
			if a, b := r.Float64(), s2.Float64(); a != b {
				t.Fatalf("stream %d float draw %d: %v != %v", shardID, i, a, b)
			}
		}
	}
}
