package bitset

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// Len returns the number of bits in the set.
func (s *Set) Len() int { return s.n }

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears all bits.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Full reports whether every bit in [0, Len()) is set.
func (s *Set) Full() bool {
	if s.n == 0 {
		return true
	}
	whole := s.n >> 6
	for i := 0; i < whole; i++ {
		if s.words[i] != ^uint64(0) {
			return false
		}
	}
	if rem := s.n & 63; rem != 0 {
		mask := (uint64(1) << uint(rem)) - 1
		return s.words[whole]&mask == mask
	}
	return true
}

func TestBasicSetTestClear(t *testing.T) {
	s := New(130) // crosses word boundaries
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("fresh set has bit %d", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
		s.Clear(i)
		if s.Test(i) {
			t.Fatalf("bit %d not cleared", i)
		}
	}
}

func TestTestAndSet(t *testing.T) {
	s := New(100)
	if s.TestAndSet(37) {
		t.Fatal("first TestAndSet returned true")
	}
	if !s.TestAndSet(37) {
		t.Fatal("second TestAndSet returned false")
	}
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1", s.Count())
	}
}

func TestCountMatchesSets(t *testing.T) {
	if err := quick.Check(func(idxs []uint16) bool {
		s := New(1 << 16)
		distinct := map[int]bool{}
		for _, raw := range idxs {
			i := int(raw)
			s.Set(i)
			distinct[i] = true
		}
		return s.Count() == len(distinct)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		s := New(n)
		if n == 0 {
			if !s.Full() {
				t.Fatal("empty set of 0 bits should be Full")
			}
			continue
		}
		if s.Full() {
			t.Fatalf("n=%d: empty set reported Full", n)
		}
		for i := 0; i < n; i++ {
			s.Set(i)
		}
		if !s.Full() {
			t.Fatalf("n=%d: all-set not Full", n)
		}
		s.Clear(n - 1)
		if s.Full() {
			t.Fatalf("n=%d: missing last bit still Full", n)
		}
	}
}

func TestReset(t *testing.T) {
	s := New(200)
	for i := 0; i < 200; i += 3 {
		s.Set(i)
	}
	s.Reset()
	if s.Count() != 0 {
		t.Fatal("Reset left bits set")
	}
}

func TestLen(t *testing.T) {
	if New(77).Len() != 77 {
		t.Fatal("Len mismatch")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

// Test reports whether bit (r, c) is set.
func (m *Matrix) Test(r, c int) bool {
	return m.words[r*m.wordsPerRow+c>>6]&(1<<uint(c&63)) != 0
}

// RowCount returns the number of set bits in row r.
func (m *Matrix) RowCount(r int) int {
	c := 0
	for _, w := range m.words[r*m.wordsPerRow : (r+1)*m.wordsPerRow] {
		c += bits.OnesCount64(w)
	}
	return c
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 130)
	if m.TestAndSet(1, 129) {
		t.Fatal("fresh matrix bit set")
	}
	if !m.Test(1, 129) {
		t.Fatal("bit not set")
	}
	if m.Test(0, 129) || m.Test(2, 129) {
		t.Fatal("row bleed")
	}
	if m.RowCount(1) != 1 || m.RowCount(0) != 0 {
		t.Fatal("RowCount wrong")
	}
	if !m.TestAndSet(1, 129) {
		t.Fatal("second TestAndSet returned false")
	}
}

func TestMatrixRowIsolation(t *testing.T) {
	if err := quick.Check(func(rRaw, cRaw uint8) bool {
		rows, cols := 16, 100
		r, c := int(rRaw)%rows, int(cRaw)%cols
		m := NewMatrix(rows, cols)
		m.TestAndSet(r, c)
		for i := 0; i < rows; i++ {
			want := 0
			if i == r {
				want = 1
			}
			if m.RowCount(i) != want {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTestAndSet(b *testing.B) {
	s := New(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TestAndSet(i & 0xFFFF)
	}
}
