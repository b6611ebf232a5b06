package bitset

import (
	"math/bits"
	"testing"
)

// NextSet returns the index of the first set bit at or after i, or −1 if
// there is none. (The engine's hot worklist loops iterate raw words via
// Word/NumWords instead; NextSet is the general-purpose form.)
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	w := i >> 6
	word := s.words[w] >> uint(i&63)
	if word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(s.words); w++ {
		if s.words[w] != 0 {
			return w<<6 + bits.TrailingZeros64(s.words[w])
		}
	}
	return -1
}

// ForEachSet calls f(i) for every set bit in increasing order. The callback
// may clear bits at or before its argument (the iteration works on a copy
// of the current word); setting new bits or clearing later bits during the
// iteration yields unspecified visits for those bits.
func (s *Set) ForEachSet(f func(i int)) {
	for wi, w := range s.words {
		base := wi << 6
		for w != 0 {
			f(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// TestNextSet covers word boundaries, gaps and the not-found case.
func TestNextSet(t *testing.T) {
	s := New(200)
	for _, i := range []int{0, 5, 63, 64, 127, 128, 199} {
		s.Set(i)
	}
	want := []int{0, 5, 63, 64, 127, 128, 199}
	got := []int{}
	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iterated %v, want %v", got, want)
		}
	}
	if s.NextSet(200) != -1 || s.NextSet(1000) != -1 {
		t.Error("NextSet past the end must return -1")
	}
	if s.NextSet(-5) != 0 {
		t.Error("NextSet with negative start must clamp to 0")
	}
	empty := New(64)
	if empty.NextSet(0) != -1 {
		t.Error("NextSet on empty set must return -1")
	}
}

// TestForEachSet checks in-order visits and the clear-behind contract.
func TestForEachSet(t *testing.T) {
	s := New(130)
	for i := 0; i < 130; i += 3 {
		s.Set(i)
	}
	prev := -1
	count := 0
	s.ForEachSet(func(i int) {
		if i <= prev {
			t.Fatalf("out of order: %d after %d", i, prev)
		}
		if !s.Test(i) {
			t.Fatalf("visited unset bit %d", i)
		}
		prev = i
		count++
		s.Clear(i) // clearing at the cursor must be safe
	})
	if count != (129/3)+1 {
		t.Fatalf("visited %d bits", count)
	}
	if s.Count() != 0 {
		t.Fatal("clears during iteration lost")
	}
}

// TestWords checks the word-level accessors used by the engine's dense
// rebuild.
func TestWords(t *testing.T) {
	s := New(100)
	if s.NumWords() != 2 {
		t.Fatalf("NumWords = %d", s.NumWords())
	}
	s.SetWord(0, 0xDEADBEEF)
	s.SetWord(1, 0x1)
	if s.Word(0) != 0xDEADBEEF || s.Word(1) != 0x1 {
		t.Fatal("Word round-trip failed")
	}
	if !s.Test(64) {
		t.Fatal("SetWord(1, 1) must set bit 64")
	}
	if s.Count() != 24+1 {
		t.Fatalf("Count = %d", s.Count())
	}
}
