// Package bitset provides a dense fixed-size bitset. It backs the
// per-token visited sets used for cover-time measurement: n tokens × n nodes
// is n² bits total, so compactness matters (n = 8192 ⇒ 8 MiB).
package bitset

import "fmt"

// Set is a fixed-size bitset of n bits. The zero value is an empty set
// of zero bits; use New for a sized set.
type Set struct {
	words []uint64
	n     int
}

// New returns a Set of n bits, all zero.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: New(%d) with negative size", n))
	}
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	return s.words[i>>6]&(1<<uint(i&63)) != 0
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.words[i>>6] |= 1 << uint(i&63)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.words[i>>6] &^= 1 << uint(i&63)
}

// TestAndSet sets bit i and reports whether it was already set. This is the
// hot operation in cover tracking: callers increment their distinct-visit
// counter exactly when it returns false.
func (s *Set) TestAndSet(i int) bool {
	w := i >> 6
	mask := uint64(1) << uint(i&63)
	old := s.words[w]&mask != 0
	s.words[w] |= mask
	return old
}

// Word returns the i-th 64-bit word of the set (bits 64i .. 64i+63). It
// exists for high-performance scans that want to branch on whole words.
func (s *Set) Word(i int) uint64 { return s.words[i] }

// NumWords returns the number of 64-bit words backing the set.
func (s *Set) NumWords() int { return len(s.words) }

// SetWord replaces the i-th 64-bit word wholesale. Bits beyond n in the
// final word must be zero; callers that rebuild the set from scratch (e.g.
// a dense engine pass) use this to write 64 membership bits at once.
func (s *Set) SetWord(i int, w uint64) { s.words[i] = w }

// Matrix is a rows×cols bit matrix stored in one allocation. It is used
// as the tokens × nodes visited matrix.
type Matrix struct {
	words       []uint64
	wordsPerRow int
}

// NewMatrix returns an all-zero rows×cols bit matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("bitset: NewMatrix(%d, %d) with negative size", rows, cols))
	}
	wpr := (cols + 63) / 64
	return &Matrix{
		words:       make([]uint64, rows*wpr),
		wordsPerRow: wpr,
	}
}

// TestAndSet sets bit (r, c) and reports whether it was already set.
func (m *Matrix) TestAndSet(r, c int) bool {
	idx := r*m.wordsPerRow + c>>6
	mask := uint64(1) << uint(c&63)
	old := m.words[idx]&mask != 0
	m.words[idx] |= mask
	return old
}
