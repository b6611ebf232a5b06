// Package coupling implements the joint probability space of Lemma 3: the
// original repeated balls-into-bins process and the Tetris process run
// round-by-round on shared randomness so that Tetris pathwise dominates the
// original whenever the original has at most (3/4)n non-empty bins.
//
// The construction per round t (paper notation):
//
//   - Case (i), |W(t−1)| ≤ K = ⌈3n/4⌉: for every non-empty bin u of the
//     original, the released ball's destination X_u is drawn; one of the K
//     fresh Tetris balls is matched to it and lands in the same bin. The
//     remaining K − |W| Tetris balls land at independent uniform positions.
//   - Case (ii), |W(t−1)| > K: the round's Tetris arrivals are all drawn
//     independently; domination may break. Lemma 2 shows case (ii) occurs
//     with probability ≤ e^{−γn} over any polynomial window.
//
// The package tracks, per run: the number of case-(ii) rounds, whether
// pathwise domination (per-bin, every round) held throughout, and the
// running maxima M_T and M̂_T of both processes. Experiment E4 reports
// these; the theorem predicts zero case-(ii) rounds and zero violations at
// any reasonable n.
package coupling

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/rng"
)

// Coupled runs the two processes on one probability space. Create with New;
// not safe for concurrent use.
type Coupled struct {
	n int
	k int // Tetris arrivals per round, ⌈3n/4⌉

	orig *engine.State
	tet  *engine.State

	src *rng.Source
	// dests holds the original's destinations of the round in flight: drawn
	// in the release scan, staged after it (see Step).
	dests []int32

	round          int64
	caseII         int64
	dominatedSoFar bool
	firstViolation int64

	windowMaxOrig, windowMaxTet int32
}

// New builds a coupled run from a shared initial configuration. Lemma 3
// assumes the start has at least n/4 empty bins; New does not enforce that
// (experiments probe what happens without it) but exposes it via
// StartHadQuarterEmpty.
func New(loads []int32, src *rng.Source) (*Coupled, error) {
	if src == nil {
		return nil, errors.New("coupling: New with nil rng source")
	}
	n := len(loads)
	orig, err := engine.New(loads, engine.Options{})
	if err != nil {
		return nil, fmt.Errorf("coupling: %w", err)
	}
	tet, err := engine.New(loads, engine.Options{})
	if err != nil {
		return nil, fmt.Errorf("coupling: %w", err)
	}
	c := &Coupled{
		n:              n,
		k:              (3*n + 3) / 4,
		orig:           orig,
		tet:            tet,
		src:            src,
		dominatedSoFar: true,
		firstViolation: -1,
	}
	c.windowMaxOrig = orig.MaxLoad()
	c.windowMaxTet = tet.MaxLoad()
	return c, nil
}

// Step advances both processes one synchronous round on the joint space.
func (c *Coupled) Step() {
	n := c.n
	// Original extraction: one destination per non-empty bin, in bin order.
	// Matched Tetris balls replicate these destinations (case i); the
	// Tetris deposits are staged before the Tetris release, which the
	// stepping layer permits (staging and departures commute). The
	// original's own arrivals are staged after its scan, which the engine
	// requires (a widen inside the scan would strand the rest of it).
	w := 0
	dests := c.dests[:0]
	c.orig.ReleaseEach(func(u int) {
		w++
		dest := c.src.Intn(n)
		dests = append(dests, int32(dest))
		if w <= c.k {
			c.tet.Deposit(dest)
		}
	})
	c.orig.DepositBatch(dests, 0)
	c.dests = dests
	caseII := w > c.k
	if caseII {
		// Case (ii): discard the matched arrivals and redraw all K Tetris
		// arrivals independently, exactly as the paper specifies.
		c.tet.ResetDeposits()
		for i := 0; i < c.k; i++ {
			c.tet.Deposit(c.src.Intn(n))
		}
		c.caseII++
	} else {
		// Remaining unmatched Tetris balls land independently.
		for i := w; i < c.k; i++ {
			c.tet.Deposit(c.src.Intn(n))
		}
	}
	// Tetris departures: every non-empty Tetris bin discards one ball.
	c.tet.ReleaseEach(nil)
	c.orig.Commit()
	c.tet.Commit()
	// Check per-bin domination on the merged vectors.
	dominated := true
	ol, tl := c.orig.Loads(), c.tet.Loads()
	for v := 0; v < n; v++ {
		if tl[v] < ol[v] {
			dominated = false
			break
		}
	}
	c.round++
	if !dominated && c.dominatedSoFar {
		c.dominatedSoFar = false
		c.firstViolation = c.round
	}
	if m := c.orig.MaxLoad(); m > c.windowMaxOrig {
		c.windowMaxOrig = m
	}
	if m := c.tet.MaxLoad(); m > c.windowMaxTet {
		c.windowMaxTet = m
	}
}

// Run advances k rounds.
func (c *Coupled) Run(k int64) {
	for i := int64(0); i < k; i++ {
		c.Step()
	}
}

// N returns the number of bins.
func (c *Coupled) N() int { return c.n }

// Round returns the number of completed rounds.
func (c *Coupled) Round() int64 { return c.round }

// CaseIIRounds returns how many rounds used the independent fallback
// (the paper's case (ii)); the theory predicts 0 over polynomial windows.
func (c *Coupled) CaseIIRounds() int64 { return c.caseII }

// Dominated reports whether per-bin domination tet ≥ orig held in every
// round so far.
func (c *Coupled) Dominated() bool { return c.dominatedSoFar }

// FirstViolationRound returns the first round at which domination broke, or
// −1 if it never did.
func (c *Coupled) FirstViolationRound() int64 { return c.firstViolation }

// MaxOriginal returns the current max load of the original process.
func (c *Coupled) MaxOriginal() int32 { return c.orig.MaxLoad() }

// MaxTetris returns the current max load of the Tetris process.
func (c *Coupled) MaxTetris() int32 { return c.tet.MaxLoad() }

// WindowMaxOriginal returns M_T, the running max of the original process.
func (c *Coupled) WindowMaxOriginal() int32 { return c.windowMaxOrig }

// WindowMaxTetris returns M̂_T, the running max of the Tetris process.
func (c *Coupled) WindowMaxTetris() int32 { return c.windowMaxTet }

// EmptyOriginal returns the current number of empty bins in the original
// process.
func (c *Coupled) EmptyOriginal() int { return c.orig.EmptyBins() }

// OriginalLoads returns a copy of the original process's load vector.
func (c *Coupled) OriginalLoads() []int32 { return c.orig.LoadsCopy() }

// TetrisLoads returns a copy of the Tetris process's load vector.
func (c *Coupled) TetrisLoads() []int32 { return c.tet.LoadsCopy() }

// StartHadQuarterEmpty reports whether a configuration satisfies Lemma 3's
// hypothesis of at least n/4 empty bins.
func StartHadQuarterEmpty(loads []int32) bool {
	empty := 0
	for _, l := range loads {
		if l == 0 {
			empty++
		}
	}
	return float64(empty) >= float64(len(loads))/4
}

// CheckInvariants verifies ball conservation in the original component,
// non-negativity in both, and the engines' incremental statistics.
func (c *Coupled) CheckInvariants(wantBalls int64) error {
	if err := c.orig.CheckInvariants(); err != nil {
		return fmt.Errorf("coupling: original: %w", err)
	}
	if err := c.tet.CheckInvariants(); err != nil {
		return fmt.Errorf("coupling: tetris: %w", err)
	}
	if s := c.orig.Sum(); s != wantBalls {
		return fmt.Errorf("coupling: original has %d balls, want %d", s, wantBalls)
	}
	if c.dominatedSoFar {
		ol, tl := c.orig.Loads(), c.tet.Loads()
		for i := 0; i < c.n; i++ {
			if tl[i] < ol[i] {
				return fmt.Errorf("coupling: domination flag stale at bin %d", i)
			}
		}
	}
	return nil
}

// DominationGap returns the minimum over bins of tet − orig (negative if
// domination is currently violated) — a diagnostic for the E4 table.
func (c *Coupled) DominationGap() int32 {
	gap := int32(math.MaxInt32)
	ol, tl := c.orig.Loads(), c.tet.Loads()
	for i := 0; i < c.n; i++ {
		if d := tl[i] - ol[i]; d < gap {
			gap = d
		}
	}
	return gap
}
