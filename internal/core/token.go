// Package core holds the engines of the paper's process that track more
// than loads, and the process's exact law on tiny systems.
//
// Given n bins and m balls (the paper takes m = n), in every round one ball
// is extracted from each non-empty bin and re-assigned to a bin chosen
// uniformly at random (self included). With W(t) the set of non-empty bins
// and X_u uniform over [n], the exact update is
//
//	Q_v(t+1) = max(Q_v(t) − 1, 0) + |{ u ∈ W(t) : X_u(t+1) = v }|
//
// The anonymous loads-only engine of that law is shard.Process
// (shard.NewSequential builds the sequential one), used for the max-load,
// empty-bin and convergence experiments (E1–E3, E11, E13). This package
// holds:
//
//   - TokenProcess: ball identities with pluggable queueing strategies
//     (FIFO/LIFO/Random), per-ball progress, per-visit delay and cover-time
//     tracking. Used for the traversal-flavored experiments (E9, E16).
//   - ChoicesProcess: the d-choices generalization, where each relaunched
//     ball joins the least loaded of d sampled bins (E18).
//   - EnumerateArrivals: the exact enumeration of every realization of a
//     few rounds, behind the Appendix B reproduction (E12).
//
// TokenProcess consumes exactly one RNG draw per non-empty bin per round,
// in bin order, for the destination, and draws ball selections (only
// needed by the Random strategy) from a separate source. Given identical
// destination sources it therefore produces the load vectors of
// shard.NewSequential round by round — a property the test suite exploits
// to verify the queueing-strategy obliviousness claimed by the paper (§2,
// footnote 2).
package core

import (
	"errors"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/rng"
)

// Strategy selects which enqueued ball a non-empty bin releases. The
// paper's results are oblivious to this choice (§2 footnote 2); experiment
// E16 verifies the max-load law is identical across strategies.
type Strategy uint8

// Supported queueing strategies.
const (
	// FIFO releases the ball that has waited longest. Under FIFO the paper
	// derives the Ω(t/log n) per-ball progress bound (§4).
	FIFO Strategy = iota
	// LIFO releases the most recently arrived ball.
	LIFO
	// Random releases a ball chosen uniformly from the bin's queue.
	Random
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case FIFO:
		return "fifo"
	case LIFO:
		return "lifo"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// ParseStrategy converts a name produced by String back into a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "fifo":
		return FIFO, nil
	case "lifo":
		return LIFO, nil
	case "random":
		return Random, nil
	default:
		return 0, fmt.Errorf("core: unknown strategy %q", s)
	}
}

// TokenOptions configures a TokenProcess.
type TokenOptions struct {
	// Strategy is the queueing discipline (default FIFO).
	Strategy Strategy
	// TrackCover enables the per-ball visited matrix (m×n bits) and
	// cover-time detection.
	TrackCover bool
	// TrackDelays enables per-visit waiting-time statistics.
	TrackDelays bool
	// PickSource supplies the randomness for the Random strategy's ball
	// selection. If nil and Strategy == Random, a stream is split off the
	// destination source at construction (consuming two draws from it).
	// Keeping ball selection on a separate stream guarantees that the load
	// trajectory depends only on the destination source, regardless of
	// strategy.
	PickSource *rng.Source
}

// move records one extracted ball and its destination during a synchronous
// round.
type move struct {
	ball int32
	dest int32
}

// TokenProcess is the identity-tracking engine: the same law as Process,
// plus per-ball positions, progress counts, visit delays and cover state.
// It is not safe for concurrent use.
type TokenProcess struct {
	n, m  int
	strat Strategy
	dest  *rng.Source
	pick  *rng.Source

	// Per-bin FIFO/LIFO/random-access queues: queue[u][head[u]:] holds the
	// balls in u, oldest first. Queue lengths, the non-empty worklist and
	// the load statistics live in the shared stepping layer.
	queue [][]int32
	head  []int32
	eng   *engine.State

	pos        []int32 // ball -> current bin
	hops       []int64 // ball -> number of re-assignments performed
	enqueuedAt []int64 // ball -> round at which it entered its current bin

	moves []move // scratch for the current step

	round int64

	// Delay tracking (TrackDelays).
	trackDelays bool
	maxDelay    int64
	sumDelay    float64
	numDelays   int64

	// Cover tracking (TrackCover).
	trackCover bool
	visited    *bitset.Matrix
	visitCount []int32
	covered    int
	coverRound int64
}

// NewTokenProcess builds a token engine from an initial configuration.
// Balls are numbered 0..m−1 and assigned to bins in bin order (bin 0 holds
// balls 0..loads[0]−1, and so on), each bin's initial queue ordered by ball
// id. It returns an error for an empty configuration, negative loads, or a
// nil source.
func NewTokenProcess(loads []int32, src *rng.Source, opts TokenOptions) (*TokenProcess, error) {
	n := len(loads)
	if n < 1 {
		return nil, errors.New("core: NewTokenProcess with no bins")
	}
	if src == nil {
		return nil, errors.New("core: NewTokenProcess with nil rng source")
	}
	var m int64
	for i, l := range loads {
		if l < 0 {
			return nil, fmt.Errorf("core: bin %d has negative load %d", i, l)
		}
		m += int64(l)
	}
	if m > int64(1)<<31-1 {
		return nil, fmt.Errorf("core: %d balls exceed capacity", m)
	}
	eng, err := engine.New(loads, engine.Options{})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p := &TokenProcess{
		n:           n,
		m:           int(m),
		strat:       opts.Strategy,
		dest:        src,
		pick:        opts.PickSource,
		queue:       make([][]int32, n),
		head:        make([]int32, n),
		eng:         eng,
		pos:         make([]int32, m),
		hops:        make([]int64, m),
		enqueuedAt:  make([]int64, m),
		moves:       make([]move, 0, n),
		trackDelays: opts.TrackDelays,
		trackCover:  opts.TrackCover,
		coverRound:  -1,
	}
	if p.strat == Random && p.pick == nil {
		p.pick = src.Split()
	}
	ball := int32(0)
	for u := 0; u < n; u++ {
		l := loads[u]
		if l > 0 {
			q := make([]int32, l)
			for i := int32(0); i < l; i++ {
				q[i] = ball
				p.pos[ball] = int32(u)
				ball++
			}
			p.queue[u] = q
		}
	}
	if p.trackCover {
		p.visited = bitset.NewMatrix(p.m, n)
		p.visitCount = make([]int32, p.m)
		for b := 0; b < p.m; b++ {
			p.visited.TestAndSet(b, int(p.pos[b]))
			p.visitCount[b] = 1
			if n == 1 {
				p.covered++
			}
		}
		if p.m == 0 || (n == 1 && p.covered == p.m) {
			p.coverRound = 0
		}
	}
	return p, nil
}

// pop removes and returns one ball from non-empty bin u per the strategy.
// The bin's load count is maintained by the stepping layer (the caller
// releases through engine.State.ReleaseEach), so pop touches only the
// queue storage.
func (p *TokenProcess) pop(u int) int32 {
	q := p.queue[u]
	h := p.head[u]
	var ball int32
	switch p.strat {
	case FIFO:
		ball = q[h]
		h++
		if int(h) == len(q) {
			p.queue[u] = q[:0]
			h = 0
		} else if h >= 64 && int(h)*2 >= len(q) {
			// Compact: shift the live tail to the front so memory stays
			// proportional to the queue length.
			nLive := copy(q, q[h:])
			p.queue[u] = q[:nLive]
			h = 0
		}
		p.head[u] = h
	case LIFO:
		ball = q[len(q)-1]
		p.queue[u] = q[:len(q)-1]
		if int(h) == len(q)-1 {
			p.queue[u] = q[:0]
			p.head[u] = 0
		}
	case Random:
		live := int32(len(q)) - h
		i := h + p.pick.Int32n(live)
		ball = q[i]
		q[i] = q[len(q)-1]
		p.queue[u] = q[:len(q)-1]
		if h == int32(len(q))-1 {
			p.queue[u] = q[:0]
			p.head[u] = 0
		}
	}
	return ball
}

// Step advances one synchronous round: extraction from every non-empty bin
// first (destinations drawn in bin order from the destination source), then
// placement. A ball extracted this round cannot be re-extracted in the same
// round even if it lands in a later bin, matching the paper's synchronous
// semantics.
func (p *TokenProcess) Step() {
	n := p.n
	moves := p.moves[:0]
	p.eng.ReleaseEach(func(u int) {
		ball := p.pop(u)
		dest := int32(p.dest.Intn(n))
		moves = append(moves, move{ball: ball, dest: dest})
	})
	now := p.round + 1
	for _, mv := range moves {
		b := mv.ball
		if p.trackDelays {
			d := now - p.enqueuedAt[b]
			if d > p.maxDelay {
				p.maxDelay = d
			}
			p.sumDelay += float64(d)
			p.numDelays++
		}
		u := mv.dest
		p.queue[u] = append(p.queue[u], b)
		p.eng.Deposit(int(u))
		p.pos[b] = u
		p.hops[b]++
		p.enqueuedAt[b] = now
		if p.trackCover && !p.visited.TestAndSet(int(b), int(u)) {
			p.visitCount[b]++
			if int(p.visitCount[b]) == n {
				p.covered++
				if p.covered == p.m && p.coverRound < 0 {
					p.coverRound = now
				}
			}
		}
	}
	p.eng.Commit()
	p.moves = moves
	p.round = now
}

// Run advances the process by k rounds.
func (p *TokenProcess) Run(k int64) {
	for i := int64(0); i < k; i++ {
		p.Step()
	}
}

// N returns the number of bins.
func (p *TokenProcess) N() int { return p.n }

// Balls returns the number of balls m.
func (p *TokenProcess) Balls() int { return p.m }

// Round returns the number of completed rounds.
func (p *TokenProcess) Round() int64 { return p.round }

// MaxLoad returns the current maximum bin load.
func (p *TokenProcess) MaxLoad() int32 { return p.eng.MaxLoad() }

// EmptyBins returns the current number of empty bins.
func (p *TokenProcess) EmptyBins() int { return p.eng.EmptyBins() }

// NonEmptyBins returns |W(t)|, the current number of non-empty bins.
func (p *TokenProcess) NonEmptyBins() int { return p.eng.NonEmptyBins() }

// Load returns the load of bin u.
func (p *TokenProcess) Load(u int) int32 { return p.eng.Load(u) }

// LoadsCopy returns a fresh copy of the current load vector.
func (p *TokenProcess) LoadsCopy() []int32 { return p.eng.LoadsCopy() }

// Position returns the bin currently holding ball b.
func (p *TokenProcess) Position(b int) int { return int(p.pos[b]) }

// Hops returns the number of random-walk steps ball b has performed — the
// paper's "progress" measure (§4: Ω(t / log n) under FIFO over t rounds).
func (p *TokenProcess) Hops(b int) int64 { return p.hops[b] }

// MinHops returns the minimum progress over all balls.
func (p *TokenProcess) MinHops() int64 {
	if p.m == 0 {
		return 0
	}
	min := p.hops[0]
	for _, h := range p.hops[1:] {
		if h < min {
			min = h
		}
	}
	return min
}

// MaxDelay returns the largest observed per-visit waiting time (rounds
// between entering a bin and being released). Zero unless TrackDelays.
func (p *TokenProcess) MaxDelay() int64 { return p.maxDelay }

// MeanDelay returns the mean per-visit waiting time. Zero unless
// TrackDelays and at least one departure has occurred.
func (p *TokenProcess) MeanDelay() float64 {
	if p.numDelays == 0 {
		return 0
	}
	return p.sumDelay / float64(p.numDelays)
}

// Covered returns the number of balls that have visited all n bins. Always
// zero unless TrackCover.
func (p *TokenProcess) Covered() int { return p.covered }

// CoverRound returns the first round by which every ball had visited every
// bin, or −1 if that has not happened yet (or TrackCover is off).
func (p *TokenProcess) CoverRound() int64 { return p.coverRound }

// VisitCount returns the number of distinct bins ball b has visited
// (0 unless TrackCover).
func (p *TokenProcess) VisitCount(b int) int {
	if !p.trackCover {
		return 0
	}
	return int(p.visitCount[b])
}

// RunUntilCovered steps until every ball has visited every bin or maxRounds
// elapse, returning the cover round and whether covering completed.
// Requires TrackCover.
func (p *TokenProcess) RunUntilCovered(maxRounds int64) (int64, bool) {
	if !p.trackCover {
		return -1, false
	}
	for i := int64(0); p.coverRound < 0 && i < maxRounds; i++ {
		p.Step()
	}
	return p.coverRound, p.coverRound >= 0
}

// CheckInvariants verifies queue/loads consistency, ball conservation, and
// position agreement; tests call it after arbitrary step sequences.
func (p *TokenProcess) CheckInvariants() error {
	if err := p.eng.CheckInvariants(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	seen := make([]bool, p.m)
	var total int64
	for u := 0; u < p.n; u++ {
		live := p.queue[u][p.head[u]:]
		if int32(len(live)) != p.eng.Load(u) {
			return fmt.Errorf("core: bin %d queue length %d != load %d", u, len(live), p.eng.Load(u))
		}
		total += int64(len(live))
		for _, b := range live {
			if b < 0 || int(b) >= p.m {
				return fmt.Errorf("core: bin %d holds invalid ball %d", u, b)
			}
			if seen[b] {
				return fmt.Errorf("core: ball %d appears twice", b)
			}
			seen[b] = true
			if p.pos[b] != int32(u) {
				return fmt.Errorf("core: ball %d position %d but found in bin %d", b, p.pos[b], u)
			}
		}
	}
	if total != int64(p.m) {
		return fmt.Errorf("core: %d balls in queues, want %d", total, p.m)
	}
	return nil
}
