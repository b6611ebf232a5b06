// Package walks implements the multi-token traversal protocol of §4, and
// with it the token process: m tokens perform random walks on a graph, and
// every round each non-empty node releases one queued token to a uniformly
// random neighbor. On the complete graph with self-loops (NewTokenProcess)
// this is exactly the repeated balls-into-bins process with ball
// identities; on other graphs it is the general protocol of the paper's §5
// conjectures.
//
// One engine, Traversal, steps every token process: per-token positions
// and progress, node congestion, and on request the visited sets (the
// parallel cover time, Corollary 1: O(n log² n) on the clique, w.h.p.) and
// per-visit delays. Queues release under a strategy (FIFO, LIFO or
// Random) that the loads do not depend on (§2 footnote 2, E16). A round
// draws one destination per released token, in increasing node order,
// through Graph.Sample — on the complete graph src.Intn(n), the draw of
// shard.NewSequential, whose load vectors it therefore steps. ReassignAll
// is the §4.1 fault; SingleWalkCover is the single-token O(n log n)
// baseline the corollary compares against.
package walks

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Strategy selects which queued token a non-empty node releases.
type Strategy uint8

// Supported queueing strategies.
const (
	// FIFO releases the token that has waited longest. Under FIFO the
	// paper derives the Ω(t/log n) per-ball progress bound (§4).
	FIFO Strategy = iota
	// LIFO releases the most recently arrived token.
	LIFO
	// Random releases a token chosen uniformly from the node's queue.
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
	for _, st := range []Strategy{FIFO, LIFO, Random} {
		if s == st.String() {
			return st, nil
		}
	}
	return 0, fmt.Errorf("walks: unknown strategy %q", s)
}

// Options configures a Traversal.
type Options struct {
	// Strategy is the queueing discipline (default FIFO).
	Strategy Strategy
	// TrackCover enables the m×n visited matrix and cover detection
	// (required by RunUntilCovered). Off by default because it costs m·n
	// bits.
	TrackCover bool
	// TrackDelays enables per-visit waiting-time statistics, at 8 bytes a
	// token.
	TrackDelays bool
	// PickSource supplies the Random strategy's picks. If nil under
	// Random, a stream is split off the traversal's source at construction
	// (two draws from it). Picks on their own stream keep the load
	// trajectory a function of the traversal's source alone, whatever the
	// strategy.
	PickSource *rng.Source
}

// Traversal is a running multi-token traversal. Create with New,
// NewOnePerNode or NewTokenProcess; not safe for concurrent use.
type Traversal struct {
	g     graph.Graph
	n, m  int
	strat Strategy
	src   *rng.Source
	pick  *rng.Source

	// queue[u][head[u]:] holds the tokens at u, oldest first. Queue
	// lengths, the non-empty worklist and the load statistics live in the
	// shared stepping layer.
	queue [][]int32
	head  []int32
	eng   *engine.State

	pos  []int32
	hops []int64
	// enqueuedAt[k] is the round token k entered its node; nil unless
	// TrackDelays.
	enqueuedAt []int64

	moves    []move
	reassign []int32 // scratch load vector for ReassignAll

	round     int64
	windowMax int32

	// Delays are whole rounds; their int64 sum is exact.
	maxDelay, sumDelay, numDelays int64

	visited    *bitset.Matrix // nil unless TrackCover
	visitCount []int32
	covered    int
	coverRound int64
}

type move struct {
	token int32
	dest  int32
}

// New builds a traversal with loads[u] tokens initially queued at node u
// (tokens numbered in node order, each queue ordered by token). It returns
// an error for a nil graph or source, a load vector of the wrong length,
// negative loads or an unknown strategy.
func New(g graph.Graph, loads []int32, src *rng.Source, opts Options) (*Traversal, error) {
	if g == nil {
		return nil, errors.New("walks: New with nil graph")
	}
	if src == nil {
		return nil, errors.New("walks: New with nil rng source")
	}
	if opts.Strategy > Random {
		return nil, fmt.Errorf("walks: unknown %v", opts.Strategy)
	}
	n := g.N()
	if len(loads) != n {
		return nil, fmt.Errorf("walks: %d loads for %d nodes", len(loads), n)
	}
	var m int64
	for i, l := range loads {
		if l < 0 {
			return nil, fmt.Errorf("walks: node %d has negative load %d", i, l)
		}
		m += int64(l)
	}
	if m > int64(1)<<31-1 {
		return nil, fmt.Errorf("walks: %d tokens exceed capacity", m)
	}
	eng, err := engine.New(loads, engine.Options{})
	if err != nil {
		return nil, fmt.Errorf("walks: %w", err)
	}
	t := &Traversal{
		g:          g,
		n:          n,
		m:          int(m),
		strat:      opts.Strategy,
		src:        src,
		pick:       opts.PickSource,
		queue:      make([][]int32, n),
		head:       make([]int32, n),
		eng:        eng,
		pos:        make([]int32, m),
		hops:       make([]int64, m),
		moves:      make([]move, 0, n),
		coverRound: -1,
		windowMax:  eng.MaxLoad(),
	}
	if t.strat == Random && t.pick == nil {
		t.pick = src.Split()
	}
	if opts.TrackDelays {
		t.enqueuedAt = make([]int64, m)
	}
	tok := int32(0)
	for u := 0; u < n; u++ {
		l := loads[u]
		if l > 0 {
			q := make([]int32, l)
			for i := int32(0); i < l; i++ {
				q[i] = tok
				t.pos[tok] = int32(u)
				tok++
			}
			t.queue[u] = q
		}
	}
	if opts.TrackCover {
		t.visited = bitset.NewMatrix(t.m, n)
		t.visitCount = make([]int32, t.m)
		for k := 0; k < t.m; k++ {
			t.visited.TestAndSet(k, int(t.pos[k]))
			t.firstVisit(k, 0)
		}
		if t.m == 0 {
			t.coverRound = 0
		}
	}
	return t, nil
}

// NewOnePerNode builds the canonical traversal start: one token on every
// node (m = n), the paper's multi-token setting.
func NewOnePerNode(g graph.Graph, src *rng.Source, opts Options) (*Traversal, error) {
	if g == nil {
		return nil, errors.New("walks: NewOnePerNode with nil graph")
	}
	return New(g, config.OnePerBin(g.N()), src, opts)
}

// NewTokenProcess builds the token process: the traversal of the complete
// graph with self-loops on len(loads) nodes, the repeated balls-into-bins
// process with ball identities.
func NewTokenProcess(loads []int32, src *rng.Source, opts Options) (*Traversal, error) {
	g, err := graph.NewComplete(len(loads))
	if err != nil {
		return nil, fmt.Errorf("walks: %w", err)
	}
	return New(g, loads, src, opts)
}

// firstVisit counts token k's first visit to a node, at round r, and k
// as covered once it has visited every node. The callers test the visited
// bit, so the common repeat visit costs no call.
func (t *Traversal) firstVisit(k int, r int64) {
	t.visitCount[k]++
	if int(t.visitCount[k]) == t.n {
		t.covered++
		if t.covered == t.m && t.coverRound < 0 {
			t.coverRound = r
		}
	}
}

// Step advances one synchronous round: every non-empty node releases one
// token per the strategy to a uniformly random neighbor, and all moves
// land after all releases, so a token released this round cannot be
// released again in it. The stepping layer visits non-empty nodes in
// increasing node order — the same order (and therefore the same draw
// sequence) as a dense scan.
func (t *Traversal) Step() {
	queue, head, g, src := t.queue, t.head, t.g, t.src
	moves := t.moves[:0]
	// A release pops one token per the strategy and draws its destination;
	// the node's load is kept by the stepping layer. FIFO has a closure of
	// its own: with a strategy branch in one shared closure, the FIFO
	// traversal benchmarks ran 1–4% slower (2-vCPU Xeon).
	release := func(u int) {
		q, h := queue[u], head[u]
		k := q[h]
		h++
		if int(h) == len(q) {
			queue[u], h = q[:0], 0
		} else if h >= 64 && int(h)*2 >= len(q) {
			// Compact: shift the live tail to the front so memory stays
			// proportional to the queue length.
			queue[u], h = q[:copy(q, q[h:])], 0
		}
		head[u] = h
		moves = append(moves, move{token: k, dest: int32(g.Sample(u, src))})
	}
	if t.strat != FIFO {
		release = func(u int) {
			q, h := queue[u], head[u]
			i := int32(len(q)) - 1 // LIFO: the tail
			if t.strat == Random {
				i = h + t.pick.Int32n(i+1-h)
			}
			k := q[i]
			q[i] = q[len(q)-1]
			if q = q[:len(q)-1]; int(h) == len(q) {
				q, h = q[:0], 0
			}
			queue[u], head[u] = q, h
			moves = append(moves, move{token: k, dest: int32(g.Sample(u, src))})
		}
	}
	t.eng.ReleaseEach(release)
	now := t.round + 1
	if at := t.enqueuedAt; at != nil {
		for _, mv := range moves {
			d := now - at[mv.token]
			t.maxDelay = max(t.maxDelay, d)
			t.sumDelay += d
			at[mv.token] = now
		}
		t.numDelays += int64(len(moves))
	}
	pos, hops, visited := t.pos, t.hops, t.visited
	for _, mv := range moves {
		k, u := mv.token, mv.dest
		queue[u] = append(queue[u], k)
		t.eng.Deposit(int(u))
		pos[k] = u
		hops[k]++
		if visited != nil && !visited.TestAndSet(int(k), int(u)) {
			t.firstVisit(int(k), now)
		}
	}
	t.eng.Commit()
	t.moves = moves
	t.round = now
	if m := t.eng.MaxLoad(); m > t.windowMax {
		t.windowMax = m
	}
}

// Run advances k rounds.
func (t *Traversal) Run(k int64) {
	for i := int64(0); i < k; i++ {
		t.Step()
	}
}

// ReassignAll moves every token to positions[token] and rebuilds the
// queues in token order — the §4.1 adversarial fault. Visited sets are
// preserved (and the new position counts as visited), and under
// TrackDelays every token's wait restarts at the fault round. The token
// count and graph are unchanged.
func (t *Traversal) ReassignAll(positions []int32) error {
	if len(positions) != t.m {
		return fmt.Errorf("walks: ReassignAll with %d positions, want %d", len(positions), t.m)
	}
	for k, p := range positions {
		if p < 0 || int(p) >= t.n {
			return fmt.Errorf("walks: token %d assigned to invalid node %d", k, p)
		}
	}
	for u := range t.queue {
		t.queue[u] = t.queue[u][:0]
	}
	clear(t.head)
	if t.reassign == nil {
		t.reassign = make([]int32, t.n)
	}
	loads := t.reassign
	clear(loads)
	for k, p := range positions {
		t.queue[p] = append(t.queue[p], int32(k))
		loads[p]++
		t.pos[k] = p
		if t.enqueuedAt != nil {
			t.enqueuedAt[k] = t.round
		}
		if t.visited != nil && !t.visited.TestAndSet(k, int(p)) {
			t.firstVisit(k, t.round)
		}
	}
	if err := t.eng.Reload(loads); err != nil {
		return err
	}
	if m := t.eng.MaxLoad(); m > t.windowMax {
		t.windowMax = m
	}
	return nil
}

// N returns the node count.
func (t *Traversal) N() int { return t.n }

// Tokens returns the token count m.
func (t *Traversal) Tokens() int { return t.m }

// Graph returns the underlying graph.
func (t *Traversal) Graph() graph.Graph { return t.g }

// Round returns the number of completed rounds.
func (t *Traversal) Round() int64 { return t.round }

// MaxLoad returns the current maximum node congestion.
func (t *Traversal) MaxLoad() int32 { return t.eng.MaxLoad() }

// WindowMaxLoad returns the running maximum congestion since construction.
func (t *Traversal) WindowMaxLoad() int32 { return t.windowMax }

// EmptyBins returns the number of token-free nodes (engine.Stepper naming).
func (t *Traversal) EmptyBins() int { return t.eng.EmptyBins() }

// Load returns the queue length at node u.
func (t *Traversal) Load(u int) int32 { return t.eng.Load(u) }

// LoadsCopy returns a fresh copy of the per-node queue-length vector.
func (t *Traversal) LoadsCopy() []int32 { return t.eng.LoadsCopy() }

// Position returns the node currently holding token k.
func (t *Traversal) Position(k int) int { return int(t.pos[k]) }

// Hops returns the number of walk steps token k has performed — the
// paper's "progress" measure (§4: Ω(t / log n) under FIFO over t rounds).
func (t *Traversal) Hops(k int) int64 { return t.hops[k] }

// MinHops returns the minimum progress over tokens.
func (t *Traversal) MinHops() int64 {
	if t.m == 0 {
		return 0
	}
	return slices.Min(t.hops)
}

// MaxDelay returns the largest observed per-visit waiting time (rounds
// between entering a node and being released). Zero unless TrackDelays.
func (t *Traversal) MaxDelay() int64 { return t.maxDelay }

// MeanDelay returns the mean per-visit waiting time. Zero unless
// TrackDelays and at least one release has occurred.
func (t *Traversal) MeanDelay() float64 {
	if t.numDelays == 0 {
		return 0
	}
	return float64(t.sumDelay) / float64(t.numDelays)
}

// Covered returns the number of tokens that have visited every node.
func (t *Traversal) Covered() int { return t.covered }

// CoverRound returns the parallel cover time — the first round by which
// every token had visited every node — or −1 if not yet reached (or cover
// tracking is off).
func (t *Traversal) CoverRound() int64 { return t.coverRound }

// VisitCount returns the number of distinct nodes token k has visited
// (0 when TrackCover is off).
func (t *Traversal) VisitCount(k int) int {
	if t.visited == nil {
		return 0
	}
	return int(t.visitCount[k])
}

// RunUntilCovered steps until the parallel cover completes or maxRounds
// elapse; requires TrackCover.
func (t *Traversal) RunUntilCovered(maxRounds int64) (int64, bool) {
	if t.visited == nil {
		return -1, false
	}
	for i := int64(0); t.coverRound < 0 && i < maxRounds; i++ {
		t.Step()
	}
	return t.coverRound, t.coverRound >= 0
}

// CheckInvariants verifies queue/load/position consistency.
func (t *Traversal) CheckInvariants() error {
	if err := t.eng.CheckInvariants(); err != nil {
		return fmt.Errorf("walks: %w", err)
	}
	seen := make([]bool, t.m)
	var total int64
	for u := 0; u < t.n; u++ {
		live := t.queue[u][t.head[u]:]
		if int32(len(live)) != t.eng.Load(u) {
			return fmt.Errorf("walks: node %d queue %d != load %d", u, len(live), t.eng.Load(u))
		}
		total += int64(len(live))
		for _, k := range live {
			if k < 0 || int(k) >= t.m {
				return fmt.Errorf("walks: node %d holds invalid token %d", u, k)
			}
			if seen[k] {
				return fmt.Errorf("walks: token %d appears twice", k)
			}
			seen[k] = true
			if t.pos[k] != int32(u) {
				return fmt.Errorf("walks: token %d position %d but found at %d", k, t.pos[k], u)
			}
		}
	}
	if total != int64(t.m) {
		return fmt.Errorf("walks: %d tokens in queues, want %d", total, t.m)
	}
	return nil
}

// SingleWalkCover runs one token's simple random walk from start and
// returns its cover time (first round all nodes visited), capped at
// maxRounds. This is the baseline Corollary 1 compares the parallel cover
// time against.
func SingleWalkCover(g graph.Graph, start int, src *rng.Source, maxRounds int64) (int64, bool) {
	if g == nil || src == nil {
		return -1, false
	}
	n := g.N()
	if start < 0 || start >= n {
		return -1, false
	}
	visited := bitset.New(n)
	visited.Set(start)
	remaining := n - 1
	v := start
	for t := int64(1); t <= maxRounds; t++ {
		v = g.Sample(v, src)
		if !visited.TestAndSet(v) {
			remaining--
			if remaining == 0 {
				return t, true
			}
		}
	}
	return maxRounds, remaining == 0
}
