// Package graph provides the network substrate for the multi-token
// traversal application (§4) and the general-graph open questions (§5):
// the complete graph with self-loops (on which parallel walks are exactly
// the repeated balls-into-bins process), rings, 2-D tori, hypercubes and
// random d-regular graphs.
package graph

import (
	"errors"
	"fmt"

	"repro/internal/rng"
)

// Graph is an undirected graph on vertices 0..N()−1 supporting the
// operations the walk engine needs. Implementations must be safe for
// concurrent reads (they are immutable after construction).
type Graph interface {
	// N returns the number of vertices.
	N() int
	// Degree returns the number of neighbors of v (counting a self-loop
	// once).
	Degree(v int) int
	// Neighbor returns the i-th neighbor of v, 0 ≤ i < Degree(v).
	Neighbor(v, i int) int
	// Sample returns a uniformly random neighbor of v.
	Sample(v int, r *rng.Source) int
	// Name returns a short human-readable description.
	Name() string
}

// Complete is the complete graph on n vertices including self-loops:
// Sample(v) is uniform over all n vertices, exactly the paper's
// re-assignment rule, so parallel walks on Complete are the repeated
// balls-into-bins process.
type Complete struct {
	n int
}

// NewComplete returns the complete graph (with self-loops) on n ≥ 1
// vertices.
func NewComplete(n int) (*Complete, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: NewComplete n = %d < 1", n)
	}
	return &Complete{n: n}, nil
}

// N returns the vertex count.
func (g *Complete) N() int { return g.n }

// Degree returns n (every vertex, self included).
func (g *Complete) Degree(int) int { return g.n }

// Neighbor returns vertex i.
func (g *Complete) Neighbor(_, i int) int { return i }

// Sample returns a uniform vertex.
func (g *Complete) Sample(_ int, r *rng.Source) int { return r.Intn(g.n) }

// Name returns "complete-n".
func (g *Complete) Name() string { return fmt.Sprintf("complete-%d", g.n) }

// Ring is the n-cycle (each vertex adjacent to its two cyclic neighbors;
// n = 2 degenerates to a single double edge treated as two neighbors, n = 1
// is a self-loop).
type Ring struct {
	n int
}

// NewRing returns the cycle on n ≥ 1 vertices.
func NewRing(n int) (*Ring, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: NewRing n = %d < 1", n)
	}
	return &Ring{n: n}, nil
}

// N returns the vertex count.
func (g *Ring) N() int { return g.n }

// Degree returns 2 (or 1 when n == 1).
func (g *Ring) Degree(int) int {
	if g.n == 1 {
		return 1
	}
	return 2
}

// Neighbor returns the left (i=0) or right (i=1) cyclic neighbor.
func (g *Ring) Neighbor(v, i int) int {
	if g.n == 1 {
		return 0
	}
	if i == 0 {
		return (v + g.n - 1) % g.n
	}
	return (v + 1) % g.n
}

// Sample returns one of the two cyclic neighbors uniformly.
func (g *Ring) Sample(v int, r *rng.Source) int {
	return g.Neighbor(v, r.Intn(g.Degree(v)))
}

// Name returns "ring-n".
func (g *Ring) Name() string { return fmt.Sprintf("ring-%d", g.n) }

// Torus is the rows×cols 2-D torus (4-regular grid with wraparound).
type Torus struct {
	rows, cols int
}

// NewTorus returns the rows×cols torus; both dimensions must be ≥ 2 so the
// graph is 4-regular without parallel self-edges collapsing.
func NewTorus(rows, cols int) (*Torus, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("graph: NewTorus %dx%d needs both dims >= 2", rows, cols)
	}
	return &Torus{rows: rows, cols: cols}, nil
}

// N returns rows*cols.
func (g *Torus) N() int { return g.rows * g.cols }

// Degree returns 4.
func (g *Torus) Degree(int) int { return 4 }

// Neighbor returns the up/down/left/right neighbor for i = 0..3.
func (g *Torus) Neighbor(v, i int) int {
	row, col := v/g.cols, v%g.cols
	switch i {
	case 0:
		row = (row + g.rows - 1) % g.rows
	case 1:
		row = (row + 1) % g.rows
	case 2:
		col = (col + g.cols - 1) % g.cols
	default:
		col = (col + 1) % g.cols
	}
	return row*g.cols + col
}

// Sample returns a uniform grid neighbor.
func (g *Torus) Sample(v int, r *rng.Source) int {
	return g.Neighbor(v, r.Intn(4))
}

// Name returns "torus-RxC".
func (g *Torus) Name() string { return fmt.Sprintf("torus-%dx%d", g.rows, g.cols) }

// Hypercube is the d-dimensional boolean hypercube on 2^d vertices.
type Hypercube struct {
	dim int
	n   int
}

// NewHypercube returns the hypercube of dimension d, 1 ≤ d ≤ 30.
func NewHypercube(d int) (*Hypercube, error) {
	if d < 1 || d > 30 {
		return nil, fmt.Errorf("graph: NewHypercube d = %d outside [1, 30]", d)
	}
	return &Hypercube{dim: d, n: 1 << uint(d)}, nil
}

// N returns 2^d.
func (g *Hypercube) N() int { return g.n }

// Degree returns d.
func (g *Hypercube) Degree(int) int { return g.dim }

// Neighbor flips bit i of v.
func (g *Hypercube) Neighbor(v, i int) int { return v ^ (1 << uint(i)) }

// Sample flips a uniformly chosen bit.
func (g *Hypercube) Sample(v int, r *rng.Source) int {
	return v ^ (1 << uint(r.Intn(g.dim)))
}

// Name returns "hypercube-d".
func (g *Hypercube) Name() string { return fmt.Sprintf("hypercube-%d", g.dim) }

// Adjacency is an explicit adjacency-list graph; it backs the random
// regular generator and can represent any simple graph.
type Adjacency struct {
	adj  [][]int32
	name string
}

// NewAdjacency wraps adjacency lists. Lists are not copied; callers must
// not mutate them afterwards.
func NewAdjacency(adj [][]int32, name string) (*Adjacency, error) {
	if len(adj) == 0 {
		return nil, errors.New("graph: NewAdjacency with no vertices")
	}
	for v, ns := range adj {
		for _, u := range ns {
			if u < 0 || int(u) >= len(adj) {
				return nil, fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
		}
	}
	return &Adjacency{adj: adj, name: name}, nil
}

// N returns the vertex count.
func (g *Adjacency) N() int { return len(g.adj) }

// Degree returns len(adj[v]).
func (g *Adjacency) Degree(v int) int { return len(g.adj[v]) }

// Neighbor returns adj[v][i].
func (g *Adjacency) Neighbor(v, i int) int { return int(g.adj[v][i]) }

// Sample returns a uniform entry of adj[v]; v must have degree ≥ 1.
func (g *Adjacency) Sample(v int, r *rng.Source) int {
	return int(g.adj[v][r.Intn(len(g.adj[v]))])
}

// Name returns the label given at construction.
func (g *Adjacency) Name() string { return g.name }

// NewRandomRegular generates a simple d-regular graph on n vertices by the
// configuration model (uniform stub matching) with whole-sample rejection
// of self-loops and parallel edges. n·d must be even and d < n. For d ≥ 3
// the acceptance probability is bounded away from 0 asymptotically
// (≈ e^{−(d²−1)/4}); maxAttempts bounds the retries.
func NewRandomRegular(n, d int, r *rng.Source, maxAttempts int) (*Adjacency, error) {
	if n < 2 || d < 1 || d >= n {
		return nil, fmt.Errorf("graph: NewRandomRegular(n=%d, d=%d) invalid", n, d)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: NewRandomRegular n·d = %d odd", n*d)
	}
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	stubs := make([]int32, n*d)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		for i := range stubs {
			stubs[i] = int32(i / d)
		}
		r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		adj := make([][]int32, n)
		ok := true
		seen := make(map[int64]bool, n*d/2)
		for i := 0; i < len(stubs); i += 2 {
			a, b := stubs[i], stubs[i+1]
			if a == b {
				ok = false
				break
			}
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			key := int64(lo)<<32 | int64(hi)
			if seen[key] {
				ok = false
				break
			}
			seen[key] = true
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
		if !ok {
			continue
		}
		return NewAdjacency(adj, fmt.Sprintf("random-%d-regular-%d", d, n))
	}
	return nil, fmt.Errorf("graph: NewRandomRegular(n=%d, d=%d) failed after %d attempts", n, d, maxAttempts)
}

// IsRegular reports whether every vertex has the same degree, returning
// that degree.
func IsRegular(g Graph) (int, bool) {
	n := g.N()
	if n == 0 {
		return 0, true
	}
	d := g.Degree(0)
	for v := 1; v < n; v++ {
		if g.Degree(v) != d {
			return 0, false
		}
	}
	return d, true
}
