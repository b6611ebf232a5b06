// Package mixing estimates random-walk mixing quantities for the graph
// substrate: the spectral gap of the simple random walk (via power
// iteration on the lazy chain) and exact total-variation mixing times (via
// distribution evolution). The paper's §1.3 situates repeated
// balls-into-bins among parallel-walk analyses in the gossip model, where
// walk mixing is the central quantity; §5's conjecture about general
// regular graphs is exactly a question about slow-mixing topologies
// (rings: gap Θ(1/n²)) versus fast ones (hypercubes, random regular
// graphs: gap Ω(1/log n) or constant).
//
// All routines require a regular graph (uniform stationary distribution);
// they validate this and return an error otherwise.
package mixing

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// maxVertices bounds the dense vectors allocated by this package.
const maxVertices = 1 << 20

// stepLazy applies one step of the lazy walk (P+I)/2 to the vector v,
// writing into out: out = (v + P v)/2 with P the simple-random-walk
// transition matrix (row u spreads mass 1/deg(u) to each neighbor).
func stepLazy(g graph.Graph, v, out []float64) {
	n := g.N()
	for i := range out {
		out[i] = 0
	}
	for u := 0; u < n; u++ {
		mass := v[u]
		if mass == 0 {
			continue
		}
		deg := g.Degree(u)
		share := mass / (2 * float64(deg))
		for i := 0; i < deg; i++ {
			out[g.Neighbor(u, i)] += share
		}
		out[u] += mass / 2
	}
}

// validate checks the graph is usable: non-nil, regular, within size
// bounds, and with positive degree.
func validate(g graph.Graph) (n, deg int, err error) {
	if g == nil {
		return 0, 0, errors.New("mixing: nil graph")
	}
	n = g.N()
	if n < 2 {
		return 0, 0, fmt.Errorf("mixing: graph has %d vertices, need >= 2", n)
	}
	if n > maxVertices {
		return 0, 0, fmt.Errorf("mixing: graph has %d vertices, cap is %d", n, maxVertices)
	}
	deg, ok := graph.IsRegular(g)
	if !ok {
		return 0, 0, errors.New("mixing: graph is not regular (stationary distribution not uniform)")
	}
	if deg < 1 {
		return 0, 0, errors.New("mixing: zero-degree graph")
	}
	return n, deg, nil
}

// SpectralGap estimates 1 − λ₂ of the simple random walk on a regular
// graph, where λ₂ is the second-largest eigenvalue (not in absolute
// value). It runs iters power iterations on the lazy chain (P+I)/2 —
// whose spectrum is non-negative, so bipartiteness cannot mislead the
// estimate — after deflating the known top eigenvector (uniform), and
// converts back: λ₂ = 2·λ₂(lazy) − 1.
//
// The estimate converges from below; iters ≈ 20·n²/d suffices for rings
// (the slowest family here), far fewer for expanders. Typical use passes
// a few thousand.
func SpectralGap(g graph.Graph, iters int, src *rng.Source) (gap, lambda2 float64, err error) {
	n, _, err := validate(g)
	if err != nil {
		return 0, 0, err
	}
	if iters < 1 {
		return 0, 0, fmt.Errorf("mixing: iters = %d < 1", iters)
	}
	if src == nil {
		return 0, 0, errors.New("mixing: nil rng source")
	}
	v := make([]float64, n)
	w := make([]float64, n)
	for i := range v {
		v[i] = src.NormFloat64()
	}
	deflate(v)
	normalize(v)
	lam := 0.0
	for it := 0; it < iters; it++ {
		stepLazy(g, v, w)
		deflate(w)
		lam = norm(w) // Rayleigh-style growth estimate: |P_lazy v| for unit v
		if lam == 0 {
			// v landed in the kernel; λ₂(lazy) = 0 ⇒ λ₂ = −1.
			return 2, -1, nil
		}
		inv := 1 / lam
		for i := range w {
			w[i] *= inv
		}
		v, w = w, v
	}
	lambda2 = 2*lam - 1
	return 1 - lambda2, lambda2, nil
}

// deflate removes the component along the all-ones vector.
func deflate(v []float64) {
	mean := 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	for i := range v {
		v[i] -= mean
	}
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func normalize(v []float64) {
	nv := norm(v)
	if nv == 0 {
		return
	}
	inv := 1 / nv
	for i := range v {
		v[i] *= inv
	}
}

// TVFromUniform returns the total-variation distance between the
// distribution vector p and the uniform distribution on n points.
func TVFromUniform(p []float64) float64 {
	n := float64(len(p))
	tv := 0.0
	for _, x := range p {
		tv += math.Abs(x - 1/n)
	}
	return tv / 2
}

// MixingTimeTV computes the exact ε-total-variation mixing time of the
// LAZY walk started from vertex start on a regular graph, by evolving the
// distribution step by step. Returns the first t with
// TV(p_t, uniform) ≤ eps, or (maxSteps, false) if not reached.
//
// Cost is O(maxSteps · n · d); use on small graphs or fast-mixing
// families (a ring's Θ(n²) mixing makes large rings expensive by design —
// that is the phenomenon being measured).
func MixingTimeTV(g graph.Graph, start int, eps float64, maxSteps int) (int, bool, error) {
	n, _, err := validate(g)
	if err != nil {
		return 0, false, err
	}
	if start < 0 || start >= n {
		return 0, false, fmt.Errorf("mixing: start %d outside [0,%d)", start, n)
	}
	if eps <= 0 || eps >= 1 {
		return 0, false, fmt.Errorf("mixing: eps = %v outside (0,1)", eps)
	}
	if maxSteps < 0 {
		return 0, false, fmt.Errorf("mixing: maxSteps = %d < 0", maxSteps)
	}
	p := make([]float64, n)
	q := make([]float64, n)
	p[start] = 1
	if TVFromUniform(p) <= eps {
		return 0, true, nil
	}
	for t := 1; t <= maxSteps; t++ {
		stepLazy(g, p, q)
		p, q = q, p
		if TVFromUniform(p) <= eps {
			return t, true, nil
		}
	}
	return maxSteps, false, nil
}
