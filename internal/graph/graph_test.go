package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// Connected reports whether g is connected, by BFS from vertex 0.
func Connected(g Graph) bool {
	n := g.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	queue := make([]int, 0, n)
	queue = append(queue, 0)
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for i := 0; i < g.Degree(v); i++ {
			u := g.Neighbor(v, i)
			if !seen[u] {
				seen[u] = true
				count++
				queue = append(queue, u)
			}
		}
	}
	return count == n
}

// Diameter returns the exact diameter by BFS from every vertex — O(n·m),
// intended for tests on small graphs. It returns −1 for a disconnected
// graph.
func Diameter(g Graph) int {
	n := g.N()
	diam := 0
	dist := make([]int, n)
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = queue[:0]
		queue = append(queue, s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for i := 0; i < g.Degree(v); i++ {
				u := g.Neighbor(v, i)
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for _, d := range dist {
			if d < 0 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

func TestCompleteBasics(t *testing.T) {
	g, err := NewComplete(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 || g.Degree(0) != 5 {
		t.Fatal("complete dims wrong")
	}
	if g.Neighbor(3, 2) != 2 {
		t.Fatal("complete neighbor wrong")
	}
	if !Connected(g) {
		t.Fatal("complete not connected")
	}
	if d, ok := IsRegular(g); !ok || d != 5 {
		t.Fatal("complete not regular")
	}
	if _, err := NewComplete(0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestCompleteSampleUniform(t *testing.T) {
	g, err := NewComplete(8)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	counts := make([]int, 8)
	const draws = 80000
	for i := 0; i < draws; i++ {
		counts[g.Sample(3, r)]++
	}
	for v, c := range counts {
		if c < 9400 || c > 10600 {
			t.Fatalf("vertex %d sampled %d times, want ~10000", v, c)
		}
	}
}

func TestRing(t *testing.T) {
	g, err := NewRing(6)
	if err != nil {
		t.Fatal(err)
	}
	if g.Neighbor(0, 0) != 5 || g.Neighbor(0, 1) != 1 {
		t.Fatal("ring neighbors wrong")
	}
	if g.Neighbor(5, 1) != 0 {
		t.Fatal("ring wraparound wrong")
	}
	if !Connected(g) {
		t.Fatal("ring not connected")
	}
	if d := Diameter(g); d != 3 {
		t.Fatalf("ring-6 diameter = %d, want 3", d)
	}
	if _, err := NewRing(0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestRingSingleton(t *testing.T) {
	g, err := NewRing(1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 1 || g.Neighbor(0, 0) != 0 {
		t.Fatal("singleton ring should self-loop")
	}
	r := rng.New(1)
	if g.Sample(0, r) != 0 {
		t.Fatal("singleton sample should be 0")
	}
}

func TestTorus(t *testing.T) {
	g, err := NewTorus(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Fatal("torus size wrong")
	}
	if d, ok := IsRegular(g); !ok || d != 4 {
		t.Fatal("torus should be 4-regular")
	}
	if !Connected(g) {
		t.Fatal("torus not connected")
	}
	// Vertex 0 = (0,0): up = (2,0) = 8, down = (1,0) = 4, left = (0,3) = 3,
	// right = (0,1) = 1.
	want := []int{8, 4, 3, 1}
	for i, w := range want {
		if g.Neighbor(0, i) != w {
			t.Fatalf("torus neighbor(0,%d) = %d, want %d", i, g.Neighbor(0, i), w)
		}
	}
	if _, err := NewTorus(1, 5); err == nil {
		t.Error("1-row torus accepted")
	}
}

func TestHypercube(t *testing.T) {
	g, err := NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 16 {
		t.Fatal("hypercube size wrong")
	}
	if d, ok := IsRegular(g); !ok || d != 4 {
		t.Fatal("hypercube-4 should be 4-regular")
	}
	if !Connected(g) {
		t.Fatal("hypercube not connected")
	}
	if d := Diameter(g); d != 4 {
		t.Fatalf("hypercube-4 diameter = %d, want 4", d)
	}
	if g.Neighbor(5, 1) != 7 {
		t.Fatalf("flip bit 1 of 5 should be 7, got %d", g.Neighbor(5, 1))
	}
	if _, err := NewHypercube(0); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := NewHypercube(31); err == nil {
		t.Error("d=31 accepted")
	}
}

func TestAdjacencyValidation(t *testing.T) {
	if _, err := NewAdjacency(nil, "x"); err == nil {
		t.Error("empty adjacency accepted")
	}
	if _, err := NewAdjacency([][]int32{{5}}, "x"); err == nil {
		t.Error("out-of-range neighbor accepted")
	}
}

func TestRandomRegular(t *testing.T) {
	r := rng.New(7)
	g, err := NewRandomRegular(100, 4, r, 200)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := IsRegular(g); !ok || d != 4 {
		t.Fatalf("not 4-regular")
	}
	if !Connected(g) {
		// A random 4-regular graph is connected w.h.p.; at n=100 failure
		// would indicate a generator bug.
		t.Fatal("random 4-regular on 100 vertices disconnected")
	}
	// Simplicity: no self-loops, no duplicate neighbors.
	for v := 0; v < g.N(); v++ {
		seen := map[int]bool{}
		for i := 0; i < g.Degree(v); i++ {
			u := g.Neighbor(v, i)
			if u == v {
				t.Fatalf("self-loop at %d", v)
			}
			if seen[u] {
				t.Fatalf("parallel edge %d-%d", v, u)
			}
			seen[u] = true
		}
	}
}

func TestRandomRegularSymmetric(t *testing.T) {
	r := rng.New(9)
	g, err := NewRandomRegular(60, 3, r, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Undirected: u in adj[v] iff v in adj[u].
	for v := 0; v < g.N(); v++ {
		for i := 0; i < g.Degree(v); i++ {
			u := g.Neighbor(v, i)
			found := false
			for j := 0; j < g.Degree(u); j++ {
				if g.Neighbor(u, j) == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d-%d not symmetric", v, u)
			}
		}
	}
}

func TestRandomRegularValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := NewRandomRegular(5, 3, r, 10); err == nil {
		t.Error("odd n·d accepted")
	}
	if _, err := NewRandomRegular(4, 4, r, 10); err == nil {
		t.Error("d >= n accepted")
	}
	if _, err := NewRandomRegular(1, 1, r, 10); err == nil {
		t.Error("n < 2 accepted")
	}
}

func TestDiameterDisconnected(t *testing.T) {
	adj := [][]int32{{1}, {0}, {3}, {2}} // two disjoint edges
	g, err := NewAdjacency(adj, "disc")
	if err != nil {
		t.Fatal(err)
	}
	if Connected(g) {
		t.Fatal("disconnected graph reported connected")
	}
	if Diameter(g) != -1 {
		t.Fatal("diameter of disconnected graph should be -1")
	}
}

func TestSampleStaysInNeighborhood(t *testing.T) {
	if err := quick.Check(func(seed uint32, vRaw uint8) bool {
		r := rng.New(uint64(seed))
		g, err := NewTorus(5, 5)
		if err != nil {
			return false
		}
		v := int(vRaw) % g.N()
		u := g.Sample(v, r)
		for i := 0; i < g.Degree(v); i++ {
			if g.Neighbor(v, i) == u {
				return true
			}
		}
		return false
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNames(t *testing.T) {
	comp, _ := NewComplete(4)
	ring, _ := NewRing(4)
	torus, _ := NewTorus(2, 2)
	cube, _ := NewHypercube(2)
	for _, g := range []Graph{comp, ring, torus, cube} {
		if g.Name() == "" {
			t.Errorf("%T has empty name", g)
		}
	}
}

func BenchmarkRandomRegularBuild(b *testing.B) {
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		if _, err := NewRandomRegular(256, 4, r, 500); err != nil {
			b.Fatal(err)
		}
	}
}
