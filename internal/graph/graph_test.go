package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustFromEdges(t *testing.T, n int64, edges []Edge, directed bool) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges, directed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := mustFromEdges(t, 0, nil, true)
	if g.NumVertices() != 0 || g.NumArcs() != 0 {
		t.Fatalf("empty graph has n=%d m=%d", g.NumVertices(), g.NumArcs())
	}
}

func TestDirectedAdjacency(t *testing.T) {
	edges := []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 0}}
	g := mustFromEdges(t, 3, edges, true)
	if g.NumArcs() != 4 {
		t.Fatalf("NumArcs = %d, want 4", g.NumArcs())
	}
	if !g.Directed() {
		t.Fatal("graph should be directed")
	}
	wantOut := [][]VertexID{{1, 2}, {2}, {0}}
	for v, want := range wantOut {
		got := g.OutNeighbors(VertexID(v))
		if len(got) != len(want) {
			t.Fatalf("out(%d) = %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("out(%d) = %v, want %v", v, got, want)
			}
		}
	}
	wantIn := [][]VertexID{{2}, {0}, {0, 1}}
	for v, want := range wantIn {
		got := g.InNeighbors(VertexID(v))
		if len(got) != len(want) {
			t.Fatalf("in(%d) = %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("in(%d) = %v, want %v", v, got, want)
			}
		}
	}
	if g.OutDegree(0) != 2 || g.InDegree(2) != 2 {
		t.Fatalf("degrees wrong: out(0)=%d in(2)=%d", g.OutDegree(0), g.InDegree(2))
	}
}

func TestUndirectedSymmetry(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 2}}
	g := mustFromEdges(t, 3, edges, false)
	if g.NumArcs() != 4 {
		t.Fatalf("NumArcs = %d, want 4 (2 edges doubled)", g.NumArcs())
	}
	for v := int64(0); v < 3; v++ {
		out := g.OutNeighbors(VertexID(v))
		in := g.InNeighbors(VertexID(v))
		if len(out) != len(in) {
			t.Fatalf("vertex %d: out %v != in %v", v, out, in)
		}
		for i := range out {
			if out[i] != in[i] {
				t.Fatalf("vertex %d: out %v != in %v", v, out, in)
			}
		}
	}
	if g.OutDegree(1) != 2 {
		t.Fatalf("deg(1) = %d, want 2", g.OutDegree(1))
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5}}, true); err == nil {
		t.Fatal("expected error for out-of-range edge")
	}
	if _, err := FromEdges(2, []Edge{{-1, 0}}, true); err == nil {
		t.Fatal("expected error for negative vertex")
	}
	if _, err := FromEdges(-1, nil, true); err == nil {
		t.Fatal("expected error for negative vertex count")
	}
}

func TestSelfLoopsAndDuplicatesKept(t *testing.T) {
	edges := []Edge{{0, 0}, {0, 1}, {0, 1}}
	g := mustFromEdges(t, 2, edges, true)
	if g.NumArcs() != 3 {
		t.Fatalf("NumArcs = %d, want 3", g.NumArcs())
	}
	if g.OutDegree(0) != 3 {
		t.Fatalf("deg(0) = %d, want 3", g.OutDegree(0))
	}
}

// Property: for any random directed graph, every arc appears exactly once
// in the out-adjacency of its source and once in the in-adjacency of its
// destination, and degree sums equal arc counts.
func TestCSRConsistencyProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(1 + rng.Intn(50))
		m := rng.Intn(200)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{
				Src: VertexID(rng.Int63n(n)),
				Dst: VertexID(rng.Int63n(n)),
			}
		}
		g, err := FromEdges(n, edges, true)
		if err != nil {
			return false
		}
		var outSum, inSum int64
		for v := int64(0); v < n; v++ {
			outSum += g.OutDegree(VertexID(v))
			inSum += g.InDegree(VertexID(v))
		}
		if outSum != int64(m) || inSum != int64(m) {
			return false
		}
		// Count arcs per (src,dst) pair both ways; they must agree.
		type pair struct{ s, d VertexID }
		fromOut := map[pair]int{}
		for v := int64(0); v < n; v++ {
			for _, w := range g.OutNeighbors(VertexID(v)) {
				fromOut[pair{VertexID(v), w}]++
			}
		}
		fromIn := map[pair]int{}
		for v := int64(0); v < n; v++ {
			for _, u := range g.InNeighbors(VertexID(v)) {
				fromIn[pair{u, VertexID(v)}]++
			}
		}
		if len(fromOut) != len(fromIn) {
			return false
		}
		for k, c := range fromOut {
			if fromIn[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
