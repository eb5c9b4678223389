package algorithms

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// selfLoopDataset is a small undirected graph with self-loops at 0 and 4:
// two triangles {0,1,2} and {3,4,5} bridged by edge 2-3.
func selfLoopDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	edges := []graph.Edge{
		{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 3},
		{Src: 2, Dst: 3},
	}
	g, err := graph.FromEdges(6, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	return &datagen.Dataset{
		Name: "selfloop", Graph: g, Edges: edges, Directed: false,
		EdgeBytes: 20,
	}
}

// TestSelfLoopDegreeConvention pins the Graphalytics convention: an
// undirected self-loop contributes 1 to the degree, not 2.
func TestSelfLoopDegreeConvention(t *testing.T) {
	ds := selfLoopDataset(t)
	g := ds.Graph
	// Vertex 0: self-loop + edges to 1 and 2 -> degree 3.
	if got := g.OutDegree(0); got != 3 {
		t.Fatalf("degree(0) = %d, want 3 (self-loop counted once)", got)
	}
	// Vertex 1: edges to 0 and 2 -> degree 2.
	if got := g.OutDegree(1); got != 2 {
		t.Fatalf("degree(1) = %d, want 2", got)
	}
	// 9 input edges, 2 of them self-loops: 2*7 + 2 = 16 arcs.
	if got := g.NumArcs(); got != 16 {
		t.Fatalf("arcs = %d, want 16", got)
	}
}

// TestSelfLoopEnginesAgree runs both engines and the references on the
// self-loop graph and requires full agreement — the regression pinned
// here is the former double materialization of undirected self-loops,
// which skewed degrees (and so CDLP frequencies) between the references
// and the engines.
func TestSelfLoopEnginesAgree(t *testing.T) {
	ds := selfLoopDataset(t)

	wccRef := RefWCC(ds.Graph)
	wccPregel := runPregel(t, ds, PregelWCC{}, pregel.MinCombiner{})
	wccGAS := runGAS(t, ds, GASWCC{})
	for v := range wccRef {
		if wccPregel[v] != wccRef[v] {
			t.Fatalf("WCC vertex %d: pregel %v, ref %v", v, wccPregel[v], wccRef[v])
		}
		if wccGAS[v] != wccRef[v] {
			t.Fatalf("WCC vertex %d: gas %v, ref %v", v, wccGAS[v], wccRef[v])
		}
	}

	cdlpRef := RefCDLP(ds.Graph, 4)
	cdlpPregel := runPregel(t, ds, PregelCDLP{Iterations: 4}, nil)
	for v := range cdlpRef {
		if cdlpPregel[v] != cdlpRef[v] {
			t.Fatalf("CDLP vertex %d: pregel %v, ref %v", v, cdlpPregel[v], cdlpRef[v])
		}
	}

	// LCC excludes self-loops from neighbor sets: vertices 1 and 5 sit in
	// a closed triangle (coefficient 1), and the self-loops at 0 and 4
	// must not dilute their coefficients below their triangle value.
	lcc := RefLCC(ds.Graph)
	if lcc[1] != 1 {
		t.Fatalf("LCC(1) = %v, want 1 (triangle closed, self-loop ignored)", lcc[1])
	}
	for v, c := range lcc {
		if c < 0 || c > 1 || math.IsNaN(c) {
			t.Fatalf("LCC(%d) = %v out of [0,1]", v, c)
		}
	}
}
