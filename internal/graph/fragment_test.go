package graph

import (
	"testing"
)

// refLocalAdjacency rebuilds the per-machine adjacency the engines
// historically built with map appends: arcs in input order, undirected
// reverse arcs in a second pass (self-loops contribute a single arc).
func refLocalAdjacency(edges []Edge, vc *VertexCut, undirected bool) (out, in []map[VertexID][]VertexID) {
	k := vc.k
	out = make([]map[VertexID][]VertexID, k)
	in = make([]map[VertexID][]VertexID, k)
	for m := 0; m < k; m++ {
		out[m] = map[VertexID][]VertexID{}
		in[m] = map[VertexID][]VertexID{}
	}
	add := func(m int, src, dst VertexID) {
		out[m][src] = append(out[m][src], dst)
		in[m][dst] = append(in[m][dst], src)
	}
	for i, e := range edges {
		add(vc.place[i], e.Src, e.Dst)
	}
	if undirected {
		for i, e := range edges {
			if e.Src == e.Dst {
				continue
			}
			add(vc.place[i], e.Dst, e.Src)
		}
	}
	return out, in
}

func fragmentTestEdges() []Edge {
	// Deliberately includes duplicates, a self-loop, and an isolated
	// vertex (9).
	return []Edge{
		{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3},
		{0, 5}, {2, 3}, {6, 6}, {6, 7}, {7, 8}, {8, 6},
		{0, 1}, {5, 0},
	}
}

func TestFragmentsMatchMapBuiltAdjacency(t *testing.T) {
	edges := fragmentTestEdges()
	const n = 10
	for _, undirected := range []bool{false, true} {
		for _, strategy := range []VertexCutStrategy{VertexCutHash, VertexCutGreedy} {
			vc := NewVertexCut(n, edges, 3, strategy)
			frags := BuildFragments(n, edges, vc, undirected)
			refOut, refIn := refLocalAdjacency(edges, vc, undirected)
			for m := 0; m < 3; m++ {
				for v := VertexID(0); v < n; v++ {
					gotOut, gotIn := frags[m].OutNeighbors(v), frags[m].InNeighbors(v)
					if !equalIDs(gotOut, refOut[m][v]) {
						t.Fatalf("undirected=%v strategy=%v m=%d v=%d out: %v, want %v",
							undirected, strategy, m, v, gotOut, refOut[m][v])
					}
					if !equalIDs(gotIn, refIn[m][v]) {
						t.Fatalf("undirected=%v strategy=%v m=%d v=%d in: %v, want %v",
							undirected, strategy, m, v, gotIn, refIn[m][v])
					}
				}
			}
		}
	}
}

func equalIDs(a, b []VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFragmentLocalGlobalIndexers(t *testing.T) {
	edges := fragmentTestEdges()
	const n = 10
	vc := NewVertexCut(n, edges, 3, VertexCutGreedy)
	frags := BuildFragments(n, edges, vc, false)
	var totalArcs int64
	for m, f := range frags {
		for lv := int32(0); lv < int32(len(f.l2g)); lv++ {
			v := f.l2g[lv]
			if f.g2l[v] != lv {
				t.Fatalf("m=%d: Local(Global(%d)) = %d", m, lv, f.g2l[v])
			}
			if lv > 0 && f.l2g[lv-1] >= v {
				t.Fatalf("m=%d: l2g not strictly ascending at %d", m, lv)
			}
		}
		// A vertex absent from the fragment reports no neighbors.
		for v := VertexID(0); v < n; v++ {
			if f.g2l[v] < 0 && (len(f.OutNeighbors(v)) != 0 || len(f.InNeighbors(v)) != 0) {
				t.Fatalf("m=%d: absent vertex %d has neighbors", m, v)
			}
		}
		totalArcs += int64(len(f.outTgt))
		if f.MemoryBytes() <= 0 {
			t.Fatalf("m=%d: non-positive memory estimate", m)
		}
	}
	if totalArcs != int64(len(edges)) {
		t.Fatalf("fragments hold %d arcs, want %d (every arc on exactly one machine)", totalArcs, len(edges))
	}
}

func TestUndirectedSelfLoopSingleArc(t *testing.T) {
	// Graphalytics convention: an undirected self-loop contributes one arc
	// (degree 1), both in the global CSR and in the fragments.
	edges := []Edge{{0, 0}, {0, 1}}
	g, err := FromEdges(2, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.OutDegree(0); got != 2 {
		t.Fatalf("degree(0) = %d, want 2 (one self-loop arc + one edge arc)", got)
	}
	if got := g.NumArcs(); got != 3 {
		t.Fatalf("arcs = %d, want 3", got)
	}
	vc := NewVertexCut(2, edges, 2, VertexCutHash)
	frags := BuildFragments(2, edges, vc, true)
	var selfArcs int
	for _, f := range frags {
		for _, o := range f.OutNeighbors(0) {
			if o == 0 {
				selfArcs++
			}
		}
	}
	if selfArcs != 1 {
		t.Fatalf("fragments materialize %d self-loop arcs, want 1", selfArcs)
	}
}
