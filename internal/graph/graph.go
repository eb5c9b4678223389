// Package graph provides the in-memory graph substrate shared by the
// simulated processing platforms: a compressed-sparse-row representation
// with both out- and in-adjacency, construction from edge lists, and
// degree statistics. Vertices are dense integer IDs in [0, NumVertices).
package graph

import (
	"fmt"
	"sort"
)

// VertexID identifies a vertex. IDs are dense: every ID in
// [0, NumVertices) exists.
type VertexID int64

// Edge is a directed edge from Src to Dst. Undirected graphs store each
// edge once in the input list and materialize both directions.
type Edge struct {
	Src VertexID
	Dst VertexID
}

// Graph is an immutable CSR graph. For directed graphs both the forward
// (out-edges) and reverse (in-edges) adjacency are materialized so that
// push- and pull-style engines can both run. For undirected graphs the two
// coincide.
type Graph struct {
	n        int64
	m        int64 // number of directed arcs stored in outTargets
	directed bool

	outOffsets []int64
	outTargets []VertexID
	inOffsets  []int64
	inTargets  []VertexID
}

// FromEdges builds a graph with n vertices from the given edge list. For
// undirected graphs each input edge {u,v} becomes arcs u->v and v->u —
// except self-loops {v,v}, which materialize a single arc v->v (the
// Graphalytics degree convention: an undirected self-loop contributes 1 to
// the degree, not 2; symmetrizing it would silently double it). Duplicate
// edges are kept (multigraph semantics), matching what platforms see when
// loading raw edge lists. Edges referencing vertices outside [0,n) yield
// an error.
func FromEdges(n int64, edges []Edge, directed bool) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if e.Src < 0 || e.Src >= VertexID(n) || e.Dst < 0 || e.Dst >= VertexID(n) {
			return nil, fmt.Errorf("graph: edge %d->%d out of range [0,%d)", e.Src, e.Dst, n)
		}
	}
	g := &Graph{n: n, directed: directed}
	if directed {
		g.outOffsets, g.outTargets = buildCSR(n, edges, false)
		g.inOffsets, g.inTargets = buildCSR(n, edges, true)
		g.m = int64(len(g.outTargets))
	} else {
		sym := make([]Edge, 0, 2*len(edges))
		sym = append(sym, edges...)
		for _, e := range edges {
			if e.Src == e.Dst {
				continue // self-loop: one arc, not two (see doc comment)
			}
			sym = append(sym, Edge{Src: e.Dst, Dst: e.Src})
		}
		g.outOffsets, g.outTargets = buildCSR(n, sym, false)
		g.inOffsets, g.inTargets = g.outOffsets, g.outTargets
		g.m = int64(len(g.outTargets))
	}
	return g, nil
}

// buildCSR constructs offset/target arrays; when reverse is true the edges
// are transposed. Neighbor lists are sorted for determinism.
func buildCSR(n int64, edges []Edge, reverse bool) ([]int64, []VertexID) {
	offsets := make([]int64, n+1)
	for _, e := range edges {
		src := e.Src
		if reverse {
			src = e.Dst
		}
		offsets[src+1]++
	}
	for i := int64(0); i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	targets := make([]VertexID, len(edges))
	cursor := make([]int64, n)
	for _, e := range edges {
		src, dst := e.Src, e.Dst
		if reverse {
			src, dst = dst, src
		}
		targets[offsets[src]+cursor[src]] = dst
		cursor[src]++
	}
	for v := int64(0); v < n; v++ {
		seg := targets[offsets[v]:offsets[v+1]]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
	}
	return offsets, targets
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int64 { return g.n }

// NumArcs returns the number of stored directed arcs. For an undirected
// graph this is twice the number of input edges.
func (g *Graph) NumArcs() int64 { return g.m }

// Directed reports whether the graph was built as directed.
func (g *Graph) Directed() bool { return g.directed }

// OutDegree returns the number of out-neighbors of v.
func (g *Graph) OutDegree(v VertexID) int64 {
	return g.outOffsets[v+1] - g.outOffsets[v]
}

// InDegree returns the number of in-neighbors of v.
func (g *Graph) InDegree(v VertexID) int64 {
	return g.inOffsets[v+1] - g.inOffsets[v]
}

// OutNeighbors returns the out-neighbors of v, sorted ascending. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v VertexID) []VertexID {
	return g.outTargets[g.outOffsets[v]:g.outOffsets[v+1]]
}

// InNeighbors returns the in-neighbors of v, sorted ascending. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	return g.inTargets[g.inOffsets[v]:g.inOffsets[v+1]]
}
