package algorithms

import (
	"math"

	"repro/internal/gas"
	"repro/internal/graph"
)

// GASBFS is breadth-first search in the GAS model: pull the minimum
// neighbor distance over in-edges, apply the minimum, and signal
// out-neighbors that can improve. Matches RefBFS on any directed graph.
type GASBFS struct {
	Source graph.VertexID
}

// Init implements gas.Program.
func (b GASBFS) Init(v graph.VertexID, _ *graph.Graph) (float64, bool) {
	if v == b.Source {
		return 0, true
	}
	return unreached, false
}

// GatherDir implements gas.Program.
func (GASBFS) GatherDir() gas.Direction { return gas.In }

// Gather implements gas.Program.
func (GASBFS) Gather(_ int, _, _ graph.VertexID, otherValue float64) float64 {
	return otherValue + 1
}

// Sum implements gas.Program.
func (GASBFS) Sum(a, b float64) float64 { return math.Min(a, b) }

// Apply implements gas.Program.
func (GASBFS) Apply(_ int, _ graph.VertexID, old, acc float64, hasAcc bool) float64 {
	if hasAcc && acc < old {
		return acc
	}
	return old
}

// ScatterDir implements gas.Program.
func (GASBFS) ScatterDir() gas.Direction { return gas.Out }

// Scatter implements gas.Program.
func (GASBFS) Scatter(_ int, _, _ graph.VertexID, value, otherValue float64) bool {
	return value+1 < otherValue
}

// GASSSSP is single-source shortest paths with EdgeWeight weights in the
// GAS model. Matches RefSSSP.
type GASSSSP struct {
	Source graph.VertexID
}

// Init implements gas.Program.
func (s GASSSSP) Init(v graph.VertexID, _ *graph.Graph) (float64, bool) {
	if v == s.Source {
		return 0, true
	}
	return unreached, false
}

// GatherDir implements gas.Program.
func (GASSSSP) GatherDir() gas.Direction { return gas.In }

// Gather implements gas.Program.
func (GASSSSP) Gather(_ int, v, other graph.VertexID, otherValue float64) float64 {
	return otherValue + EdgeWeight(other, v)
}

// Sum implements gas.Program.
func (GASSSSP) Sum(a, b float64) float64 { return math.Min(a, b) }

// Apply implements gas.Program.
func (GASSSSP) Apply(_ int, _ graph.VertexID, old, acc float64, hasAcc bool) float64 {
	if hasAcc && acc < old {
		return acc
	}
	return old
}

// ScatterDir implements gas.Program.
func (GASSSSP) ScatterDir() gas.Direction { return gas.Out }

// Scatter implements gas.Program.
func (GASSSSP) Scatter(_ int, v, other graph.VertexID, value, otherValue float64) bool {
	return value+EdgeWeight(v, other) < otherValue
}

// GASWCC labels vertices with the smallest ID in their component,
// propagating over both edge directions. Run on undirected graphs for the
// Graphalytics WCC semantics; gathering In suffices there because the
// stored adjacency is symmetric.
type GASWCC struct{}

// Init implements gas.Program.
func (GASWCC) Init(v graph.VertexID, _ *graph.Graph) (float64, bool) {
	return float64(v), true
}

// GatherDir implements gas.Program.
func (GASWCC) GatherDir() gas.Direction { return gas.In }

// Gather implements gas.Program.
func (GASWCC) Gather(_ int, _, _ graph.VertexID, otherValue float64) float64 {
	return otherValue
}

// Sum implements gas.Program.
func (GASWCC) Sum(a, b float64) float64 { return math.Min(a, b) }

// Apply implements gas.Program.
func (GASWCC) Apply(_ int, _ graph.VertexID, old, acc float64, hasAcc bool) float64 {
	if hasAcc && acc < old {
		return acc
	}
	return old
}

// ScatterDir implements gas.Program.
func (GASWCC) ScatterDir() gas.Direction { return gas.Out }

// Scatter implements gas.Program.
func (GASWCC) Scatter(_ int, _, _ graph.VertexID, value, otherValue float64) bool {
	return value < otherValue
}

// gasPageRank runs a fixed number of PageRank iterations in the GAS
// model, reading neighbor out-degrees from the captured graph. As in
// PowerGraph's canonical implementation, dangling-vertex mass is NOT
// redistributed (compare RefPageRankPlain, not RefPageRank).
type gasPageRank struct {
	iterations int
	damping    float64
	g          *graph.Graph
	n          float64
}

// NewGASPageRank returns a GAS PageRank program over g with the given
// fixed iteration count and damping factor.
func NewGASPageRank(g *graph.Graph, iterations int, damping float64) gas.Program {
	return &gasPageRank{
		iterations: iterations,
		damping:    damping,
		g:          g,
		n:          float64(g.NumVertices()),
	}
}

// Init implements gas.Program.
func (pr *gasPageRank) Init(graph.VertexID, *graph.Graph) (float64, bool) {
	return 1 / pr.n, true
}

// GatherDir implements gas.Program.
func (*gasPageRank) GatherDir() gas.Direction { return gas.In }

// Gather implements gas.Program.
func (pr *gasPageRank) Gather(_ int, _, other graph.VertexID, otherValue float64) float64 {
	deg := pr.g.OutDegree(other)
	if deg == 0 {
		return 0
	}
	return otherValue / float64(deg)
}

// Sum implements gas.Program.
func (*gasPageRank) Sum(a, b float64) float64 { return a + b }

// Apply implements gas.Program.
func (pr *gasPageRank) Apply(_ int, _ graph.VertexID, _, acc float64, hasAcc bool) float64 {
	sum := 0.0
	if hasAcc {
		sum = acc
	}
	return (1-pr.damping)/pr.n + pr.damping*sum
}

// ScatterDir implements gas.Program.
func (*gasPageRank) ScatterDir() gas.Direction { return gas.Out }

// Scatter implements gas.Program.
func (pr *gasPageRank) Scatter(iter int, _, _ graph.VertexID, _, _ float64) bool {
	return iter < pr.iterations-1
}

// RefPageRankPlain is RefPageRank without dangling-mass redistribution,
// matching the GAS PageRank semantics.
func RefPageRankPlain(g *graph.Graph, iterations int, damping float64) []float64 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		for i := range next {
			next[i] = 0
		}
		for v := int64(0); v < n; v++ {
			deg := g.OutDegree(graph.VertexID(v))
			if deg == 0 {
				continue
			}
			share := rank[v] / float64(deg)
			for _, w := range g.OutNeighbors(graph.VertexID(v)) {
				next[w] += share
			}
		}
		for i := range next {
			next[i] = (1-damping)/float64(n) + damping*next[i]
		}
		rank, next = next, rank
	}
	return rank
}
