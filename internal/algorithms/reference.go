package algorithms

import (
	"container/heap"
	"math"

	"repro/internal/graph"
)

// This file holds sequential reference implementations. They serve two
// purposes: verifying platform output in tests (the platforms must produce
// exactly these results), and acting as the single-machine baseline the
// distributed platforms are compared against.

// RefBFS returns hop distances from src over out-edges; unreached vertices
// get +Inf.
func RefBFS(g *graph.Graph, src graph.VertexID) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = unreached
	}
	if n == 0 {
		return dist
	}
	dist[src] = 0
	queue := []graph.VertexID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.OutNeighbors(v) {
			if math.IsInf(dist[w], 1) {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// RefSSSP returns shortest-path distances from src using EdgeWeight
// weights (Dijkstra); unreached vertices get +Inf.
func RefSSSP(g *graph.Graph, src graph.VertexID) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = unreached
	}
	if n == 0 {
		return dist
	}
	dist[src] = 0
	pq := &vertexHeap{{v: src, d: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(vertexDist)
		if item.d > dist[item.v] {
			continue
		}
		for _, w := range g.OutNeighbors(item.v) {
			nd := item.d + EdgeWeight(item.v, w)
			if nd < dist[w] {
				dist[w] = nd
				heap.Push(pq, vertexDist{v: w, d: nd})
			}
		}
	}
	return dist
}

type vertexDist struct {
	v graph.VertexID
	d float64
}

type vertexHeap []vertexDist

func (h vertexHeap) Len() int           { return len(h) }
func (h vertexHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h vertexHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *vertexHeap) Push(x any)        { *h = append(*h, x.(vertexDist)) }
func (h *vertexHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	*h = old[:n-1]
	return out
}

// RefPageRank runs the same fixed-iteration PageRank as PregelPageRank:
// dangling mass is redistributed uniformly each iteration.
func RefPageRank(g *graph.Graph, iterations int, damping float64) []float64 {
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
		dangling := 0.0
		for i := range next {
			next[i] = 0
		}
		for v := int64(0); v < n; v++ {
			deg := g.OutDegree(graph.VertexID(v))
			if deg == 0 {
				dangling += rank[v]
				continue
			}
			share := rank[v] / float64(deg)
			for _, w := range g.OutNeighbors(graph.VertexID(v)) {
				next[w] += share
			}
		}
		for i := range next {
			next[i] = (1-damping)/float64(n) + damping*(next[i]+dangling/float64(n))
		}
		rank, next = next, rank
	}
	return rank
}

// RefWCC labels every vertex with the smallest vertex ID reachable along
// out-edges treated per the graph's stored adjacency. On an undirected
// graph this is the weakly-connected-component label.
func RefWCC(g *graph.Graph) []float64 {
	n := g.NumVertices()
	label := make([]float64, n)
	for v := int64(0); v < n; v++ {
		label[v] = float64(v)
	}
	// Iterate min-label propagation to a fixed point; O(n·diam) worst
	// case, fine at test scale.
	changed := true
	for changed {
		changed = false
		for v := int64(0); v < n; v++ {
			for _, w := range g.OutNeighbors(graph.VertexID(v)) {
				if label[v] < label[w] {
					label[w] = label[v]
					changed = true
				}
			}
		}
	}
	return label
}

// RefCDLP runs synchronous label propagation for the given iterations with
// the smallest-label tie-break, matching PregelCDLP on undirected graphs.
func RefCDLP(g *graph.Graph, iterations int) []float64 {
	n := g.NumVertices()
	label := make([]float64, n)
	next := make([]float64, n)
	for v := int64(0); v < n; v++ {
		label[v] = float64(v)
	}
	for it := 0; it < iterations; it++ {
		for v := int64(0); v < n; v++ {
			counts := map[float64]int{}
			for _, w := range g.InNeighbors(graph.VertexID(v)) {
				counts[label[w]]++
			}
			if len(counts) == 0 {
				next[v] = label[v]
				continue
			}
			best, bestCount := 0.0, -1
			for l, c := range counts {
				if c > bestCount || (c == bestCount && l < best) {
					best, bestCount = l, c
				}
			}
			next[v] = best
		}
		label, next = next, label
	}
	return label
}

// RefLCC returns each vertex's local clustering coefficient, treating the
// graph as undirected: the fraction of pairs of distinct neighbors that
// are themselves connected (in either direction). Vertices with fewer than
// two neighbors get 0.
func RefLCC(g *graph.Graph) []float64 {
	n := g.NumVertices()
	out := make([]float64, n)
	// neighbor sets combining in- and out-adjacency, deduplicated
	nbrs := make([]map[graph.VertexID]bool, n)
	for v := int64(0); v < n; v++ {
		set := map[graph.VertexID]bool{}
		for _, w := range g.OutNeighbors(graph.VertexID(v)) {
			if w != graph.VertexID(v) {
				set[w] = true
			}
		}
		for _, w := range g.InNeighbors(graph.VertexID(v)) {
			if w != graph.VertexID(v) {
				set[w] = true
			}
		}
		nbrs[v] = set
	}
	for v := int64(0); v < n; v++ {
		k := len(nbrs[v])
		if k < 2 {
			continue
		}
		links := 0
		for a := range nbrs[v] {
			for b := range nbrs[v] {
				if a != b && nbrs[a][b] {
					links++
				}
			}
		}
		out[v] = float64(links) / float64(k*(k-1))
	}
	return out
}
