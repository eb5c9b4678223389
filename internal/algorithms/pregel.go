// Package algorithms provides the Graphalytics core algorithms for both
// simulated platforms — vertex programs for the Pregel (Giraph-like) model
// and vertex programs for the GAS (PowerGraph-like) model — together with
// sequential reference implementations used to verify platform output.
// BFS is the algorithm the Granula paper evaluates; the others round out
// the Graphalytics suite the paper's benchmarking work builds on.
package algorithms

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/pregel"
)

// unreached is the vertex value of vertices not reached by a traversal.
var unreached = math.Inf(1)

// PregelBFS is breadth-first search from Source: the vertex value becomes
// the hop distance from the source, or +Inf if unreached. Use
// pregel.MinCombiner.
type PregelBFS struct {
	Source graph.VertexID
}

// Compute implements pregel.Program.
func (b PregelBFS) Compute(ctx *pregel.Context, msgs []float64) {
	if ctx.Superstep() == 0 {
		if ctx.ID() == b.Source {
			ctx.SetValue(0)
			ctx.SendToAllNeighbors(1)
		} else {
			ctx.SetValue(unreached)
		}
		ctx.VoteToHalt()
		return
	}
	best := ctx.Value()
	for _, m := range msgs {
		if m < best {
			best = m
		}
	}
	if best < ctx.Value() {
		ctx.SetValue(best)
		ctx.SendToAllNeighbors(best + 1)
	}
	ctx.VoteToHalt()
}

// EdgeWeight returns the deterministic weight of edge (u,v) used by SSSP:
// an integer in [1, 8] derived from a hash of the endpoints, standing in
// for the property weights of a real dataset.
func EdgeWeight(u, v graph.VertexID) float64 {
	x := uint64(u)*0x9e3779b97f4a7c15 ^ uint64(v)*0xc2b2ae3d27d4eb4f
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return float64(1 + x%8)
}

// PregelSSSP is single-source shortest paths with EdgeWeight weights. Use
// pregel.MinCombiner.
type PregelSSSP struct {
	Source graph.VertexID
}

// Compute implements pregel.Program.
func (s PregelSSSP) Compute(ctx *pregel.Context, msgs []float64) {
	relax := func(dist float64) {
		for _, dst := range ctx.OutNeighbors() {
			ctx.SendTo(dst, dist+EdgeWeight(ctx.ID(), dst))
		}
	}
	if ctx.Superstep() == 0 {
		if ctx.ID() == s.Source {
			ctx.SetValue(0)
			relax(0)
		} else {
			ctx.SetValue(unreached)
		}
		ctx.VoteToHalt()
		return
	}
	best := ctx.Value()
	for _, m := range msgs {
		if m < best {
			best = m
		}
	}
	if best < ctx.Value() {
		ctx.SetValue(best)
		relax(best)
	}
	ctx.VoteToHalt()
}

// PregelPageRank runs a fixed number of PageRank iterations with damping
// factor Damping (0.85 in Graphalytics). Dangling-vertex mass is
// redistributed through the "dangling" aggregator. Use pregel.SumCombiner.
type PregelPageRank struct {
	Iterations int
	Damping    float64
}

// Compute implements pregel.Program.
func (pr PregelPageRank) Compute(ctx *pregel.Context, msgs []float64) {
	n := float64(ctx.NumVertices())
	d := pr.Damping
	switch {
	case ctx.Superstep() == 0:
		ctx.SetValue(1 / n)
	case ctx.Superstep() <= pr.Iterations:
		sum := 0.0
		for _, m := range msgs {
			sum += m
		}
		dangling := ctx.AggregatedValue("dangling")
		ctx.SetValue((1-d)/n + d*(sum+dangling/n))
	}
	if ctx.Superstep() < pr.Iterations {
		if deg := ctx.OutDegree(); deg > 0 {
			ctx.SendToAllNeighbors(ctx.Value() / float64(deg))
		} else {
			ctx.Aggregate("dangling", ctx.Value())
		}
		return // stay active for the next iteration
	}
	ctx.VoteToHalt()
}

// PregelWCC labels every vertex with the smallest vertex ID in its
// connected component. Run it on graphs loaded as undirected (the
// Graphalytics definition); on a directed graph it propagates along
// out-edges only. Use pregel.MinCombiner.
type PregelWCC struct{}

// Compute implements pregel.Program.
func (PregelWCC) Compute(ctx *pregel.Context, msgs []float64) {
	if ctx.Superstep() == 0 {
		ctx.SetValue(float64(ctx.ID()))
		ctx.SendToAllNeighbors(float64(ctx.ID()))
		ctx.VoteToHalt()
		return
	}
	best := ctx.Value()
	for _, m := range msgs {
		if m < best {
			best = m
		}
	}
	if best < ctx.Value() {
		ctx.SetValue(best)
		ctx.SendToAllNeighbors(best)
	}
	ctx.VoteToHalt()
}

// PregelCDLP is community detection by label propagation, run for a fixed
// number of iterations; the value is the final community label. It must
// run without a combiner (it needs label frequencies).
type PregelCDLP struct {
	Iterations int
}

// Compute implements pregel.Program.
func (c PregelCDLP) Compute(ctx *pregel.Context, msgs []float64) {
	if ctx.Superstep() == 0 {
		ctx.SetValue(float64(ctx.ID()))
		if c.Iterations > 0 {
			ctx.SendToAllNeighbors(ctx.Value())
			return
		}
		ctx.VoteToHalt()
		return
	}
	if ctx.Superstep() <= c.Iterations {
		if label, ok := mostFrequent(msgs); ok {
			ctx.SetValue(label)
		}
	}
	if ctx.Superstep() < c.Iterations {
		ctx.SendToAllNeighbors(ctx.Value())
		return
	}
	ctx.VoteToHalt()
}

// mostFrequent returns the most frequent value, breaking ties toward the
// smallest value (the Graphalytics CDLP rule). It sorts msgs in place and
// counts runs — no per-call map, so a CDLP superstep allocates nothing per
// active vertex. Mutating msgs is safe: the engine delivers each vertex a
// private inbox slice read only by that vertex's Compute call, and the
// result is order-independent by construction (sorting discards delivery
// order; equal counts resolve to the smallest label, which a sorted scan
// visits first).
func mostFrequent(msgs []float64) (float64, bool) {
	if len(msgs) == 0 {
		return 0, false
	}
	sort.Float64s(msgs)
	best, bestCount := msgs[0], 1
	runVal, runCount := msgs[0], 1
	for _, m := range msgs[1:] {
		if m == runVal {
			runCount++
		} else {
			runVal, runCount = m, 1
		}
		// Strict > keeps the smallest label on ties: values arrive in
		// ascending order, so an equal count never displaces best.
		if runCount > bestCount {
			best, bestCount = runVal, runCount
		}
	}
	return best, true
}
