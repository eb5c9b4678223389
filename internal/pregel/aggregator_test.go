package pregel

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// counter is a program that uses the aggregator API directly: in each
// superstep every vertex contributes 1 to the "active" aggregator, and in
// the next superstep reads the previous total. It runs a fixed number of
// rounds and stores the last observed aggregate as its value.
type counter struct {
	rounds int
}

func (c counter) Compute(ctx *Context, msgs []float64) {
	if ctx.Superstep() < c.rounds {
		ctx.Aggregate("active", 1)
		ctx.SetValue(ctx.AggregatedValue("active"))
		return // stay active
	}
	ctx.SetValue(ctx.AggregatedValue("active"))
	ctx.VoteToHalt()
}

func TestAggregatorsAcrossSupersteps(t *testing.T) {
	ds := testDataset(t)
	env := newTestEnv(t, ds, 1)
	res := runJob(t, env, testJobConfig(4), counter{rounds: 3}, ds)

	n := float64(ds.Graph.NumVertices())
	// At superstep 0, AggregatedValue is 0 (nothing aggregated yet).
	// At supersteps 1..3, it is n (every vertex contributed last round).
	// The final value read at superstep 3 must be n.
	for v, val := range res.Values {
		if val != n {
			t.Fatalf("vertex %d read aggregate %v, want %v", v, val, n)
		}
	}
	if res.Supersteps != 4 {
		t.Fatalf("supersteps = %d, want 4", res.Supersteps)
	}
}

// echoDegree exercises OutDegree/OutNeighbors/NumVertices/NumEdges from
// the context.
type echoDegree struct{}

func (echoDegree) Compute(ctx *Context, msgs []float64) {
	if ctx.Superstep() == 0 {
		if int64(len(ctx.OutNeighbors())) != ctx.OutDegree() {
			panic("neighbor count disagrees with degree")
		}
		if ctx.NumVertices() <= 0 {
			panic("graph size accessors broken")
		}
		ctx.SetValue(float64(ctx.OutDegree()))
	}
	ctx.VoteToHalt()
}

func TestContextTopologyAccessors(t *testing.T) {
	ds := testDataset(t)
	env := newTestEnv(t, ds, 1)
	res := runJob(t, env, testJobConfig(2), echoDegree{}, ds)
	for v := int64(0); v < ds.Graph.NumVertices(); v++ {
		if res.Values[v] != float64(ds.Graph.OutDegree(graphVertex(v))) {
			t.Fatalf("vertex %d degree = %v, want %d", v, res.Values[v], ds.Graph.OutDegree(graphVertex(v)))
		}
	}
}

// badSend exercises the engine's send validation.
type badSend struct{}

func (badSend) Compute(ctx *Context, msgs []float64) {
	ctx.SendTo(-1, 0)
}

func TestSendToUnknownVertexFails(t *testing.T) {
	ds := testDataset(t)
	env := newTestEnv(t, ds, 1)
	var jobErr error
	env.eng.Spawn("client", func(p *sim.Proc) {
		_, jobErr = RunJob(p, env.deps, testJobConfig(2), badSend{}, ds, env.em)
	})
	err := env.eng.Run()
	// The panic inside the vertex program surfaces as a simulation fault.
	if err == nil && jobErr == nil {
		t.Fatal("expected a failure for message to unknown vertex")
	}
}

func graphVertex(v int64) graph.VertexID { return graph.VertexID(v) }
