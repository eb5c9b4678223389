package pregel

import (
	"errors"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/sim"
)

// chatter is an always-active vertex program: every superstep each vertex
// folds its inbox and re-broadcasts, so every superstep exercises the full
// compute → combine → deliver path with no convergence.
type chatter struct{}

func (chatter) Compute(ctx *Context, msgs []float64) {
	sum := 0.0
	for _, m := range msgs {
		sum += m
	}
	ctx.SetValue(sum)
	ctx.SendToAllNeighbors(1)
}

func kernelGraph(t *testing.T) *graph.Graph {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Kind: datagen.SocialNetwork, Vertices: 2000, Edges: 10000, Seed: 11, Directed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Graph
}

// maxSuperstepAllocs is the steady-state allocation budget for one full
// superstep (prepareSuperstep + swapBuffers) at host parallelism 1. The
// only remaining allocations are sim.HostPool.ForkJoin's bookkeeping (its
// per-call panic-capture slice and wrapper closure); the message arena,
// outboxes, owned lists, and worker Contexts are all preallocated and
// reused. At parallelism > 1 the fork additionally spins up its worker
// goroutines, hence the larger parallel budget.
const (
	maxSuperstepAllocs         = 4
	maxSuperstepAllocsParallel = 16
)

func TestSuperstepKernelAllocs(t *testing.T) {
	g := kernelGraph(t)
	for _, tc := range []struct {
		name     string
		par      int
		combiner Combiner
		budget   float64
	}{
		{"serial-combined", 1, MinCombiner{}, maxSuperstepAllocs},
		{"serial-uncombined", 1, nil, maxSuperstepAllocs},
		{"parallel-combined", 4, MinCombiner{}, maxSuperstepAllocsParallel},
	} {
		t.Run(tc.name, func(t *testing.T) {
			js := newJobState(g, graph.NewHashPartitioner(4), 4, tc.combiner, sim.NewHostPool(tc.par))
			step := 0
			drive := func() {
				js.prepareSuperstep(chatter{}, step)
				js.swapBuffers()
				step++
			}
			// Let buffers grow to steady-state capacity first.
			for i := 0; i < 4; i++ {
				drive()
			}
			allocs := testing.AllocsPerRun(20, drive)
			t.Logf("allocs/superstep = %v", allocs)
			if allocs > tc.budget {
				t.Errorf("steady-state superstep allocates %v times, budget %v", allocs, tc.budget)
			}
		})
	}
}

// TestArenaMatchesAppendOrder pins the arena delivery order to the
// historical per-vertex append order: worker-index order, then each
// worker's send order.
func TestArenaMatchesAppendOrder(t *testing.T) {
	g := kernelGraph(t)
	js := newJobState(g, graph.NewHashPartitioner(4), 4, nil, sim.NewHostPool(1))
	js.prepareSuperstep(chatter{}, 0)

	// Reference delivery: plain appends over outboxes in worker order.
	want := make([][]float64, g.NumVertices())
	for _, out := range js.outboxes {
		for i, dst := range out.dsts {
			want[dst] = append(want[dst], out.vals[i])
		}
	}
	js.swapBuffers()
	for v := int64(0); v < g.NumVertices(); v++ {
		got := js.arenaCur.msgs(graph.VertexID(v))
		if len(got) != len(want[v]) {
			t.Fatalf("vertex %d: %d messages, want %d", v, len(got), len(want[v]))
		}
		for i := range got {
			if got[i] != want[v][i] {
				t.Fatalf("vertex %d message %d: %v, want %v", v, i, got[i], want[v][i])
			}
		}
	}
}

// misbehaving sends to a vertex that does not exist on superstep 1.
type misbehaving struct{ rogue graph.VertexID }

func (m misbehaving) Compute(ctx *Context, msgs []float64) {
	if ctx.Superstep() == 0 {
		ctx.SendToAllNeighbors(1)
		return
	}
	if ctx.ID() == m.rogue {
		ctx.SendTo(graph.VertexID(ctx.NumVertices())+7, 1)
	}
	ctx.VoteToHalt()
}

// TestMisbehavingProgramFailsJobNotEngine is the regression test for the
// out-of-range SendTo: the job must return a vertexProgramError instead of
// panicking the engine, and the simulation must wind down cleanly.
func TestMisbehavingProgramFailsJobNotEngine(t *testing.T) {
	ds := testDataset(t)
	for _, par := range []int{1, 4} {
		env := newTestEnv(t, ds, 1)
		cfg := testJobConfig(4)
		cfg.HostParallelism = par
		var jobErr error
		env.eng.Spawn("client", func(p *sim.Proc) {
			_, jobErr = RunJob(p, env.deps, cfg, misbehaving{rogue: 3}, ds, env.em)
		})
		if err := env.eng.Run(); err != nil {
			t.Fatalf("par=%d: engine failed: %v", par, err)
		}
		if n := env.eng.Shutdown(); n != 0 {
			t.Fatalf("par=%d: leaked %d processes after failed job", par, n)
		}
		var vpe *vertexProgramError
		if jobErr == nil {
			t.Fatalf("par=%d: job succeeded despite out-of-range SendTo", par)
		}
		if !errors.As(jobErr, &vpe) {
			t.Fatalf("par=%d: error %v is not a vertexProgramError", par, jobErr)
		}
		if vpe.Vertex != 3 || vpe.Superstep != 1 {
			t.Fatalf("par=%d: error %+v, want vertex 3 at superstep 1", par, vpe)
		}
	}
}
