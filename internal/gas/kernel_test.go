package gas

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
)

// churn is an always-active GAS program: every vertex gathers over both
// directions, always changes its value, and always re-activates its
// neighborhood — the worst case for per-iteration buffer churn.
type churn struct{}

func (churn) Init(graph.VertexID, *graph.Graph) (float64, bool) { return 0, true }
func (churn) GatherDir() Direction                              { return both }
func (churn) Gather(_ int, _, _ graph.VertexID, otherValue float64) float64 {
	return otherValue + 1
}
func (churn) Sum(a, b float64) float64 { return a + b }
func (churn) Apply(_ int, _ graph.VertexID, old, acc float64, _ bool) float64 {
	return old + acc + 1
}
func (churn) ScatterDir() Direction { return Out }
func (churn) Scatter(int, graph.VertexID, graph.VertexID, float64, float64) bool {
	return true
}

// maxIterationAllocs is the steady-state allocation budget for one full
// GAS iteration (ensurePrepared + finishIteration) at host parallelism 1.
// The three phase fan-outs each pay sim.HostPool.ForkJoin's bookkeeping
// (panic-capture slice + wrapper closure); the fragments, shard counters,
// accumulators, and active list are all preallocated and reused. At
// parallelism > 1 each fork additionally spins up its worker goroutines.
const (
	maxIterationAllocs         = 8
	maxIterationAllocsParallel = 40
)

func kernelDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Kind: datagen.SocialNetwork, Vertices: 2000, Edges: 10000, Seed: 11, Directed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGASIterationKernelAllocs(t *testing.T) {
	ds := kernelDataset(t)
	for _, tc := range []struct {
		name   string
		par    int
		budget float64
	}{
		{"serial", 1, maxIterationAllocs},
		{"parallel", 4, maxIterationAllocsParallel},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newState(ds.Graph, ds.Edges, 4, graph.VertexCutGreedy, tc.par, churn{})
			drive := func() {
				st.ensurePrepared(churn{}, st.iter)
				st.finishIteration()
			}
			// Let the active list and shard buffers reach steady capacity.
			for i := 0; i < 4; i++ {
				drive()
			}
			allocs := testing.AllocsPerRun(20, drive)
			t.Logf("allocs/iteration = %v", allocs)
			if allocs > tc.budget {
				t.Errorf("steady-state iteration allocates %v times, budget %v", allocs, tc.budget)
			}
		})
	}
}
