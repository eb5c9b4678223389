package algorithms

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/gas"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runGAS executes a GAS program over ds on a small simulated deployment.
func runGAS(t *testing.T, ds *datagen.Dataset, prog gas.Program) []float64 {
	t.Helper()
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.Config{
		Nodes: 4, CoresPerNode: 8,
		DiskBandwidth: 200e6, NICBandwidth: 500e6,
		SharedFSBandwidth: 300e6, NodeNamePrefix: "node",
	})
	store := dfs.NewSharedStore(c)
	deps := gas.Deps{
		Cluster:    c,
		Store:      store,
		MPI:        mpi.Config{SpawnLatency: 0.15, FinalizeLatency: 0.2},
		InputPath:  "/in",
		OutputPath: "/out",
	}
	if err := gas.StageInput(store, "/in", ds, 1); err != nil {
		t.Fatal(err)
	}
	cfg := gas.Config{
		Machines: 4, LoadThreads: 4, ComputeThreads: 4,
		CutStrategy: graph.VertexCutHash, MaxIterations: 500,
		ChunkBytes: 64 << 10, WorkScale: 1, Costs: gas.CostModel{},
	}
	em := trace.NewEmitter(trace.NewLog(), "gas-alg-test", eng.Now)
	var values []float64
	eng.Spawn("client", func(p *sim.Proc) {
		res, err := gas.RunJob(p, deps, cfg, prog, ds, em)
		if err != nil {
			t.Error(err)
			return
		}
		values = res.Values
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return values
}

func TestGASBFSMatchesReference(t *testing.T) {
	ds := directedDataset(t)
	got := runGAS(t, ds, GASBFS{Source: 0})
	want := RefBFS(ds.Graph, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: %v, want %v", v, got[v], want[v])
		}
	}
}

func TestGASSSSPMatchesDijkstra(t *testing.T) {
	ds := directedDataset(t)
	got := runGAS(t, ds, GASSSSP{Source: 0})
	want := RefSSSP(ds.Graph, 0)
	for v := range want {
		same := got[v] == want[v] ||
			math.Abs(got[v]-want[v]) < 1e-9 ||
			(math.IsInf(got[v], 1) && math.IsInf(want[v], 1))
		if !same {
			t.Fatalf("vertex %d: %v, want %v", v, got[v], want[v])
		}
	}
}

func TestGASWCCMatchesReference(t *testing.T) {
	ds := undirectedDataset(t)
	got := runGAS(t, ds, GASWCC{})
	want := RefWCC(ds.Graph)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: component %v, want %v", v, got[v], want[v])
		}
	}
}

func TestGASPageRankMatchesPlainReference(t *testing.T) {
	ds := directedDataset(t)
	got := runGAS(t, ds, NewGASPageRank(ds.Graph, 10, 0.85))
	want := RefPageRankPlain(ds.Graph, 10, 0.85)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("vertex %d: %v, want %v", v, got[v], want[v])
		}
	}
}

func TestPregelAndGASBFSAgree(t *testing.T) {
	ds := directedDataset(t)
	fromGAS := runGAS(t, ds, GASBFS{Source: 3})
	fromPregel := runPregel(t, ds, PregelBFS{Source: 3}, nil)
	for v := range fromGAS {
		if fromGAS[v] != fromPregel[v] {
			t.Fatalf("vertex %d: GAS %v vs Pregel %v", v, fromGAS[v], fromPregel[v])
		}
	}
}
