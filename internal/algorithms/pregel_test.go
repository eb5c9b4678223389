package algorithms

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/pregel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/yarn"
	"repro/internal/zookeeper"
)

// runPregel executes a program over ds on a small simulated deployment and
// returns the vertex values.
func runPregel(t *testing.T, ds *datagen.Dataset, prog pregel.Program, combiner pregel.Combiner) []float64 {
	t.Helper()
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.Config{
		Nodes: 4, CoresPerNode: 8,
		DiskBandwidth: 200e6, NICBandwidth: 500e6, NetLatency: 1e-4,
		SharedFSBandwidth: 300e6, NodeNamePrefix: "node",
	})
	h := dfs.NewHDFS(c, dfs.HDFSConfig{BlockSize: 1 << 20, Replication: 2, NameNodeLatency: 0.001})
	deps := pregel.Deps{
		Cluster:    c,
		RM:         yarn.NewResourceManager(c, yarn.Config{SubmitLatency: 0.1, AllocLatency: 0.01, LaunchLatency: 0.1, LaunchCPUSeconds: 0.05, ReleaseLatency: 0.05}),
		HDFS:       h,
		ZK:         zookeeper.NewService(c.Node(0), zookeeper.Config{OpLatency: 0.004, OpCPUSeconds: 0.0005, ConnectLatency: 0.05}),
		InputPath:  "/in",
		OutputPath: "/out",
	}
	if err := pregel.StageInput(h, "/in", ds, 1); err != nil {
		t.Fatal(err)
	}
	cfg := pregel.Config{
		Workers: 4, ComputeThreads: 4, ParseThreads: 4,
		Combiner: combiner, MaxSupersteps: 500, WorkScale: 1,
		Costs: pregel.CostModel{},
	}
	em := trace.NewEmitter(trace.NewLog(), "alg-test", eng.Now)
	var values []float64
	eng.Spawn("client", func(p *sim.Proc) {
		res, err := pregel.RunJob(p, deps, cfg, prog, ds, em)
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

func directedDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Kind: datagen.SocialNetwork, Vertices: 800, Edges: 4000, Seed: 5, Directed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func undirectedDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Kind: datagen.Uniform, Vertices: 400, Edges: 1200, Seed: 9, Directed: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPregelBFSMatchesReference(t *testing.T) {
	ds := directedDataset(t)
	got := runPregel(t, ds, PregelBFS{Source: 0}, pregel.MinCombiner{})
	want := RefBFS(ds.Graph, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: %v, want %v", v, got[v], want[v])
		}
	}
	// Some vertices should be reached beyond the source.
	reached := 0
	for _, d := range want {
		if !math.IsInf(d, 1) {
			reached++
		}
	}
	if reached < 10 {
		t.Fatalf("only %d vertices reached; test graph too disconnected", reached)
	}
}

func TestPregelSSSPMatchesDijkstra(t *testing.T) {
	ds := directedDataset(t)
	got := runPregel(t, ds, PregelSSSP{Source: 0}, pregel.MinCombiner{})
	want := RefSSSP(ds.Graph, 0)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 && !(math.IsInf(got[v], 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("vertex %d: %v, want %v", v, got[v], want[v])
		}
	}
}

func TestPregelPageRankMatchesReference(t *testing.T) {
	ds := directedDataset(t)
	got := runPregel(t, ds, PregelPageRank{Iterations: 10, Damping: 0.85}, pregel.SumCombiner{})
	want := RefPageRank(ds.Graph, 10, 0.85)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("vertex %d: %v, want %v", v, got[v], want[v])
		}
	}
	// Ranks must sum to ~1 (dangling mass redistributed).
	sum := 0.0
	for _, r := range got {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %v, want 1", sum)
	}
}

func TestPregelWCCMatchesReference(t *testing.T) {
	ds := undirectedDataset(t)
	got := runPregel(t, ds, PregelWCC{}, pregel.MinCombiner{})
	want := RefWCC(ds.Graph)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: component %v, want %v", v, got[v], want[v])
		}
	}
}

func TestPregelCDLPMatchesReference(t *testing.T) {
	ds := undirectedDataset(t)
	got := runPregel(t, ds, PregelCDLP{Iterations: 5}, nil)
	want := RefCDLP(ds.Graph, 5)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: label %v, want %v", v, got[v], want[v])
		}
	}
}

func TestEdgeWeightDeterministicAndBounded(t *testing.T) {
	for u := int64(0); u < 50; u++ {
		for v := int64(0); v < 50; v++ {
			w := EdgeWeight(0+graphVertex(u), graphVertex(v))
			if w < 1 || w > 8 {
				t.Fatalf("weight(%d,%d) = %v out of [1,8]", u, v, w)
			}
			if w != EdgeWeight(graphVertex(u), graphVertex(v)) {
				t.Fatalf("weight(%d,%d) not deterministic", u, v)
			}
		}
	}
}

func TestMostFrequentTieBreak(t *testing.T) {
	if v, ok := mostFrequent([]float64{3, 1, 3, 1}); !ok || v != 1 {
		t.Fatalf("mostFrequent = %v,%v, want 1 (smallest on tie)", v, ok)
	}
	if v, ok := mostFrequent([]float64{2, 2, 5}); !ok || v != 2 {
		t.Fatalf("mostFrequent = %v,%v, want 2", v, ok)
	}
	if _, ok := mostFrequent(nil); ok {
		t.Fatal("mostFrequent(nil) should report not-ok")
	}
}
