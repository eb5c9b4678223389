package single

import (
	"math"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

func testDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Kind: datagen.SocialNetwork, Vertices: 1000, Edges: 5000, Seed: 13, Directed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func runSingle(t *testing.T, ds *datagen.Dataset, kernel Kernel, scale float64) (*Result, *trace.Log) {
	t.Helper()
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.Config{
		Nodes: 1, CoresPerNode: 8,
		DiskBandwidth: 200e6, NICBandwidth: 1e9, SharedFSBandwidth: 1e9,
		NodeNamePrefix: "n",
	})
	log := trace.NewLog()
	em := trace.NewEmitter(log, "single-test", eng.Now)
	deps := Deps{Cluster: c, InputBytes: StageInput(ds, scale), OutputPath: "/out"}
	cfg := DefaultConfig()
	cfg.Threads = 8
	cfg.WorkScale = scale
	var res *Result
	var jobErr error
	eng.Spawn("client", func(p *sim.Proc) {
		res, jobErr = RunJob(p, deps, cfg, kernel, ds, em)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if jobErr != nil {
		t.Fatal(jobErr)
	}
	return res, log
}

func TestBFSKernelMatchesReference(t *testing.T) {
	ds := testDataset(t)
	res, _ := runSingle(t, ds, BFSKernel{Source: 0}, 1)
	want := algorithms.RefBFS(ds.Graph, 0)
	for v := range want {
		if res.Values[v] != want[v] {
			t.Fatalf("vertex %d: %v, want %v", v, res.Values[v], want[v])
		}
	}
	if res.Iterations < 2 || res.Runtime <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestSSSPKernelMatchesReference(t *testing.T) {
	ds := testDataset(t)
	res, _ := runSingle(t, ds, SSSPKernel{Source: 0}, 1)
	want := algorithms.RefSSSP(ds.Graph, 0)
	for v := range want {
		same := res.Values[v] == want[v] ||
			math.Abs(res.Values[v]-want[v]) < 1e-9 ||
			(math.IsInf(res.Values[v], 1) && math.IsInf(want[v], 1))
		if !same {
			t.Fatalf("vertex %d: %v, want %v", v, res.Values[v], want[v])
		}
	}
}

func TestPageRankKernelMatchesReference(t *testing.T) {
	ds := testDataset(t)
	res, _ := runSingle(t, ds, PageRankKernel{Iterations: 8, Damping: 0.85}, 1)
	want := algorithms.RefPageRank(ds.Graph, 8, 0.85)
	for v := range want {
		if math.Abs(res.Values[v]-want[v]) > 1e-12 {
			t.Fatalf("vertex %d: %v, want %v", v, res.Values[v], want[v])
		}
	}
	if res.Iterations != 8 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}

func TestWCCAndCDLPAndLCCKernels(t *testing.T) {
	und, err := datagen.Generate(datagen.Config{
		Kind: datagen.Uniform, Vertices: 300, Edges: 900, Seed: 3, Directed: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runSingle(t, und, WCCKernel{}, 1)
	want := algorithms.RefWCC(und.Graph)
	for v := range want {
		if res.Values[v] != want[v] {
			t.Fatalf("WCC vertex %d: %v, want %v", v, res.Values[v], want[v])
		}
	}
	res, _ = runSingle(t, und, CDLPKernel{Iterations: 4}, 1)
	wantC := algorithms.RefCDLP(und.Graph, 4)
	for v := range wantC {
		if res.Values[v] != wantC[v] {
			t.Fatalf("CDLP vertex %d: %v, want %v", v, res.Values[v], wantC[v])
		}
	}
	res, _ = runSingle(t, und, LCCKernel{}, 1)
	wantL := algorithms.RefLCC(und.Graph)
	for v := range wantL {
		if math.Abs(res.Values[v]-wantL[v]) > 1e-12 {
			t.Fatalf("LCC vertex %d: %v, want %v", v, res.Values[v], wantL[v])
		}
	}
}

func TestTraceHasDomainOperations(t *testing.T) {
	ds := testDataset(t)
	_, log := runSingle(t, ds, BFSKernel{Source: 0}, 1)
	missions := map[string]int{}
	for _, r := range log.Records() {
		if r.Event == trace.EventStart {
			missions[r.Mission]++
		}
	}
	for _, m := range []string{"OpenGJob", "Startup", "LoadGraph", "ProcessGraph", "OffloadGraph", "Cleanup", "ReadEdgeList", "BuildCSR", "WriteResults"} {
		if missions[m] != 1 {
			t.Fatalf("mission %s count = %d, want 1 (all: %v)", m, missions[m], missions)
		}
	}
	if missions["Iteration"] < 2 {
		t.Fatalf("iterations = %d", missions["Iteration"])
	}
}

func TestWorkScaleStretchesRuntime(t *testing.T) {
	ds := testDataset(t)
	r1, _ := runSingle(t, ds, BFSKernel{Source: 0}, 1)
	r100, _ := runSingle(t, ds, BFSKernel{Source: 0}, 100)
	if r100.Runtime <= r1.Runtime {
		t.Fatalf("scaled runtime %v not above %v", r100.Runtime, r1.Runtime)
	}
	for v := range r1.Values {
		if r1.Values[v] != r100.Values[v] {
			t.Fatalf("vertex %d differs under scaling", v)
		}
	}
}

func TestRunJobValidation(t *testing.T) {
	ds := testDataset(t)
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.Config{
		Nodes: 1, CoresPerNode: 4,
		DiskBandwidth: 1e6, NICBandwidth: 1e6, SharedFSBandwidth: 1e6,
		NodeNamePrefix: "n",
	})
	em := trace.NewEmitter(trace.NewLog(), "v", eng.Now)
	eng.Spawn("client", func(p *sim.Proc) {
		good := Deps{Cluster: c, InputBytes: 100}
		cases := []struct {
			deps Deps
			cfg  Config
		}{
			{Deps{}, DefaultConfig()}, // no cluster
			{good, Config{NodeID: 5, Threads: 1, WorkScale: 1, Costs: defaultCostModel()}},  // bad node
			{good, Config{Threads: 0, WorkScale: 1, Costs: defaultCostModel()}},             // bad threads
			{good, Config{Threads: 1, WorkScale: 0, Costs: defaultCostModel()}},             // bad scale
			{Deps{Cluster: c}, Config{Threads: 1, WorkScale: 1, Costs: defaultCostModel()}}, // no input
		}
		for i, tc := range cases {
			if _, err := RunJob(p, tc.deps, tc.cfg, BFSKernel{}, ds, em); err == nil {
				t.Errorf("case %d: expected error", i)
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestKernelNames(t *testing.T) {
	kernels := []Kernel{
		BFSKernel{}, SSSPKernel{}, PageRankKernel{}, WCCKernel{}, LCCKernel{}, CDLPKernel{},
	}
	want := []string{"BFS", "SSSP", "PageRank", "WCC", "LCC", "CDLP"}
	for i, k := range kernels {
		if k.Name() != want[i] {
			t.Fatalf("kernel %d name = %q, want %q", i, k.Name(), want[i])
		}
	}
}

func TestBFSKernelEmptyGraph(t *testing.T) {
	g, err := graph.FromEdges(0, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	values, iters := BFSKernel{}.Run(g)
	if len(values) != 0 || len(iters) != 0 {
		t.Fatalf("empty graph: %v %v", values, iters)
	}
	values, iters = SSSPKernel{}.Run(g)
	if len(values) != 0 || len(iters) != 0 {
		t.Fatalf("empty graph SSSP: %v %v", values, iters)
	}
}
