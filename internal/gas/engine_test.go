package gas

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// bfs is a minimal test GAS program (min-distance pull).
type bfs struct{ source graph.VertexID }

func (b bfs) Init(v graph.VertexID, _ *graph.Graph) (float64, bool) {
	if v == b.source {
		return 0, true
	}
	return math.Inf(1), false
}
func (bfs) GatherDir() Direction { return In }
func (bfs) Gather(_ int, _, _ graph.VertexID, otherValue float64) float64 {
	return otherValue + 1
}
func (bfs) Sum(a, b float64) float64 { return math.Min(a, b) }
func (bfs) Apply(_ int, _ graph.VertexID, old, acc float64, hasAcc bool) float64 {
	if hasAcc && acc < old {
		return acc
	}
	return old
}
func (bfs) ScatterDir() Direction { return Out }
func (bfs) Scatter(_ int, _, _ graph.VertexID, value, otherValue float64) bool {
	return value+1 < otherValue
}

func refBFS(g *graph.Graph, src graph.VertexID) []float64 {
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = math.Inf(1)
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

type testEnv struct {
	eng  *sim.Engine
	c    *cluster.Cluster
	deps Deps
	log  *trace.Log
	em   *trace.Emitter
}

func newTestEnv(t *testing.T, ds *datagen.Dataset, workScale float64) *testEnv {
	t.Helper()
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.Config{
		Nodes: 4, CoresPerNode: 8,
		DiskBandwidth: 200e6, NICBandwidth: 500e6,
		SharedFSBandwidth: 300e6, NodeNamePrefix: "node", NodeNameStart: 200,
	})
	store := dfs.NewSharedStore(c)
	deps := Deps{
		Cluster:    c,
		Store:      store,
		MPI:        mpi.Config{SpawnLatency: 0.05, FinalizeLatency: 0.05},
		InputPath:  "/data/" + ds.Name,
		OutputPath: "/out",
	}
	if err := StageInput(store, deps.InputPath, ds, workScale); err != nil {
		t.Fatal(err)
	}
	log := trace.NewLog()
	em := trace.NewEmitter(log, "gas-test", eng.Now)
	return &testEnv{eng: eng, c: c, deps: deps, log: log, em: em}
}

func testDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Kind: datagen.SocialNetwork, Vertices: 2000, Edges: 10000, Seed: 11, Directed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// testCosts are modest per-unit costs for small test jobs.
var testCosts = CostModel{
	ParseCPUPerByte:        250e-9,
	DistributeBytesPerEdge: 16,
	FinalizeCPUPerEdge:     120e-9,
	FinalizeCPUPerReplica:  200e-9,
	GatherCPUPerEdge:       25e-9,
	ApplyCPUPerVertex:      60e-9,
	ScatterCPUPerEdge:      25e-9,
	PartialBytes:           16,
	SyncBytes:              12,
	ResultBytesPerVertex:   16,
}

func testJobConfig(machines int) Config {
	return Config{
		Machines:       machines,
		LoadThreads:    4,
		ComputeThreads: 4,
		CutStrategy:    graph.VertexCutHash,
		MaxIterations:  200,
		ChunkBytes:     64 << 10,
		WorkScale:      1,
		Costs:          testCosts,
	}
}

func runGASJob(t *testing.T, env *testEnv, cfg Config, prog Program, ds *datagen.Dataset) *Result {
	t.Helper()
	var result *Result
	var jobErr error
	env.eng.Spawn("client", func(p *sim.Proc) {
		result, jobErr = RunJob(p, env.deps, cfg, prog, ds, env.em)
	})
	if err := env.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if jobErr != nil {
		t.Fatal(jobErr)
	}
	if n := env.eng.Shutdown(); n != 0 {
		t.Fatalf("leaked %d processes", n)
	}
	return result
}

func TestGASBFSMatchesReference(t *testing.T) {
	ds := testDataset(t)
	env := newTestEnv(t, ds, 1)
	res := runGASJob(t, env, testJobConfig(4), bfs{source: 0}, ds)
	want := refBFS(ds.Graph, 0)
	for v := range want {
		if res.Values[v] != want[v] {
			t.Fatalf("vertex %d: %v, want %v", v, res.Values[v], want[v])
		}
	}
	if res.Iterations < 2 {
		t.Fatalf("iterations = %d, want >= 2", res.Iterations)
	}
	if res.ReplicationFactor < 1 {
		t.Fatalf("replication factor = %v", res.ReplicationFactor)
	}
	if res.Runtime <= 0 {
		t.Fatal("runtime not positive")
	}
}

func TestGASBFSIndependentOfMachineCount(t *testing.T) {
	ds := testDataset(t)
	var prev []float64
	for _, machines := range []int{1, 2, 4} {
		env := newTestEnv(t, ds, 1)
		res := runGASJob(t, env, testJobConfig(machines), bfs{source: 0}, ds)
		if prev != nil {
			for v := range prev {
				if res.Values[v] != prev[v] {
					t.Fatalf("machines=%d: vertex %d differs", machines, v)
				}
			}
		}
		prev = res.Values
	}
}

func TestGASSequentialLoadPinsOneNode(t *testing.T) {
	ds := testDataset(t)
	// Scale enough that load CPU dominates fixed costs.
	env := newTestEnv(t, ds, 20)
	cfg := testJobConfig(4)
	cfg.WorkScale = 20
	runGASJob(t, env, cfg, bfs{source: 0}, ds)

	// Find the LoadGraph window from the trace and compare per-node CPU.
	var loadStart, loadEnd float64
	started := map[string]trace.Record{}
	for _, r := range env.log.Records() {
		switch r.Event {
		case trace.EventStart:
			started[r.Op] = r
		case trace.EventEnd:
			if started[r.Op].Mission == "SequentialLoad" {
				loadStart, loadEnd = started[r.Op].Time, r.Time
			}
		}
	}
	if loadEnd <= loadStart {
		t.Fatal("no SequentialLoad operation found")
	}
	// During the sequential phase, rank 0's node must have consumed far
	// more CPU than the others. Check totals at loadEnd indirectly: the
	// node CPU totals at the end of the run still reflect the skew since
	// processing is tiny at this scale.
	cpu0 := env.c.Node(0).CPU.Consumed()
	others := 0.0
	for i := 1; i < env.c.Size(); i++ {
		others += env.c.Node(i).CPU.Consumed()
	}
	if cpu0 < others {
		t.Fatalf("rank-0 node CPU %.2f not dominant vs others' total %.2f", cpu0, others)
	}
}

func TestGASTraceTreeWellFormed(t *testing.T) {
	ds := testDataset(t)
	env := newTestEnv(t, ds, 1)
	runGASJob(t, env, testJobConfig(4), bfs{source: 0}, ds)

	started := map[string]trace.Record{}
	ended := map[string]float64{}
	roots := 0
	for _, r := range env.log.Records() {
		switch r.Event {
		case trace.EventStart:
			started[r.Op] = r
			if r.Parent == "" {
				roots++
			}
		case trace.EventEnd:
			ended[r.Op] = r.Time
		}
	}
	if roots != 1 {
		t.Fatalf("roots = %d", roots)
	}
	if len(started) != len(ended) {
		t.Fatalf("%d started vs %d ended", len(started), len(ended))
	}
	for id, s := range started {
		if s.Parent == "" {
			continue
		}
		ps, ok := started[s.Parent]
		if !ok {
			t.Fatalf("op %s has unknown parent", id)
		}
		if s.Time < ps.Time-1e-9 || ended[id] > ended[s.Parent]+1e-9 {
			t.Fatalf("op %s (%s) [%v,%v] outside parent %s [%v,%v]",
				id, s.Mission, s.Time, ended[id], ps.Mission, ps.Time, ended[s.Parent])
		}
	}
	// Domain-level structure.
	var missions []string
	rootID := ""
	for _, r := range env.log.Records() {
		if r.Event == trace.EventStart && r.Parent == "" {
			rootID = r.Op
		}
	}
	for _, r := range env.log.Records() {
		if r.Event == trace.EventStart && r.Parent == rootID {
			missions = append(missions, r.Mission)
		}
	}
	want := []string{"Startup", "LoadGraph", "ProcessGraph", "OffloadGraph", "Cleanup"}
	if len(missions) != len(want) {
		t.Fatalf("domain missions = %v", missions)
	}
	for i := range want {
		if missions[i] != want[i] {
			t.Fatalf("domain missions = %v, want %v", missions, want)
		}
	}
}

func TestGASIterationOpsPerRank(t *testing.T) {
	ds := testDataset(t)
	env := newTestEnv(t, ds, 1)
	res := runGASJob(t, env, testJobConfig(4), bfs{source: 0}, ds)
	counts := map[string]int{}
	for _, r := range env.log.Records() {
		if r.Event == trace.EventStart {
			counts[r.Mission]++
		}
	}
	if counts["Iteration"] != res.Iterations {
		t.Fatalf("Iteration ops = %d, want %d", counts["Iteration"], res.Iterations)
	}
	if counts["LocalIteration"] != res.Iterations*4 {
		t.Fatalf("LocalIteration ops = %d, want %d", counts["LocalIteration"], res.Iterations*4)
	}
	for _, m := range []string{"Gather", "Apply", "Scatter"} {
		if counts[m] != res.Iterations*4 {
			t.Fatalf("%s ops = %d, want %d", m, counts[m], res.Iterations*4)
		}
	}
	if counts["FinalizeGraph"] != 4 {
		t.Fatalf("FinalizeGraph ops = %d, want 4", counts["FinalizeGraph"])
	}
	if counts["SequentialLoad"] != 1 {
		t.Fatalf("SequentialLoad ops = %d, want 1", counts["SequentialLoad"])
	}
}

func TestGASGreedyCutReducesRuntimeOrReplication(t *testing.T) {
	ds := testDataset(t)
	envH := newTestEnv(t, ds, 1)
	cfgH := testJobConfig(4)
	resH := runGASJob(t, envH, cfgH, bfs{source: 0}, ds)

	envG := newTestEnv(t, ds, 1)
	cfgG := testJobConfig(4)
	cfgG.CutStrategy = graph.VertexCutGreedy
	resG := runGASJob(t, envG, cfgG, bfs{source: 0}, ds)

	if resG.ReplicationFactor >= resH.ReplicationFactor {
		t.Fatalf("greedy replication %.3f not below hash %.3f",
			resG.ReplicationFactor, resH.ReplicationFactor)
	}
	// Results agree.
	for v := range resH.Values {
		if resH.Values[v] != resG.Values[v] {
			t.Fatalf("vertex %d differs between cut strategies", v)
		}
	}
}

func TestGASValidation(t *testing.T) {
	ds := testDataset(t)
	env := newTestEnv(t, ds, 1)
	bad := []Config{
		{},
		func() Config { c := testJobConfig(4); c.WorkScale = 0; return c }(),
		func() Config { c := testJobConfig(4); c.MaxIterations = 0; return c }(),
		func() Config { c := testJobConfig(4); c.ChunkBytes = 0; return c }(),
		func() Config { c := testJobConfig(4); c.LoadThreads = 0; return c }(),
	}
	env.eng.Spawn("client", func(p *sim.Proc) {
		for i, cfg := range bad {
			if _, err := RunJob(p, env.deps, cfg, bfs{}, ds, env.em); err == nil {
				t.Errorf("config %d: expected error", i)
			}
		}
		deps := env.deps
		deps.InputPath = "/missing"
		if _, err := RunJob(p, deps, testJobConfig(4), bfs{}, ds, env.em); err == nil {
			t.Error("expected error for missing input")
		}
	})
	if err := env.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGASParallelLoadIsFasterAndEquivalent(t *testing.T) {
	ds := testDataset(t)
	envSeq := newTestEnv(t, ds, 50)
	cfgSeq := testJobConfig(4)
	cfgSeq.WorkScale = 50
	resSeq := runGASJob(t, envSeq, cfgSeq, bfs{source: 0}, ds)

	envPar := newTestEnv(t, ds, 50)
	cfgPar := cfgSeq
	cfgPar.ParallelLoad = true
	resPar := runGASJob(t, envPar, cfgPar, bfs{source: 0}, ds)

	if resPar.Runtime >= resSeq.Runtime {
		t.Fatalf("parallel load runtime %.2fs not below sequential %.2fs",
			resPar.Runtime, resSeq.Runtime)
	}
	for v := range resSeq.Values {
		if resSeq.Values[v] != resPar.Values[v] {
			t.Fatalf("vertex %d differs between loaders", v)
		}
	}
	// The parallel variant emits ParallelLoad ops instead of
	// SequentialLoad.
	counts := map[string]int{}
	for _, r := range envPar.log.Records() {
		if r.Event == trace.EventStart {
			counts[r.Mission]++
		}
	}
	if counts["ParallelLoad"] != 4 || counts["SequentialLoad"] != 0 {
		t.Fatalf("parallel loader ops = %v", counts)
	}
}

// degreeCount gathers over both edge directions, counting 1 per edge; the
// result is each vertex's total degree. Scatter is None, so the job
// terminates after one iteration.
type degreeCount struct{}

func (degreeCount) Init(graph.VertexID, *graph.Graph) (float64, bool) { return 0, true }
func (degreeCount) GatherDir() Direction                              { return both }
func (degreeCount) Gather(_ int, _, _ graph.VertexID, _ float64) float64 {
	return 1
}
func (degreeCount) Sum(a, b float64) float64 { return a + b }
func (degreeCount) Apply(_ int, _ graph.VertexID, _, acc float64, hasAcc bool) float64 {
	if !hasAcc {
		return 0
	}
	return acc
}
func (degreeCount) ScatterDir() Direction { return none }
func (degreeCount) Scatter(_ int, _, _ graph.VertexID, _, _ float64) bool {
	return false
}

func TestGASBothDirectionGather(t *testing.T) {
	ds := testDataset(t)
	env := newTestEnv(t, ds, 1)
	res := runGASJob(t, env, testJobConfig(4), degreeCount{}, ds)
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1 (scatter none)", res.Iterations)
	}
	for v := int64(0); v < ds.Graph.NumVertices(); v++ {
		want := float64(ds.Graph.OutDegree(graph.VertexID(v)) + ds.Graph.InDegree(graph.VertexID(v)))
		if res.Values[v] != want {
			t.Fatalf("vertex %d degree = %v, want %v", v, res.Values[v], want)
		}
	}
}

func TestGASDeterministicRuntime(t *testing.T) {
	ds := testDataset(t)
	run := func() float64 {
		env := newTestEnv(t, ds, 1)
		return runGASJob(t, env, testJobConfig(4), bfs{source: 0}, ds).Runtime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runtimes differ: %v vs %v", a, b)
	}
}

func TestDirectionString(t *testing.T) {
	cases := map[Direction]string{none: "none", In: "in", Out: "out", both: "both"}
	for d, want := range cases {
		if d.String() != want {
			t.Fatalf("%d.String() = %q", int(d), d.String())
		}
	}
	if Direction(99).String() != "invalid" {
		t.Fatal("unknown direction should stringify as invalid")
	}
}
