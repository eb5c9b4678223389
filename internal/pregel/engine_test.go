package pregel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/yarn"
	"repro/internal/zookeeper"
)

// bfs is a minimal test vertex program (min-distance propagation).
type bfs struct{ source graph.VertexID }

func (b bfs) Compute(ctx *Context, msgs []float64) {
	if ctx.Superstep() == 0 {
		if ctx.ID() == b.source {
			ctx.SetValue(0)
			ctx.SendToAllNeighbors(1)
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

// refBFS is an independent sequential BFS for verification.
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
		Nodes:             4,
		CoresPerNode:      8,
		DiskBandwidth:     200e6,
		NICBandwidth:      500e6,
		NetLatency:        1e-4,
		SharedFSBandwidth: 300e6,
		NodeNamePrefix:    "node",
		NodeNameStart:     100,
	})
	h := dfs.NewHDFS(c, dfs.HDFSConfig{BlockSize: 1 << 20, Replication: 2, NameNodeLatency: 0.001})
	deps := Deps{
		Cluster:    c,
		RM:         yarn.NewResourceManager(c, yarn.Config{SubmitLatency: 0.5, AllocLatency: 0.05, LaunchLatency: 0.5, LaunchCPUSeconds: 0.2, ReleaseLatency: 0.2}),
		HDFS:       h,
		ZK:         zookeeper.NewService(c.Node(0), zookeeper.Config{OpLatency: 0.004, OpCPUSeconds: 0.0005, ConnectLatency: 0.05}),
		InputPath:  "/input/" + ds.Name,
		OutputPath: "/output",
	}
	if err := StageInput(h, deps.InputPath, ds, workScale); err != nil {
		t.Fatal(err)
	}
	log := trace.NewLog()
	em := trace.NewEmitter(log, "test-job", eng.Now)
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
	ParseCPUPerByte:          60e-9,
	BuildCPUPerEdge:          150e-9,
	ShuffleBytesPerEdge:      16,
	ComputeCPUPerVertex:      250e-9,
	ComputeCPUPerMessage:     120e-9,
	MessageBytes:             16,
	OutputBytesPerVertex:     16,
	CheckpointBytesPerVertex: 24,
	RecoveryDetectSeconds:    2.0,
	WorkerShutdownSeconds:    0.3,
	ClientCleanupSeconds:     1.0,
	ServerCleanupSeconds:     1.5,
	ZkCleanupSeconds:         0.5,
}

func testJobConfig(workers int) Config {
	return Config{
		Workers:        workers,
		ComputeThreads: 4,
		ParseThreads:   8,
		Combiner:       MinCombiner{},
		MaxSupersteps:  100,
		WorkScale:      1,
		Costs:          testCosts,
	}
}

// runJob executes a job to completion and returns the result.
func runJob(t *testing.T, env *testEnv, cfg Config, prog Program, ds *datagen.Dataset) *Result {
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
		t.Fatalf("leaked %d processes after job", n)
	}
	return result
}

func TestBFSMatchesReference(t *testing.T) {
	ds := testDataset(t)
	env := newTestEnv(t, ds, 1)
	res := runJob(t, env, testJobConfig(4), bfs{source: 0}, ds)
	want := refBFS(ds.Graph, 0)
	for v := range want {
		if res.Values[v] != want[v] {
			t.Fatalf("vertex %d: distance %v, want %v", v, res.Values[v], want[v])
		}
	}
	if res.Supersteps < 2 {
		t.Fatalf("supersteps = %d, want >= 2", res.Supersteps)
	}
	if res.Runtime <= 0 {
		t.Fatal("runtime not positive")
	}
	if res.MessagesSent <= 0 {
		t.Fatal("no messages recorded")
	}
}

func TestBFSResultIndependentOfWorkerCount(t *testing.T) {
	ds := testDataset(t)
	var prev []float64
	for _, workers := range []int{1, 2, 4} {
		env := newTestEnv(t, ds, 1)
		res := runJob(t, env, testJobConfig(workers), bfs{source: 0}, ds)
		if prev != nil {
			for v := range prev {
				if res.Values[v] != prev[v] {
					t.Fatalf("workers=%d: vertex %d differs", workers, v)
				}
			}
		}
		prev = res.Values
	}
}

func TestCombinerReducesWireMessages(t *testing.T) {
	ds := testDataset(t)
	envA := newTestEnv(t, ds, 1)
	cfgA := testJobConfig(4)
	resCombined := runJob(t, envA, cfgA, bfs{source: 0}, ds)

	envB := newTestEnv(t, ds, 1)
	cfgB := testJobConfig(4)
	cfgB.Combiner = nil
	resPlain := runJob(t, envB, cfgB, bfs{source: 0}, ds)

	if resCombined.MessagesSent >= resPlain.MessagesSent {
		t.Fatalf("combined wire messages %d not below uncombined %d",
			resCombined.MessagesSent, resPlain.MessagesSent)
	}
	// Results must agree regardless.
	for v := range resPlain.Values {
		if resPlain.Values[v] != resCombined.Values[v] {
			t.Fatalf("vertex %d differs with/without combiner", v)
		}
	}
}

func TestTraceTreeWellFormed(t *testing.T) {
	ds := testDataset(t)
	env := newTestEnv(t, ds, 1)
	runJob(t, env, testJobConfig(4), bfs{source: 0}, ds)

	recs := env.log.Records()
	if len(recs) == 0 {
		t.Fatal("no trace records")
	}
	started := map[string]trace.Record{}
	ended := map[string]float64{}
	var roots int
	for _, r := range recs {
		switch r.Event {
		case trace.EventStart:
			if _, dup := started[r.Op]; dup {
				t.Fatalf("duplicate start for %s", r.Op)
			}
			started[r.Op] = r
			if r.Parent == "" {
				roots++
			} else if _, ok := started[r.Parent]; !ok {
				t.Fatalf("op %s starts before its parent %s", r.Op, r.Parent)
			}
		case trace.EventEnd:
			if _, ok := started[r.Op]; !ok {
				t.Fatalf("end without start for %s", r.Op)
			}
			if _, dup := ended[r.Op]; dup {
				t.Fatalf("duplicate end for %s", r.Op)
			}
			ended[r.Op] = r.Time
		}
	}
	if roots != 1 {
		t.Fatalf("roots = %d, want 1", roots)
	}
	if len(started) != len(ended) {
		t.Fatalf("%d started ops but %d ended", len(started), len(ended))
	}
	// Every op must fit within its parent's interval.
	for id, s := range started {
		if s.Parent == "" {
			continue
		}
		ps := started[s.Parent]
		if s.Time < ps.Time-1e-9 || ended[id] > ended[s.Parent]+1e-9 {
			t.Fatalf("op %s (%s) [%v,%v] outside parent %s [%v,%v]",
				id, s.Mission, s.Time, ended[id], ps.Mission, ps.Time, ended[s.Parent])
		}
	}
	// The five domain-level operations must be present in order.
	var missions []string
	rootID := ""
	for _, r := range recs {
		if r.Event == trace.EventStart && r.Parent == "" {
			rootID = r.Op
		}
	}
	for _, r := range recs {
		if r.Event == trace.EventStart && r.Parent == rootID {
			missions = append(missions, r.Mission)
		}
	}
	want := []string{"Startup", "LoadGraph", "ProcessGraph", "OffloadGraph", "Cleanup"}
	if len(missions) != len(want) {
		t.Fatalf("domain missions = %v, want %v", missions, want)
	}
	for i := range want {
		if missions[i] != want[i] {
			t.Fatalf("domain missions = %v, want %v", missions, want)
		}
	}
}

func TestSuperstepOpsPerWorker(t *testing.T) {
	ds := testDataset(t)
	env := newTestEnv(t, ds, 1)
	res := runJob(t, env, testJobConfig(4), bfs{source: 0}, ds)

	// Count LocalSuperstep ops: one per worker per superstep.
	var localSupersteps int
	for _, r := range env.log.Records() {
		if r.Event == trace.EventStart && r.Mission == "LocalSuperstep" {
			localSupersteps++
		}
	}
	if localSupersteps != 4*res.Supersteps {
		t.Fatalf("LocalSuperstep ops = %d, want %d", localSupersteps, 4*res.Supersteps)
	}
	// Each LocalSuperstep has PreStep, Compute, Message, PostStep.
	counts := map[string]int{}
	for _, r := range env.log.Records() {
		if r.Event == trace.EventStart {
			counts[r.Mission]++
		}
	}
	for _, m := range []string{"PreStep", "Compute", "Message", "PostStep"} {
		if counts[m] != localSupersteps {
			t.Fatalf("%s ops = %d, want %d", m, counts[m], localSupersteps)
		}
	}
}

func TestWorkScaleStretchesRuntime(t *testing.T) {
	ds := testDataset(t)
	env1 := newTestEnv(t, ds, 1)
	res1 := runJob(t, env1, testJobConfig(4), bfs{source: 0}, ds)

	cfg := testJobConfig(4)
	cfg.WorkScale = 50
	env2 := newTestEnv(t, ds, 50)
	res50 := runJob(t, env2, cfg, bfs{source: 0}, ds)

	if res50.Runtime <= res1.Runtime {
		t.Fatalf("scaled runtime %v not above unscaled %v", res50.Runtime, res1.Runtime)
	}
	// Results are scale-invariant.
	for v := range res1.Values {
		if res1.Values[v] != res50.Values[v] {
			t.Fatalf("vertex %d value differs under scaling", v)
		}
	}
}

func TestRunJobValidation(t *testing.T) {
	ds := testDataset(t)
	env := newTestEnv(t, ds, 1)
	bad := []Config{
		{}, // all zero
		func() Config { c := testJobConfig(4); c.WorkScale = 0; return c }(),
		func() Config { c := testJobConfig(4); c.MaxSupersteps = 0; return c }(),
		func() Config { c := testJobConfig(4); c.ComputeThreads = 0; return c }(),
		func() Config {
			c := testJobConfig(4)
			c.Partitioner = graph.NewHashPartitioner(3) // mismatch with workers
			return c
		}(),
	}
	env.eng.Spawn("client", func(p *sim.Proc) {
		for i, cfg := range bad {
			if _, err := RunJob(p, env.deps, cfg, bfs{}, ds, env.em); err == nil {
				t.Errorf("config %d: expected error", i)
			}
		}
		// Missing input.
		deps := env.deps
		deps.InputPath = "/does-not-exist"
		if _, err := RunJob(p, deps, testJobConfig(4), bfs{}, ds, env.em); err == nil {
			t.Error("expected error for missing input")
		}
	})
	if err := env.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOutputWrittenToHDFS(t *testing.T) {
	ds := testDataset(t)
	env := newTestEnv(t, ds, 1)
	runJob(t, env, testJobConfig(4), bfs{source: 0}, ds)
	for w := 0; w <= 4; w++ {
		path := fmt.Sprintf("%s/part-%05d-%s", env.deps.OutputPath, w, env.em.Job())
		if got := env.deps.HDFS.Exists(path); got != (w < 4) {
			t.Fatalf("output part %s exists = %v, want one part per worker (4)", path, got)
		}
	}
}

func TestDeterministicRuntime(t *testing.T) {
	ds := testDataset(t)
	run := func() float64 {
		env := newTestEnv(t, ds, 1)
		return runJob(t, env, testJobConfig(4), bfs{source: 0}, ds).Runtime
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("runtimes differ across identical runs: %v vs %v", a, b)
	}
}
