package pregel

import (
	"math"
	"testing"

	"repro/internal/trace"
	"repro/internal/zookeeper"
)

// yarnCosts prices YARN alone, on top of testCosts' other entries.
func yarnCosts() CostModel {
	c := testCosts
	c.AppSubmitSeconds = 1.0
	c.ContainerAllocSeconds = 0.1
	c.ContainerLaunchSeconds = 0.5
	c.ContainerLaunchCPUSeconds = 0.2
	c.AppReleaseSeconds = 0.3
	return c
}

// yarnSpans runs a four-worker BFS priced by yarnCosts and returns a
// function giving the first start, last end and count of a mission's
// operations.
func yarnSpans(t *testing.T) (CostModel, func(mission string) (first, last float64, n int)) {
	t.Helper()
	ds := testDataset(t)
	env := newTestEnv(t, ds, 1)
	cfg := testJobConfig(4)
	cfg.Costs = yarnCosts()
	runJob(t, env, cfg, bfs{source: 0}, ds)

	start, end := map[string]float64{}, map[string]float64{}
	mission := map[string]string{}
	for _, r := range *env.log {
		switch r.Event {
		case trace.EventStart:
			start[r.Op], mission[r.Op] = r.Time, r.Mission
		case trace.EventEnd:
			end[r.Op] = r.Time
		}
	}
	return cfg.Costs, func(m string) (first, last float64, n int) {
		first, last = math.Inf(1), math.Inf(-1)
		for op, name := range mission {
			if name == m {
				first, last, n = min(first, start[op]), max(last, end[op]), n+1
			}
		}
		return first, last, n
	}
}

func near(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

// TestSubmitAndReleaseChargeYARNDelays checks the application-level YARN
// costs: the submission and the serial container grants in JobStartup,
// and the application's release in ServerCleanup.
func TestSubmitAndReleaseChargeYARNDelays(t *testing.T) {
	c, span := yarnSpans(t)
	s, e, _ := span("JobStartup")
	if want := c.AppSubmitSeconds + 4*c.ContainerAllocSeconds; !near(e-s, want) {
		t.Errorf("JobStartup took %v s, want submit + 4 grants = %v s", e-s, want)
	}
	s, e, _ = span("ServerCleanup")
	if want := c.AppReleaseSeconds + c.ServerCleanupSeconds; !near(e-s, want) {
		t.Errorf("ServerCleanup took %v s, want release + server cleanup = %v s", e-s, want)
	}
}

// TestLaunchChargesYARNDelaysBeforeLocalStartup checks the per-container
// YARN costs: the launch latency and JVM-startup CPU come before each
// worker's LocalStartup.
func TestLaunchChargesYARNDelaysBeforeLocalStartup(t *testing.T) {
	c, span := yarnSpans(t)
	launch, _, _ := span("LaunchWorkers")
	first, _, n := span("LocalStartup")
	if want := c.ContainerLaunchSeconds + c.ContainerLaunchCPUSeconds; n != 4 || !near(first-launch, want) {
		t.Errorf("%d LocalStartups, first %v s after LaunchWorkers began; want 4, after launch + JVM CPU = %v s", n, first-launch, want)
	}
}

// TestWorkersPlacedRoundRobin checks YARN's placement through the one
// cost a worker's node pays alone, its JVM-startup CPU: six workers on
// four nodes go round-robin, and a restarted worker gets the next grant.
func TestWorkersPlacedRoundRobin(t *testing.T) {
	ds := testDataset(t)
	env := newTestEnv(t, ds, 1)
	env.deps.ZK = zookeeper.NewService(env.c.Node(0), zookeeper.Config{OpLatency: 0.004, ConnectLatency: 0.05})
	cfg := testJobConfig(6)
	cfg.Costs = CostModel{ContainerLaunchCPUSeconds: 1, CheckpointBytesPerVertex: 24}
	cfg.CheckpointInterval, cfg.FailAtSuperstep, cfg.FailWorker = 2, 3, 1
	res := runJob(t, env, cfg, bfs{source: 0}, ds)
	if res.ReplayedSupersteps == 0 {
		t.Fatal("no worker was restarted")
	}
	// Workers 0-5 on nodes 0,1,2,3,0,1; the restart on node 6 % 4 = 2.
	want := []float64{2, 2, 2, 1}
	for i, w := range want {
		if got := env.c.Node(i).CPU.Consumed(); math.Abs(got-w) > 1e-9 {
			t.Errorf("node %d ran %v cpu-s, all of it container launches; want %v", i, got, w)
		}
	}
}
