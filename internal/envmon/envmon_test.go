package envmon

import (
	"math"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func testCluster(e *sim.Engine) *cluster.Cluster {
	return cluster.New(e, cluster.Config{
		Nodes:             2,
		CoresPerNode:      4,
		DiskBandwidth:     100,
		NICBandwidth:      100,
		SharedFSBandwidth: 100,
		NodeNamePrefix:    "node",
		NodeNameStart:     0,
	})
}

// nodeSeries is the per-interval usage of one resource kind on one node.
func nodeSeries(m *Monitor, kind, node string) []float64 {
	var out []float64
	for _, s := range m.Samples() {
		if s.Node == node && s.Kind == kind {
			out = append(out, s.Used)
		}
	}
	return out
}

// nodes is the sorted set of node names in the samples, excluding the
// shared-FS pseudo-node.
func nodes(m *Monitor) []string {
	set := map[string]struct{}{}
	for _, s := range m.Samples() {
		if s.Node != sharedFSNode {
			set[s.Node] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func TestMonitorSamplesCPU(t *testing.T) {
	e := sim.NewEngine()
	c := testCluster(e)
	m := Start(c, 1.0)
	e.Spawn("job", func(p *sim.Proc) {
		// 2 cpu-seconds of single-threaded work on node0: rate 1 for 2s.
		c.Node(0).Exec(p, 2)
		m.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	series := nodeSeries(m, kindCPU, "node0")
	if len(series) < 2 {
		t.Fatalf("series = %v, want >= 2 samples", series)
	}
	if !almostEqual(series[0], 1) || !almostEqual(series[1], 1) {
		t.Fatalf("node0 series = %v, want [1 1 ...]", series)
	}
	idle := nodeSeries(m, kindCPU, "node1")
	for _, v := range idle {
		if v != 0 {
			t.Fatalf("idle node shows CPU usage: %v", idle)
		}
	}
}

func TestMonitorSamplesDiskAndNIC(t *testing.T) {
	e := sim.NewEngine()
	c := testCluster(e)
	m := Start(c, 1.0)
	e.Spawn("job", func(p *sim.Proc) {
		c.Node(0).ReadLocal(p, 150)              // 1.5s at 100 B/s
		c.Transfer(p, c.Node(0), c.Node(1), 100) // sender NIC
		c.Node(1).ReadShared(p, 100)             // shared FS
		m.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	disk := nodeSeries(m, kindDisk, "node0")
	total := 0.0
	for _, v := range disk {
		total += v
	}
	if !almostEqual(total, 150) {
		t.Fatalf("node0 disk bytes = %v, want 150", total)
	}
	nic := nodeSeries(m, kindNIC, "node0")
	total = 0
	for _, v := range nic {
		total += v
	}
	if !almostEqual(total, 100) {
		t.Fatalf("node0 nic bytes = %v, want 100", total)
	}
	shared := nodeSeries(m, kindDisk, sharedFSNode)
	total = 0
	for _, v := range shared {
		total += v
	}
	if !almostEqual(total, 100) {
		t.Fatalf("sharedfs bytes = %v, want 100", total)
	}
}

func TestMonitorStopsAfterStop(t *testing.T) {
	e := sim.NewEngine()
	c := testCluster(e)
	m := Start(c, 0.5)
	e.Spawn("job", func(p *sim.Proc) {
		p.Sleep(2)
		m.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Monitor exits at next tick after Stop: at most 2.5s of samples.
	for _, s := range m.Samples() {
		if s.Time > 2.5+1e-9 {
			t.Fatalf("sample after stop: %+v", s)
		}
	}
	if n := e.Shutdown(); n != 0 {
		t.Fatalf("leaked %d processes", n)
	}
}

func TestCumulativeSeriesSumsNodes(t *testing.T) {
	e := sim.NewEngine()
	c := testCluster(e)
	m := Start(c, 1.0)
	e.Spawn("job0", func(p *sim.Proc) { c.Node(0).Exec(p, 3) })
	e.Spawn("job1", func(p *sim.Proc) { c.Node(1).ExecParallel(p, 6, 2) })
	e.Spawn("stopper", func(p *sim.Proc) {
		p.Sleep(4)
		m.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	byTime := map[float64]float64{}
	for _, s := range m.Samples() {
		if s.Kind == kindCPU && s.Node != sharedFSNode {
			byTime[s.Time] += s.Used
		}
	}
	// During the first 3 seconds: node0 at 1 cpu/s + node1 at 2 cpu/s.
	sum, peak := 0.0, 0.0
	for _, v := range byTime {
		sum += v
		peak = math.Max(peak, v)
	}
	if !almostEqual(byTime[1], 3) || !almostEqual(peak, 3) {
		t.Fatalf("first total = %v, peak = %v, want 3", byTime[1], peak)
	}
	if !almostEqual(sum, 9) { // total work = 3 + 6 cpu-seconds
		t.Fatalf("sum of cumulative = %v, want 9", sum)
	}
}

func TestStartPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := sim.NewEngine()
	Start(testCluster(e), 0)
}

func TestNodesSortedAndExcludeSharedFS(t *testing.T) {
	e := sim.NewEngine()
	c := testCluster(e)
	m := Start(c, 1.0)
	e.Spawn("job", func(p *sim.Proc) {
		p.Sleep(1.5)
		m.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := nodes(m)
	if len(got) != 2 || got[0] != "node0" || got[1] != "node1" {
		t.Fatalf("nodes = %v, want [node0 node1]", got)
	}
}

func TestSampleCPUUsedHelper(t *testing.T) {
	if (Sample{Kind: kindCPU, Used: 3}).cpuUsed() != 3 {
		t.Fatal("CPU sample helper wrong")
	}
	if (Sample{Kind: kindDisk, Used: 3}).cpuUsed() != 0 {
		t.Fatal("non-CPU sample must report 0 cpu")
	}
}
