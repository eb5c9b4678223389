package cluster

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func testConfig() Config {
	return Config{
		Nodes:             4,
		CoresPerNode:      2,
		DiskBandwidth:     100,
		NICBandwidth:      1000,
		NetLatency:        0.001,
		SharedFSBandwidth: 200,
		NodeNamePrefix:    "node",
		NodeNameStart:     100,
	}
}

func TestClusterConstruction(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, testConfig())
	if c.Size() != 4 {
		t.Fatalf("Size = %d, want 4", c.Size())
	}
	if got := c.Node(0).Name; got != "node100" {
		t.Fatalf("node 0 name = %q, want node100", got)
	}
	if got := c.Node(3).Name; got != "node103" {
		t.Fatalf("node 3 name = %q, want node103", got)
	}
	if len(c.Nodes()) != 4 {
		t.Fatalf("Nodes() returned %d", len(c.Nodes()))
	}
}

func TestDefaultConfigIsPaperScale(t *testing.T) {
	cfg := defaultConfig()
	if cfg.Nodes != 8 {
		t.Fatalf("default Nodes = %d, want 8 (the paper uses 8 DAS5 nodes)", cfg.Nodes)
	}
	if cfg.CoresPerNode <= 0 || cfg.DiskBandwidth <= 0 || cfg.NICBandwidth <= 0 {
		t.Fatal("default config has non-positive capacities")
	}
}

func TestExecConsumesCPU(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, testConfig())
	n := c.Node(0)
	var end float64
	e.Spawn("task", func(p *sim.Proc) {
		n.Exec(p, 3)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(end, 3) {
		t.Fatalf("end = %v, want 3", end)
	}
	if !almostEqual(n.CPU.Consumed(), 3) {
		t.Fatalf("consumed = %v, want 3", n.CPU.Consumed())
	}
}

func TestExecParallelUsesCores(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, testConfig()) // 2 cores/node
	n := c.Node(1)
	var end float64
	e.Spawn("task", func(p *sim.Proc) {
		n.ExecParallel(p, 6, 2) // 6 cpu-s on 2 cores -> 3 s
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(end, 3) {
		t.Fatalf("end = %v, want 3", end)
	}
}

func TestExecParallelClampsThreads(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, testConfig())
	n := c.Node(0)
	var end float64
	e.Spawn("task", func(p *sim.Proc) {
		n.ExecParallel(p, 2, 0) // invalid threads treated as 1
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(end, 2) {
		t.Fatalf("end = %v, want 2", end)
	}
}

func TestLocalDiskIsPerNode(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, testConfig()) // 100 B/s per disk
	var end0, end1 float64
	e.Spawn("r0", func(p *sim.Proc) {
		c.Node(0).ReadLocal(p, 100)
		end0 = p.Now()
	})
	e.Spawn("r1", func(p *sim.Proc) {
		c.Node(1).WriteLocal(p, 100)
		end1 = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Different disks: no contention, both take 1s.
	if !almostEqual(end0, 1) || !almostEqual(end1, 1) {
		t.Fatalf("ends = %v,%v, want 1,1", end0, end1)
	}
}

func TestSharedFSContention(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, testConfig()) // shared 200 B/s
	ends := make([]float64, 2)
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("reader", func(p *sim.Proc) {
			c.Node(i).ReadShared(p, 200)
			ends[i] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Two readers share 200 B/s: 200 B each at 100 B/s ≈ 2s (+latency).
	for i, end := range ends {
		if math.Abs(end-2.001) > 1e-3 {
			t.Fatalf("reader %d end = %v, want ≈2.001", i, end)
		}
	}
}

func TestTransferChargesSenderNIC(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, testConfig()) // NIC 1000 B/s, latency 1ms
	var end float64
	e.Spawn("sender", func(p *sim.Proc) {
		c.Transfer(p, c.Node(0), c.Node(1), 1000)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-1.001) > 1e-6 {
		t.Fatalf("end = %v, want 1.001", end)
	}
	if !almostEqual(c.Node(0).NIC.Consumed(), 1000) {
		t.Fatalf("sender NIC consumed = %v, want 1000", c.Node(0).NIC.Consumed())
	}
	if !almostEqual(c.Node(1).NIC.Consumed(), 0) {
		t.Fatalf("receiver NIC consumed = %v, want 0", c.Node(1).NIC.Consumed())
	}
}

func TestTransferWithinNodeIsFree(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, testConfig())
	var end float64
	e.Spawn("sender", func(p *sim.Proc) {
		c.Transfer(p, c.Node(0), c.Node(0), 1e9)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 0 {
		t.Fatalf("intra-node transfer took %v, want 0", end)
	}
}

func TestWriteSharedAndAccessors(t *testing.T) {
	e := sim.NewEngine()
	cfg := testConfig()
	c := New(e, cfg)
	if c.Engine() != e {
		t.Fatal("Engine accessor wrong")
	}
	if c.Config().Nodes != cfg.Nodes {
		t.Fatal("Config accessor wrong")
	}
	if c.SharedFS() == nil {
		t.Fatal("SharedFS accessor wrong")
	}
	var end float64
	e.Spawn("writer", func(p *sim.Proc) {
		c.Node(0).WriteShared(p, 200) // 200 B at 200 B/s shared
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-1.001) > 1e-3 {
		t.Fatalf("write end = %v, want ≈1.001", end)
	}
	if !almostEqual(c.SharedFS().Consumed(), 200) {
		t.Fatalf("shared consumed = %v", c.SharedFS().Consumed())
	}
}

func TestTransferZeroBytesIsFree(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, testConfig())
	e.Spawn("s", func(p *sim.Proc) {
		c.Transfer(p, c.Node(0), c.Node(1), 0)
		c.Transfer(p, c.Node(0), c.Node(1), -5)
		if p.Now() != 0 {
			t.Errorf("zero-byte transfer advanced clock to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnZeroCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero cores")
		}
	}()
	New(sim.NewEngine(), Config{Nodes: 1, CoresPerNode: 0, DiskBandwidth: 1, NICBandwidth: 1, SharedFSBandwidth: 1})
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero nodes")
		}
	}()
	New(sim.NewEngine(), Config{Nodes: 0, CoresPerNode: 1, DiskBandwidth: 1, NICBandwidth: 1, SharedFSBandwidth: 1})
}
