package yarn

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func testCluster(e *sim.Engine) *cluster.Cluster {
	return cluster.New(e, cluster.Config{
		Nodes:             4,
		CoresPerNode:      4,
		DiskBandwidth:     1000,
		NICBandwidth:      1000,
		SharedFSBandwidth: 1000,
		NodeNamePrefix:    "n",
	})
}

func testConfig() Config {
	return Config{
		SubmitLatency:    1.0,
		AllocLatency:     0.1,
		LaunchLatency:    0.5,
		LaunchCPUSeconds: 0.2,
		ReleaseLatency:   0.3,
	}
}

func TestSubmitChargesLatency(t *testing.T) {
	e := sim.NewEngine()
	c := testCluster(e)
	rm := NewResourceManager(c, testConfig())
	var at float64
	e.Spawn("client", func(p *sim.Proc) {
		app := rm.Submit(p, "job")
		at = p.Now()
		if app.ID == "" {
			t.Error("empty application ID")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 1.0 {
		t.Fatalf("submit completed at %v, want 1.0", at)
	}
}

func TestAllocateRoundRobin(t *testing.T) {
	e := sim.NewEngine()
	c := testCluster(e)
	rm := NewResourceManager(c, testConfig())
	var nodes []int
	e.Spawn("client", func(p *sim.Proc) {
		app := rm.Submit(p, "job")
		cs, err := app.AllocateContainers(p, 4, 2)
		if err != nil {
			t.Error(err)
			return
		}
		for _, ct := range cs {
			nodes = append(nodes, ct.Node.ID)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	if len(nodes) != 4 {
		t.Fatalf("nodes = %v", nodes)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("nodes = %v, want %v", nodes, want)
		}
	}
}

func TestAllocateInsufficientCapacityRollsBack(t *testing.T) {
	e := sim.NewEngine()
	c := testCluster(e) // 4 nodes x 4 cores = 16
	rm := NewResourceManager(c, testConfig())
	e.Spawn("client", func(p *sim.Proc) {
		app := rm.Submit(p, "job")
		if _, err := app.AllocateContainers(p, 5, 4); err == nil {
			t.Error("over-allocation should fail")
		}
		// All cores must be free again.
		for i := 0; i < c.Size(); i++ {
			if rm.freeCores[i] != 4 {
				t.Errorf("node %d free = %d, want 4", i, rm.freeCores[i])
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateValidation(t *testing.T) {
	e := sim.NewEngine()
	rm := NewResourceManager(testCluster(e), testConfig())
	e.Spawn("client", func(p *sim.Proc) {
		app := rm.Submit(p, "job")
		if _, err := app.AllocateContainers(p, 0, 1); err == nil {
			t.Error("zero containers should fail")
		}
		if _, err := app.AllocateContainers(p, 1, 0); err == nil {
			t.Error("zero cores should fail")
		}
		app.Release(p)
		if _, err := app.AllocateContainers(p, 1, 1); err == nil {
			t.Error("allocation after release should fail")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchRunsFunctionAfterStartupCosts(t *testing.T) {
	e := sim.NewEngine()
	c := testCluster(e)
	rm := NewResourceManager(c, testConfig())
	var started float64
	e.Spawn("client", func(p *sim.Proc) {
		app := rm.Submit(p, "job")
		cs, err := app.AllocateContainers(p, 1, 1)
		if err != nil {
			t.Error(err)
			return
		}
		worker := cs[0].Launch(p, "worker", func(wp *sim.Proc) {
			started = wp.Now()
		})
		worker.Done().Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// submit 1.0 + alloc 0.1 + launch 0.5 + cpu 0.2 = 1.8
	if started < 1.8-1e-9 {
		t.Fatalf("worker body started at %v, want >= 1.8", started)
	}
	// JVM startup must charge CPU on the container's node.
	if c.Node(0).CPU.Consumed() < 0.2-1e-9 {
		t.Fatalf("node CPU consumed = %v, want >= 0.2", c.Node(0).CPU.Consumed())
	}
}

func TestReleaseReturnsCores(t *testing.T) {
	e := sim.NewEngine()
	c := testCluster(e)
	rm := NewResourceManager(c, testConfig())
	e.Spawn("client", func(p *sim.Proc) {
		app := rm.Submit(p, "job")
		if _, err := app.AllocateContainers(p, 4, 4); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < c.Size(); i++ {
			if rm.freeCores[i] != 0 {
				t.Errorf("node %d free = %d, want 0", i, rm.freeCores[i])
			}
		}
		if len(app.containers) != 4 {
			t.Errorf("containers = %d, want 4", len(app.containers))
		}
		app.Release(p)
		app.Release(p) // idempotent
		for i := 0; i < c.Size(); i++ {
			if rm.freeCores[i] != 4 {
				t.Errorf("node %d free = %d after release, want 4", i, rm.freeCores[i])
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := defaultConfig()
	if cfg.SubmitLatency <= 0 || cfg.LaunchLatency <= 0 || cfg.AllocLatency <= 0 {
		t.Fatalf("default config has non-positive latencies: %+v", cfg)
	}
}
