package zookeeper

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func testService(e *sim.Engine) *Service {
	c := cluster.New(e, cluster.Config{
		Nodes:             2,
		CoresPerNode:      4,
		DiskBandwidth:     1000,
		NICBandwidth:      1000,
		SharedFSBandwidth: 1000,
		NodeNamePrefix:    "n",
	})
	return NewService(c.Node(0), Config{OpLatency: 0.001, OpCPUSeconds: 0.0001, ConnectLatency: 0.01})
}

// runSim runs fn inside a single client process and the engine to completion.
func runSim(t *testing.T, fn func(p *sim.Proc, s *Service)) {
	t.Helper()
	e := sim.NewEngine()
	svc := testService(e)
	e.Spawn("client", func(p *sim.Proc) { fn(p, svc) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestZnodeCRUD(t *testing.T) {
	runSim(t, func(p *sim.Proc, svc *Service) {
		s := svc.Connect(p, "c1")
		if err := s.Create(p, "/job"); err != nil {
			t.Error(err)
		}
		if !s.exists(p, "/job") {
			t.Error("node missing after create")
		}
		if err := s.Delete(p, "/job"); err != nil {
			t.Error(err)
		}
		if s.exists(p, "/job") {
			t.Error("node present after delete")
		}
	})
}

func TestZnodeErrors(t *testing.T) {
	runSim(t, func(p *sim.Proc, svc *Service) {
		s := svc.Connect(p, "c1")
		if err := s.Create(p, "no-slash"); err == nil {
			t.Error("invalid path should fail")
		}
		if err := s.Create(p, "/a/b"); err == nil {
			t.Error("create without parent should fail")
		}
		if err := s.Create(p, "/a"); err != nil {
			t.Error(err)
		}
		if err := s.Create(p, "/a"); err == nil {
			t.Error("duplicate create should fail")
		}
		if err := s.Create(p, "/a/b"); err != nil {
			t.Error(err)
		}
		if err := s.Delete(p, "/a"); err == nil {
			t.Error("delete with children should fail")
		}
		if err := s.Delete(p, "/zzz"); err == nil {
			t.Error("delete of missing node should fail")
		}
		if _, err := s.children(p, "/zzz"); err == nil {
			t.Error("children of missing node should fail")
		}
	})
}

func TestChildrenSorted(t *testing.T) {
	runSim(t, func(p *sim.Proc, svc *Service) {
		s := svc.Connect(p, "c1")
		_ = s.Create(p, "/w")
		for _, name := range []string{"w3", "w1", "w2"} {
			_ = s.Create(p, "/w/"+name)
		}
		kids, err := s.children(p, "/w")
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"w1", "w2", "w3"}
		if len(kids) != 3 {
			t.Fatalf("children = %v", kids)
		}
		for i := range want {
			if kids[i] != want[i] {
				t.Fatalf("children = %v, want %v", kids, want)
			}
		}
	})
}

func TestWatchFiresOnChange(t *testing.T) {
	e := sim.NewEngine()
	svc := testService(e)
	var sawChange bool
	e.Spawn("watcher", func(p *sim.Proc) {
		s := svc.Connect(p, "watcher")
		_ = s.Create(p, "/state")
		ev := s.watch(p, "/state")
		ev.Wait(p)
		sawChange = true
	})
	e.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(1)
		s := svc.Connect(p, "writer")
		_ = s.Create(p, "/state/b")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawChange {
		t.Fatal("watch never fired")
	}
}

func TestOperationsCostTime(t *testing.T) {
	e := sim.NewEngine()
	svc := testService(e)
	var end float64
	e.Spawn("client", func(p *sim.Proc) {
		s := svc.Connect(p, "c1")
		for i := 0; i < 10; i++ {
			_ = s.Create(p, fmt.Sprintf("/n%d", i))
		}
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// connect 0.01 + 10 ops * (0.001 latency + 0.0001 cpu) >= 0.021
	if end < 0.02 {
		t.Fatalf("end = %v, want >= 0.02", end)
	}
}

func TestClosedSessionPanics(t *testing.T) {
	e := sim.NewEngine()
	svc := testService(e)
	e.Spawn("client", func(p *sim.Proc) {
		s := svc.Connect(p, "c1")
		s.Close(p)
		s.Close(p) // double close is fine
		s.exists(p, "/")
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected error from operation on closed session")
	}
}

func TestDoubleBarrierSynchronizes(t *testing.T) {
	e := sim.NewEngine()
	svc := testService(e)
	const n = 4
	var entered, left [n]float64
	for i := 0; i < n; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			s := svc.Connect(p, fmt.Sprintf("w%d", i))
			b := NewDoubleBarrier(s, "/barrier", n, fmt.Sprintf("w%d", i))
			p.Sleep(float64(i)) // staggered arrival
			if err := b.Enter(p); err != nil {
				t.Error(err)
				return
			}
			entered[i] = p.Now()
			p.Sleep(0.5)
			if err := b.Leave(p); err != nil {
				t.Error(err)
				return
			}
			left[i] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// No worker may pass Enter before the last arrival (t=3).
	for i, at := range entered {
		if at < 3 {
			t.Fatalf("worker %d entered at %v, before last arrival", i, at)
		}
	}
	// No worker may pass Leave before every worker has left.
	maxLeft := 0.0
	for _, at := range left {
		if at > maxLeft {
			maxLeft = at
		}
	}
	for i, at := range left {
		if maxLeft-at > 0.1 {
			t.Fatalf("worker %d left at %v, long before last leave %v", i, at, maxLeft)
		}
	}
}
