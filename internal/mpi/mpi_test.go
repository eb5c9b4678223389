package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func testCluster(e *sim.Engine) *cluster.Cluster {
	return cluster.New(e, cluster.Config{
		Nodes:             4,
		CoresPerNode:      4,
		DiskBandwidth:     1e6,
		NICBandwidth:      1e6,
		NetLatency:        0.001,
		SharedFSBandwidth: 1e6,
		NodeNamePrefix:    "n",
	})
}

func testConfig() Config {
	return Config{SpawnLatency: 0.1, MsgOverheadBytes: 0, FinalizeLatency: 0.1}
}

// runWorld spawns a world of n ranks running fn and waits for completion.
func runWorld(t *testing.T, n int, fn func(*sim.Proc, *Comm)) *World {
	t.Helper()
	e := sim.NewEngine()
	c := testCluster(e)
	var world *World
	e.Spawn("mpirun", func(p *sim.Proc) {
		w, err := Spawn(p, c, testConfig(), n, fn)
		if err != nil {
			t.Error(err)
			return
		}
		world = w
		w.Done().Wait(p)
		w.Finalize(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return world
}

func TestSpawnAssignsRanksRoundRobin(t *testing.T) {
	ranks := map[int]string{}
	runWorld(t, 4, func(p *sim.Proc, c *Comm) {
		ranks[c.Rank()] = c.Node().Name
		if c.size() != 4 {
			t.Errorf("Size = %d, want 4", c.size())
		}
	})
	if len(ranks) != 4 {
		t.Fatalf("ranks = %v", ranks)
	}
	if ranks[0] != "n0" || ranks[1] != "n1" || ranks[2] != "n2" || ranks[3] != "n3" {
		t.Fatalf("ranks placed %v, want round-robin n0..n3", ranks)
	}
}

func TestSpawnRejectsBadCount(t *testing.T) {
	e := sim.NewEngine()
	c := testCluster(e)
	e.Spawn("mpirun", func(p *sim.Proc) {
		if _, err := Spawn(p, c, testConfig(), 0, func(*sim.Proc, *Comm) {}); err == nil {
			t.Error("zero ranks should fail")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecv(t *testing.T) {
	got := ""
	runWorld(t, 2, func(p *sim.Proc, c *Comm) {
		if c.Rank() == 0 {
			c.Send(p, 1, "data", 100, "hello")
		} else {
			m := c.Recv(p, "data")
			got = m.Payload.(string)
			if m.From != 0 {
				t.Errorf("From = %d, want 0", m.From)
			}
		}
	})
	if got != "hello" {
		t.Fatalf("payload = %q, want hello", got)
	}
}

func TestRecvByTagStashesOthers(t *testing.T) {
	var order []string
	runWorld(t, 2, func(p *sim.Proc, c *Comm) {
		if c.Rank() == 0 {
			c.Send(p, 1, "a", 10, "first-a")
			c.Send(p, 1, "b", 10, "first-b")
			c.Send(p, 1, "a", 10, "second-a")
		} else {
			m := c.Recv(p, "b")
			order = append(order, m.Payload.(string))
			m = c.Recv(p, "a")
			order = append(order, m.Payload.(string))
			m = c.Recv(p, "a")
			order = append(order, m.Payload.(string))
		}
	})
	want := []string{"first-b", "first-a", "second-a"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestBarrierSynchronizesRanks(t *testing.T) {
	var after [4]float64
	runWorld(t, 4, func(p *sim.Proc, c *Comm) {
		p.Sleep(float64(c.Rank())) // staggered
		c.Barrier(p)
		after[c.Rank()] = p.Now()
	})
	for r, at := range after {
		if at < 3 {
			t.Fatalf("rank %d passed barrier at %v, before last arrival", r, at)
		}
	}
}

func TestBcast(t *testing.T) {
	var got [3]any
	runWorld(t, 3, func(p *sim.Proc, c *Comm) {
		var payload any
		if c.Rank() == 0 {
			payload = 42
		}
		got[c.Rank()] = c.bcast(p, 0, 8, payload)
	})
	for r, v := range got {
		if v.(int) != 42 {
			t.Fatalf("rank %d got %v, want 42", r, v)
		}
	}
}

func TestGather(t *testing.T) {
	var rootResult []float64
	runWorld(t, 4, func(p *sim.Proc, c *Comm) {
		res := c.gather(p, 0, 8, float64(c.Rank()*10))
		if c.Rank() == 0 {
			rootResult = res
		} else if res != nil {
			t.Errorf("rank %d got non-nil gather result", c.Rank())
		}
	})
	want := []float64{0, 10, 20, 30}
	if len(rootResult) != 4 {
		t.Fatalf("gather = %v", rootResult)
	}
	for i := range want {
		if rootResult[i] != want[i] {
			t.Fatalf("gather = %v, want %v", rootResult, want)
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	var got [4]float64
	runWorld(t, 4, func(p *sim.Proc, c *Comm) {
		got[c.Rank()] = c.AllreduceSum(p, float64(c.Rank()+1))
	})
	for r, v := range got {
		if v != 10 { // 1+2+3+4
			t.Fatalf("rank %d allreduce = %v, want 10", r, v)
		}
	}
}

func TestBytesSentAccounted(t *testing.T) {
	w := runWorld(t, 2, func(p *sim.Proc, c *Comm) {
		if c.Rank() == 0 {
			c.Send(p, 1, "x", 1000, nil)
		} else {
			c.Recv(p, "x")
		}
	})
	// The sender's NIC carries the payload plus the message framing.
	want := 1000 + w.cfg.MsgOverheadBytes
	if got := w.comms[0].node.NIC.Consumed(); got != want {
		t.Fatalf("rank 0 NIC bytes = %v, want %v", got, want)
	}
}

func TestSpawnIsSerial(t *testing.T) {
	var starts [3]float64
	runWorld(t, 3, func(p *sim.Proc, c *Comm) {
		starts[c.Rank()] = p.Now()
	})
	// Ranks start at 0.1, 0.2, 0.3 (serial spawn latency).
	for r := 0; r < 3; r++ {
		want := 0.1 * float64(r+1)
		if starts[r] < want-1e-9 {
			t.Fatalf("rank %d started at %v, want >= %v", r, starts[r], want)
		}
	}
}
