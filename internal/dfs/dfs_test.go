package dfs

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func testCluster(e *sim.Engine) *cluster.Cluster {
	return cluster.New(e, cluster.Config{
		Nodes:             4,
		CoresPerNode:      2,
		DiskBandwidth:     1000,
		NICBandwidth:      2000,
		SharedFSBandwidth: 500,
		NodeNamePrefix:    "n",
	})
}

func testHDFS(e *sim.Engine) (*cluster.Cluster, *HDFS) {
	c := testCluster(e)
	h := NewHDFS(c, HDFSConfig{BlockSize: 100, Replication: 2})
	return c, h
}

func TestHDFSCreateAndMetadata(t *testing.T) {
	e := sim.NewEngine()
	_, h := testHDFS(e)
	if err := h.Create("/data/g.e", 250); err != nil {
		t.Fatal(err)
	}
	if !h.Exists("/data/g.e") {
		t.Fatal("file missing after create")
	}
	if size := h.files["/data/g.e"].size; size != 250 {
		t.Fatalf("size = %d", size)
	}
	if err := h.Create("/data/g.e", 1); err == nil {
		t.Fatal("duplicate create should fail")
	}
	if len(h.files) != 1 {
		t.Fatalf("%d files, want 1", len(h.files))
	}
}

func TestHDFSReplicationClamped(t *testing.T) {
	e := sim.NewEngine()
	c := testCluster(e)
	h := NewHDFS(c, HDFSConfig{BlockSize: 10, Replication: 99})
	if h.cfg.Replication != c.Size() {
		t.Fatalf("replication = %d, want clamped to %d", h.cfg.Replication, c.Size())
	}
}

func TestHDFSSplitsCoverFile(t *testing.T) {
	e := sim.NewEngine()
	_, h := testHDFS(e)
	if err := h.Create("/f", 1003); err != nil {
		t.Fatal(err)
	}
	splits, err := h.Splits("/f", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 4 {
		t.Fatalf("splits = %d, want 4", len(splits))
	}
	var total int64
	offset := int64(0)
	for _, s := range splits {
		if s.Offset != offset {
			t.Fatalf("split offset %d, want %d", s.Offset, offset)
		}
		total += s.Length
		offset += s.Length
	}
	if total != 1003 {
		t.Fatalf("splits cover %d bytes, want 1003", total)
	}
	if _, err := h.Splits("/missing", 2); err == nil {
		t.Fatal("splits of missing file should fail")
	}
	if _, err := h.Splits("/f", 0); err == nil {
		t.Fatal("zero splits should fail")
	}
}

func TestHDFSLocalReadIsFasterThanRemote(t *testing.T) {
	// One block replicated on nodes 0 and 1; reading from node 0 is local,
	// from node 2 remote (extra transfer time).
	timeRead := func(readerNode int) float64 {
		e := sim.NewEngine()
		c, h := testHDFS(e)
		if err := h.Create("/f", 100); err != nil {
			t.Fatal(err)
		}
		splits, err := h.Splits("/f", 1)
		if err != nil {
			t.Fatal(err)
		}
		var end float64
		e.Spawn("reader", func(p *sim.Proc) {
			if _, err := h.ReadSplit(p, c.Node(readerNode), splits[0]); err != nil {
				t.Error(err)
			}
			end = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	local := timeRead(0)
	remote := timeRead(2)
	if local >= remote {
		t.Fatalf("local read %.4fs not faster than remote %.4fs", local, remote)
	}
}

func TestHDFSReadSplitReportsLocality(t *testing.T) {
	e := sim.NewEngine()
	c, h := testHDFS(e)
	if err := h.Create("/f", 100); err != nil {
		t.Fatal(err)
	}
	splits, _ := h.Splits("/f", 1)
	var localAt0, localAt2 int64
	e.Spawn("r", func(p *sim.Proc) {
		localAt0, _ = h.ReadSplit(p, c.Node(0), splits[0])
		localAt2, _ = h.ReadSplit(p, c.Node(2), splits[0])
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if localAt0 != 100 {
		t.Fatalf("local bytes at replica node = %d, want 100", localAt0)
	}
	if localAt2 != 0 {
		t.Fatalf("local bytes at non-replica node = %d, want 0", localAt2)
	}
}

func TestHDFSWriteChargesPipeline(t *testing.T) {
	e := sim.NewEngine()
	c, h := testHDFS(e)
	var end float64
	e.Spawn("writer", func(p *sim.Proc) {
		if err := h.Write(p, c.Node(0), "/out", 200); err != nil {
			t.Error(err)
		}
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Fatal("write took no simulated time")
	}
	if !h.Exists("/out") {
		t.Fatal("file missing after write")
	}
	// 2 blocks x 2 replicas x 100 bytes at disk rate 1000 = 0.4s disk
	// minimum; end must be at least that.
	if end < 0.4 {
		t.Fatalf("write end = %v, want >= 0.4", end)
	}
}

func TestHDFSSplitHostsIntersectReplicas(t *testing.T) {
	e := sim.NewEngine()
	_, h := testHDFS(e)
	if err := h.Create("/f", 100); err != nil { // single block, 2 replicas
		t.Fatal(err)
	}
	splits, _ := h.Splits("/f", 1)
	if len(splits[0].Hosts) != 2 {
		t.Fatalf("hosts = %v, want 2 replica hosts", splits[0].Hosts)
	}
}

func TestSharedStoreReadWrite(t *testing.T) {
	e := sim.NewEngine()
	c := testCluster(e)
	s := NewSharedStore(c)
	var end float64
	e.Spawn("rw", func(p *sim.Proc) {
		if err := s.Write(p, c.Node(0), "/g", 500); err != nil {
			t.Error(err)
		}
		if err := s.Read(p, c.Node(1), "/g", 500); err != nil {
			t.Error(err)
		}
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 1000 bytes total at 500 B/s shared = 2s.
	if math.Abs(end-2) > 1e-9 {
		t.Fatalf("end = %v, want 2", end)
	}
	if sz, err := s.Size("/g"); err != nil || sz != 500 {
		t.Fatalf("Size = %d,%v", sz, err)
	}
	if len(s.files) != 1 {
		t.Fatalf("%d files, want 1", len(s.files))
	}
}

func TestSharedStoreErrors(t *testing.T) {
	e := sim.NewEngine()
	c := testCluster(e)
	s := NewSharedStore(c)
	if err := s.Create("/g", -1); err == nil {
		t.Fatal("negative size should fail")
	}
	if err := s.Create("/g", 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("/g", 10); err != nil {
		if !s.Exists("/g") {
			t.Fatal("file should exist")
		}
	} else {
		t.Fatal("duplicate create should fail")
	}
	e.Spawn("r", func(p *sim.Proc) {
		if err := s.Read(p, c.Node(0), "/missing", 1); err == nil {
			t.Error("read of missing file should fail")
		}
		if err := s.Read(p, c.Node(0), "/g", 11); err == nil {
			t.Error("read beyond size should fail")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
