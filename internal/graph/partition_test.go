package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomEdges(rng *rand.Rand, n int64, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{
			Src: VertexID(rng.Int63n(n)),
			Dst: VertexID(rng.Int63n(n)),
		}
	}
	return edges
}

func TestHashPartitionerCoversAllPartitions(t *testing.T) {
	p := NewHashPartitioner(4)
	if p.K() != 4 || p.Name() != "hash" {
		t.Fatalf("K=%d Name=%q", p.K(), p.Name())
	}
	seen := map[int]bool{}
	for v := VertexID(0); v < 1000; v++ {
		part := p.Partition(v)
		if part < 0 || part >= 4 {
			t.Fatalf("partition %d out of range", part)
		}
		seen[part] = true
	}
	if len(seen) != 4 {
		t.Fatalf("only %d partitions used", len(seen))
	}
}

func TestHashPartitionerBalance(t *testing.T) {
	p := NewHashPartitioner(8)
	counts := make([]int, 8)
	const n = 80000
	for v := VertexID(0); v < n; v++ {
		counts[p.Partition(v)]++
	}
	for i, c := range counts {
		if c < n/8*9/10 || c > n/8*11/10 {
			t.Fatalf("partition %d has %d vertices, want ~%d", i, c, n/8)
		}
	}
}

func TestVertexCutPlacesEveryArc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edges := randomEdges(rng, 50, 300)
	for _, strategy := range []VertexCutStrategy{VertexCutHash, VertexCutGreedy} {
		vc := NewVertexCut(50, edges, 4, strategy)
		if vc.k != 4 {
			t.Fatalf("K = %d", vc.k)
		}
		var total int64
		for _, c := range vc.ArcCounts() {
			total += c
		}
		if total != 300 {
			t.Fatalf("%v: placed %d arcs, want 300", strategy, total)
		}
		for i := range edges {
			m := vc.place[i]
			if m < 0 || m >= 4 {
				t.Fatalf("arc %d on machine %d", i, m)
			}
		}
	}
}

func TestVertexCutMasterIsReplica(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	edges := randomEdges(rng, 40, 200)
	vc := NewVertexCut(40, edges, 3, VertexCutHash)
	for v := VertexID(0); v < 40; v++ {
		master := vc.Master(v)
		found := false
		for _, m := range vc.Replicas(v) {
			if m == master {
				found = true
			}
		}
		if !found {
			t.Fatalf("vertex %d master %d not among replicas %v", v, master, vc.Replicas(v))
		}
	}
}

func TestVertexCutIsolatedVertexGetsReplica(t *testing.T) {
	vc := NewVertexCut(5, []Edge{{0, 1}}, 2, VertexCutHash)
	for v := VertexID(0); v < 5; v++ {
		if len(vc.Replicas(v)) == 0 {
			t.Fatalf("vertex %d has no replicas", v)
		}
	}
}

func TestGreedyReducesReplication(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := randomEdges(rng, 200, 3000)
	hash := NewVertexCut(200, edges, 8, VertexCutHash)
	greedy := NewVertexCut(200, edges, 8, VertexCutGreedy)
	if greedy.ReplicationFactor() >= hash.ReplicationFactor() {
		t.Fatalf("greedy replication %.2f not below hash %.2f",
			greedy.ReplicationFactor(), hash.ReplicationFactor())
	}
}

func TestReplicationFactorBounds(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(2 + rng.Intn(40))
		k := 1 + rng.Intn(6)
		edges := randomEdges(rng, n, 1+rng.Intn(150))
		vc := NewVertexCut(n, edges, k, VertexCutHash)
		rf := vc.ReplicationFactor()
		return rf >= 1 && rf <= float64(k)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVertexCutStrategyString(t *testing.T) {
	if VertexCutHash.String() != "hash" || VertexCutGreedy.String() != "greedy" {
		t.Fatal("strategy names wrong")
	}
	if VertexCutStrategy(9).String() == "" {
		t.Fatal("unknown strategy should still stringify")
	}
}
