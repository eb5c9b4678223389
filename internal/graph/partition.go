package graph

import "fmt"

// This file implements the partitioning strategies the simulated platforms
// use to distribute a graph across workers: edge-cut partitioners (hash
// and range, as in Giraph) that assign whole vertices to partitions, and a
// vertex-cut partitioner (as in PowerGraph) that assigns edges and
// replicates vertices as mirrors.

// Partitioner assigns each vertex to one of k partitions (edge-cut).
type Partitioner interface {
	// Partition returns the partition of v, in [0, K()).
	Partition(v VertexID) int
	// K returns the number of partitions.
	K() int
	// Name identifies the strategy for logging and archives.
	Name() string
}

// HashPartitioner spreads vertices across partitions by a multiplicative
// hash of the vertex ID — Giraph's default strategy.
type HashPartitioner struct {
	k int
}

// NewHashPartitioner returns a hash partitioner over k partitions.
func NewHashPartitioner(k int) *HashPartitioner {
	if k <= 0 {
		panic("graph: partitions must be positive")
	}
	return &HashPartitioner{k: k}
}

// Partition implements Partitioner.
func (h *HashPartitioner) Partition(v VertexID) int {
	// Fibonacci hashing: spreads consecutive IDs well.
	x := uint64(v) * 0x9e3779b97f4a7c15
	return int(x % uint64(h.k))
}

// K implements Partitioner.
func (h *HashPartitioner) K() int { return h.k }

// Name implements Partitioner.
func (h *HashPartitioner) Name() string { return "hash" }

// VertexCut is an edge-placement partitioning in the PowerGraph style:
// every arc lives on exactly one machine; a vertex whose arcs span several
// machines is replicated there, with one replica designated master.
type VertexCut struct {
	k int
	// place[i] is the machine of arc i, in input order.
	place []int
	// master[v] is the machine owning vertex v's master replica.
	master []int
	// repl[replOff[v]:replOff[v+1]] is the sorted set of machines holding
	// a replica of v.
	repl     []int
	replOff  []int64
	arcCount []int64
}

// Greedy vs hash edge placement for the vertex-cut.
type VertexCutStrategy int

const (
	// VertexCutHash places arc (u,v) by hashing the pair — PowerGraph's
	// "random" placement.
	VertexCutHash VertexCutStrategy = iota
	// VertexCutGreedy places arcs on a machine already holding one of the
	// endpoints when possible, reducing replication — PowerGraph's
	// "greedy/oblivious" placement.
	VertexCutGreedy
)

func (s VertexCutStrategy) String() string {
	switch s {
	case VertexCutHash:
		return "hash"
	case VertexCutGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("VertexCutStrategy(%d)", int(s))
	}
}

// NewVertexCut computes an edge placement of the n-vertex edge list over k
// machines using the given strategy.
func NewVertexCut(n int64, edges []Edge, k int, strategy VertexCutStrategy) *VertexCut {
	if k <= 0 {
		panic("graph: machines must be positive")
	}
	vc := &VertexCut{
		k:        k,
		place:    make([]int, len(edges)),
		master:   make([]int, n),
		replOff:  make([]int64, n+1),
		arcCount: make([]int64, k),
	}
	// seen[v*k+m] records that machine m already holds a replica of v — a
	// flat bitset instead of per-vertex maps, which dominated the profile
	// of large cuts. replOff[v+1] counts v's replicas until the prefix sum.
	seen := make([]bool, n*int64(k))
	record := func(v VertexID, m int) {
		if i := int64(v)*int64(k) + int64(m); !seen[i] {
			seen[i] = true
			vc.replOff[v+1]++
		}
	}
	for i, e := range edges {
		var m int
		switch strategy {
		case VertexCutGreedy:
			m = vc.greedyPlace(e, seen)
		default:
			m = hashPair(e.Src, e.Dst, k)
		}
		vc.place[i] = m
		vc.arcCount[m]++
		record(e.Src, m)
		record(e.Dst, m)
	}
	// Count-then-fill into one flat array: an isolated vertex gets one
	// replica, and scanning each seen row in machine order sorts the rest.
	for v := int64(0); v < n; v++ {
		vc.replOff[v+1] = vc.replOff[v] + max(vc.replOff[v+1], 1)
	}
	vc.repl = make([]int, vc.replOff[n])
	for v := int64(0); v < n; v++ {
		lo, hi := vc.replOff[v], vc.replOff[v+1]
		r := vc.repl[lo:lo:hi]
		for m, ok := range seen[v*int64(k) : (v+1)*int64(k)] {
			if ok {
				r = append(r, m)
			}
		}
		if len(r) == 0 {
			// Isolated vertex: assign by hash.
			vc.master[v] = int(uint64(v) % uint64(k))
			vc.repl[lo] = vc.master[v]
			continue
		}
		// Master is the least-loaded replica machine, ties by index —
		// deterministic and spreads masters.
		best := r[0]
		for _, m := range r[1:] {
			if vc.arcCount[m] < vc.arcCount[best] {
				best = m
			}
		}
		vc.master[v] = best
	}
	return vc
}

func hashPair(a, b VertexID, k int) int {
	x := uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)*0xc2b2ae3d27d4eb4f
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return int(x % uint64(k))
}

func (vc *VertexCut) greedyPlace(e Edge, seen []bool) int {
	k := int64(vc.k)
	srcRow := seen[int64(e.Src)*k : int64(e.Src)*k+k]
	dstRow := seen[int64(e.Dst)*k : int64(e.Dst)*k+k]
	// Prefer a machine holding both endpoints; then one endpoint; break
	// ties by load; fall back to the least-loaded machine.
	best, bestScore := -1, -1
	for m := 0; m < vc.k; m++ {
		score := 0
		if srcRow[m] {
			score++
		}
		if dstRow[m] {
			score++
		}
		if score > bestScore || (score == bestScore && best >= 0 && vc.arcCount[m] < vc.arcCount[best]) {
			best, bestScore = m, score
		}
	}
	return best
}

// Master returns the machine owning v's master replica.
func (vc *VertexCut) Master(v VertexID) int { return vc.master[v] }

// Replicas returns the sorted machines holding a replica of v.
func (vc *VertexCut) Replicas(v VertexID) []int {
	return vc.repl[vc.replOff[v]:vc.replOff[v+1]:vc.replOff[v+1]]
}

// ArcCounts returns per-machine arc counts.
func (vc *VertexCut) ArcCounts() []int64 { return vc.arcCount }

// ReplicationFactor returns the average number of replicas per vertex —
// PowerGraph's key partitioning-quality metric.
func (vc *VertexCut) ReplicationFactor() float64 {
	if len(vc.master) == 0 {
		return 0
	}
	return float64(len(vc.repl)) / float64(len(vc.master))
}
