package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
)

// This file holds the partition build as it stood before the count-then-fill
// rewrite — per-vertex replica slices appended during placement and sorted
// afterwards, and one fragment pass over all machines at once — copied
// verbatim as the oracle the rewrite must match output for output.

type oracleVertexCut struct {
	k        int
	place    []int
	master   []int
	replicas [][]int
	arcCount []int64
}

func oracleNewVertexCut(n int64, edges []Edge, k int, strategy VertexCutStrategy) *oracleVertexCut {
	if k <= 0 {
		panic("graph: machines must be positive")
	}
	vc := &oracleVertexCut{
		k:        k,
		place:    make([]int, len(edges)),
		master:   make([]int, n),
		replicas: make([][]int, n),
		arcCount: make([]int64, k),
	}
	// seen[v*k+m] records that machine m already holds a replica of v — a
	// flat bitset instead of per-vertex maps, which dominated the profile
	// of large cuts.
	seen := make([]bool, n*int64(k))
	record := func(v VertexID, m int) {
		if !seen[int64(v)*int64(k)+int64(m)] {
			seen[int64(v)*int64(k)+int64(m)] = true
			vc.replicas[v] = append(vc.replicas[v], m)
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
	for v := int64(0); v < n; v++ {
		sort.Ints(vc.replicas[v])
		if len(vc.replicas[v]) > 0 {
			// Master is the least-loaded replica machine, ties by index —
			// deterministic and spreads masters.
			best := vc.replicas[v][0]
			for _, m := range vc.replicas[v][1:] {
				if vc.arcCount[m] < vc.arcCount[best] {
					best = m
				}
			}
			vc.master[v] = best
		} else {
			// Isolated vertex: assign by hash.
			vc.master[v] = int(uint64(v) % uint64(k))
			vc.replicas[v] = []int{vc.master[v]}
		}
	}
	return vc
}
func (vc *oracleVertexCut) greedyPlace(e Edge, seen []bool) int {
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

func oracleBuildFragments(n int64, edges []Edge, vc *oracleVertexCut, undirected bool) []*Fragment {
	if n > 1<<31-1 {
		panic(fmt.Sprintf("graph: fragment builder supports at most 2^31-1 vertices, got %d", n))
	}
	k := vc.k
	frags := make([]*Fragment, k)
	for m := 0; m < k; m++ {
		frags[m] = &Fragment{g2l: make([]int32, n)}
		for v := range frags[m].g2l {
			frags[m].g2l[v] = -1
		}
	}

	// Pass 1: count local degrees per (machine, vertex) and discover the
	// local vertex sets. outDeg/inDeg are indexed by global ID here and
	// compacted to local IDs below.
	outDeg := make([][]int32, k)
	inDeg := make([][]int32, k)
	for m := 0; m < k; m++ {
		outDeg[m] = make([]int32, n)
		inDeg[m] = make([]int32, n)
	}
	count := func(m int, src, dst VertexID) {
		outDeg[m][src]++
		inDeg[m][dst]++
	}
	for i, e := range edges {
		count(vc.place[i], e.Src, e.Dst)
	}
	if undirected {
		for i, e := range edges {
			if e.Src == e.Dst {
				continue
			}
			count(vc.place[i], e.Dst, e.Src)
		}
	}

	// Assign dense local IDs in ascending global order and build offsets.
	for m := 0; m < k; m++ {
		f := frags[m]
		for v := int64(0); v < n; v++ {
			if outDeg[m][v] > 0 || inDeg[m][v] > 0 {
				f.g2l[v] = int32(len(f.l2g))
				f.l2g = append(f.l2g, VertexID(v))
			}
		}
		nl := len(f.l2g)
		f.outOff = make([]int64, nl+1)
		f.inOff = make([]int64, nl+1)
		for lv := 0; lv < nl; lv++ {
			v := f.l2g[lv]
			f.outOff[lv+1] = f.outOff[lv] + int64(outDeg[m][v])
			f.inOff[lv+1] = f.inOff[lv] + int64(inDeg[m][v])
		}
		f.outTgt = make([]VertexID, f.outOff[nl])
		f.inTgt = make([]VertexID, f.inOff[nl])
	}

	// Pass 2: fill targets in exactly the counting order, reusing the
	// degree arrays as per-vertex fill cursors.
	for m := 0; m < k; m++ {
		for v := range outDeg[m] {
			outDeg[m][v] = 0
			inDeg[m][v] = 0
		}
	}
	fill := func(m int, src, dst VertexID) {
		f := frags[m]
		ls, ld := f.g2l[src], f.g2l[dst]
		f.outTgt[f.outOff[ls]+int64(outDeg[m][src])] = dst
		outDeg[m][src]++
		f.inTgt[f.inOff[ld]+int64(inDeg[m][dst])] = src
		inDeg[m][dst]++
	}
	for i, e := range edges {
		fill(vc.place[i], e.Src, e.Dst)
	}
	if undirected {
		for i, e := range edges {
			if e.Src == e.Dst {
				continue
			}
			fill(vc.place[i], e.Dst, e.Src)
		}
	}
	return frags
}

// requireSameCut fails t unless got matches the oracle cut in every
// observable: placement, masters, replica sets, loads and replication.
func requireSameCut(t *testing.T, got *VertexCut, want *oracleVertexCut) {
	t.Helper()
	if got.k != want.k || !slices.Equal(got.place, want.place) || !slices.Equal(got.ArcCounts(), want.arcCount) {
		t.Fatalf("placement differs: k %d/%d, place %v / %v, loads %v / %v",
			got.k, want.k, got.place, want.place, got.ArcCounts(), want.arcCount)
	}
	for v := range want.master {
		if got.Master(VertexID(v)) != want.master[v] || !slices.Equal(got.Replicas(VertexID(v)), want.replicas[v]) {
			t.Fatalf("vertex %d: master %d replicas %v, want %d %v",
				v, got.Master(VertexID(v)), got.Replicas(VertexID(v)), want.master[v], want.replicas[v])
		}
	}
	total := 0
	for _, r := range want.replicas {
		total += len(r)
	}
	wantRF := 0.0
	if len(want.replicas) > 0 {
		wantRF = float64(total) / float64(len(want.replicas))
	}
	if got.ReplicationFactor() != wantRF {
		t.Fatalf("replication factor %v, want %v", got.ReplicationFactor(), wantRF)
	}
}

// requireSameFragments fails t unless the two fragment sets agree array
// by array.
func requireSameFragments(t *testing.T, got, want []*Fragment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d fragments, want %d", len(got), len(want))
	}
	for m := range want {
		g, w := got[m], want[m]
		for _, d := range []struct {
			name string
			same bool
		}{
			{"l2g", slices.Equal(g.l2g, w.l2g)},
			{"g2l", slices.Equal(g.g2l, w.g2l)},
			{"outOff", slices.Equal(g.outOff, w.outOff)},
			{"outTgt", slices.Equal(g.outTgt, w.outTgt)},
			{"inOff", slices.Equal(g.inOff, w.inOff)},
			{"inTgt", slices.Equal(g.inTgt, w.inTgt)},
		} {
			if !d.same {
				t.Fatalf("machine %d: %s differs", m, d.name)
			}
		}
	}
}

// FuzzVertexCut checks the vertex cut and the fragments against the
// oracle on random edge lists: up to 96 vertices (so duplicates,
// self-loops and isolated vertices all occur) over 1 to 70 machines (so k
// crosses a 64-bit word), both strategies, directed and undirected.
func FuzzVertexCut(f *testing.F) {
	f.Add(uint8(9), uint8(2), false, false, []byte{0, 1, 1, 2, 2, 0, 3, 3, 0, 1})
	f.Add(uint8(95), uint8(69), true, true, []byte{5, 5, 1, 90, 90, 1, 7, 8, 8, 9, 1, 90})
	f.Add(uint8(40), uint8(64), true, false, []byte{0, 39, 39, 0, 20, 20, 3, 4, 4, 5, 5, 3, 0, 39})
	f.Add(uint8(0), uint8(0), false, true, []byte{})
	f.Fuzz(func(t *testing.T, nb, kb uint8, greedy, undirected bool, data []byte) {
		n := int64(nb%96) + 1
		k := int(kb%70) + 1
		edges := make([]Edge, len(data)/2)
		for i := range edges {
			edges[i] = Edge{VertexID(int64(data[2*i]) % n), VertexID(int64(data[2*i+1]) % n)}
		}
		strategy := VertexCutHash
		if greedy {
			strategy = VertexCutGreedy
		}
		got, want := NewVertexCut(n, edges, k, strategy), oracleNewVertexCut(n, edges, k, strategy)
		requireSameCut(t, got, want)
		requireSameFragments(t, BuildFragments(n, edges, got, undirected), oracleBuildFragments(n, edges, want, undirected))
	})
}

// TestFragmentsMatchSerialAtEveryPoolSize builds the fragments through
// the host pool at several parallelisms and requires the serial build's
// arrays exactly.
func TestFragmentsMatchSerialAtEveryPoolSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 600
	edges := append(randomEdges(rng, n, 5000), Edge{7, 7}, Edge{8, 8}, Edge{7, 9}, Edge{7, 9})
	for _, undirected := range []bool{false, true} {
		for _, strategy := range []VertexCutStrategy{VertexCutHash, VertexCutGreedy} {
			vc := NewVertexCut(n, edges, 8, strategy)
			want := BuildFragments(n, edges, vc, undirected)
			for _, par := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("undirected=%v/%v/par=%d", undirected, strategy, par), func(t *testing.T) {
					requireSameFragments(t, BuildFragmentsOn(n, edges, vc, undirected, sim.NewHostPool(par).ForkJoin), want)
				})
			}
		}
	}
}

// TestPartitionBuildAllocs pins the partition build's allocations to a
// count independent of the vertex count: a vertex cut and its fragments
// over 64 times the vertices (machines fixed) allocate exactly as often,
// so no per-vertex allocation can creep back.
func TestPartitionBuildAllocs(t *testing.T) {
	const k = 8
	allocs := func(n int64, strategy VertexCutStrategy) float64 {
		edges := randomEdges(rand.New(rand.NewSource(1)), n, int(4*n))
		return testing.AllocsPerRun(3, func() {
			BuildFragments(n, edges, NewVertexCut(n, edges, k, strategy), true)
		})
	}
	for _, strategy := range []VertexCutStrategy{VertexCutHash, VertexCutGreedy} {
		small, large := allocs(1<<10, strategy), allocs(1<<16, strategy)
		t.Logf("%v: %.0f allocs at n=1k, %.0f at n=64k", strategy, small, large)
		if small != large {
			t.Fatalf("%v: %.0f allocs at n=1k but %.0f at n=64k: the build allocates per vertex", strategy, small, large)
		}
	}
}
