package graph

import "fmt"

// This file implements local CSR fragments: the per-machine mirror of a
// vertex-cut edge placement, in the style of GraphScope's ArrowFragment.
// Each machine gets dense local vertex IDs with l2g/g2l indexers built once
// from the placement, and flat offset/target arrays for its local out- and
// in-adjacency. The engines iterate these contiguous arrays in their hot
// loops instead of chasing per-vertex map entries.
//
// Byte-identity contract: the per-(machine, vertex) neighbor order
// reproduces exactly the order the engines historically built with
// map[VertexID][]VertexID appends — arcs in input order, with the
// symmetrized reverse arcs of an undirected graph appended in a second
// pass. Gather folds over these lists are floating-point order sensitive,
// so the fragment build is a stable counting sort, never a re-sort.

// Fragment is one machine's local CSR mirror of the placed arcs.
type Fragment struct {
	// l2g maps dense local IDs to global vertex IDs, ascending.
	l2g []VertexID
	// g2l maps global vertex IDs to local IDs, -1 when the vertex has no
	// arc endpoint on this machine.
	g2l []int32

	outOff []int64
	outTgt []VertexID
	inOff  []int64
	inTgt  []VertexID
}

// OutNeighbors returns v's out-neighbors along arcs placed on this
// machine, in arc input order. The slice aliases fragment storage and must
// not be modified; it is empty when v has no local out-arcs.
func (f *Fragment) OutNeighbors(v VertexID) []VertexID {
	lv := f.g2l[v]
	if lv < 0 {
		return nil
	}
	return f.outTgt[f.outOff[lv]:f.outOff[lv+1]]
}

// InNeighbors returns v's in-neighbors along arcs placed on this machine,
// in arc input order. The slice aliases fragment storage and must not be
// modified; it is empty when v has no local in-arcs.
func (f *Fragment) InNeighbors(v VertexID) []VertexID {
	lv := f.g2l[v]
	if lv < 0 {
		return nil
	}
	return f.inTgt[f.inOff[lv]:f.inOff[lv+1]]
}

// MemoryBytes estimates the fragment's heap footprint: the flat arrays
// plus the indexers. Used by the bytes/edge accounting in benchmarks.
func (f *Fragment) MemoryBytes() int64 {
	return int64(len(f.l2g))*8 + int64(len(f.g2l))*4 +
		int64(len(f.outOff)+len(f.inOff))*8 +
		int64(len(f.outTgt)+len(f.inTgt))*8
}

// BuildFragments builds one local CSR fragment per machine from the
// vertex-cut's arc placement. When undirected is true, each input edge
// additionally materializes its reverse arc on the same machine — except
// self-loops, which contribute a single arc (the Graphalytics degree
// convention; see Graph.FromEdges).
//
// The per-vertex neighbor order is arc input order (reverse arcs of an
// undirected graph after all forward arcs), matching the historical
// map-append construction byte for byte.
func BuildFragments(n int64, edges []Edge, vc *VertexCut, undirected bool) []*Fragment {
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
