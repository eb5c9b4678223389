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
	return BuildFragmentsOn(n, edges, vc, undirected, func(k int, build func(m int)) {
		for m := 0; m < k; m++ {
			build(m)
		}
	})
}

// BuildFragmentsOn is BuildFragments with the machines' builds handed to
// forkJoin, which must run build(0) … build(k-1) once each and return when
// all have finished (sim.HostPool.ForkJoin). Each build writes only its
// own fragment, so the result is the same for every schedule.
func BuildFragmentsOn(n int64, edges []Edge, vc *VertexCut, undirected bool, forkJoin func(k int, build func(m int))) []*Fragment {
	if n > 1<<31-1 {
		panic(fmt.Sprintf("graph: fragment builder supports at most 2^31-1 vertices, got %d", n))
	}
	// Bucket the arcs by machine: a stable counting sort, so each bucket
	// keeps input order and each build reads one contiguous run.
	k := vc.k
	off := make([]int, k+1)
	for _, m := range vc.place {
		off[m+1]++
	}
	for m := 0; m < k; m++ {
		off[m+1] += off[m]
	}
	arcs := make([]Edge, len(edges))
	cur := append([]int(nil), off[:k]...)
	for i, m := range vc.place {
		arcs[cur[m]] = edges[i]
		cur[m]++
	}
	frags := make([]*Fragment, k)
	forkJoin(k, func(m int) {
		frags[m] = buildFragment(n, arcs[off[m]:off[m+1]], undirected)
	})
	return frags
}

// buildFragment builds one machine's fragment from its bucket of arcs.
func buildFragment(n int64, arcs []Edge, undirected bool) *Fragment {
	// each visits the local arcs in neighbor order: the bucket, then for an
	// undirected graph its reverse arcs, self-loops excepted.
	each := func(visit func(src, dst VertexID)) {
		for _, e := range arcs {
			visit(e.Src, e.Dst)
		}
		if undirected {
			for _, e := range arcs {
				if e.Src != e.Dst {
					visit(e.Dst, e.Src)
				}
			}
		}
	}
	// Dense local IDs go to the arc endpoints in ascending global order.
	f := &Fragment{g2l: make([]int32, n)}
	for v := range f.g2l {
		f.g2l[v] = -1
	}
	nl := 0
	for _, e := range arcs {
		for _, v := range [2]VertexID{e.Src, e.Dst} {
			if f.g2l[v] < 0 {
				f.g2l[v] = 0
				nl++
			}
		}
	}
	f.l2g = make([]VertexID, 0, nl)
	for v, lv := range f.g2l {
		if lv == 0 {
			f.g2l[v] = int32(len(f.l2g))
			f.l2g = append(f.l2g, VertexID(v))
		}
	}
	// Count local degrees into the offsets, then fill targets in exactly
	// the counting order behind per-vertex cursors.
	f.outOff = make([]int64, nl+1)
	f.inOff = make([]int64, nl+1)
	each(func(src, dst VertexID) {
		f.outOff[f.g2l[src]+1]++
		f.inOff[f.g2l[dst]+1]++
	})
	for lv := 0; lv < nl; lv++ {
		f.outOff[lv+1] += f.outOff[lv]
		f.inOff[lv+1] += f.inOff[lv]
	}
	f.outTgt = make([]VertexID, f.outOff[nl])
	f.inTgt = make([]VertexID, f.inOff[nl])
	outCur := append([]int64(nil), f.outOff[:nl]...)
	inCur := append([]int64(nil), f.inOff[:nl]...)
	each(func(src, dst VertexID) {
		ls, ld := f.g2l[src], f.g2l[dst]
		f.outTgt[outCur[ls]] = dst
		outCur[ls]++
		f.inTgt[inCur[ld]] = src
		inCur[ld]++
	})
	return f
}
