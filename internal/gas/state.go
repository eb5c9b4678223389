package gas

import (
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

// state is the shared semantic state of a running GAS job. As with the
// Pregel engine, the simulation kernel is cooperative, so the iteration
// structure needs no locking; the first rank to reach an iteration
// triggers the (instantaneous in simulated time) semantic computation for
// that iteration, and all ranks then charge their own measured share of
// the work. Within that computation the gather, apply, and scatter phases
// each fan across the host pool (see ensurePrepared); every fork writes
// only vertex-disjoint or shard-private state, and shard results merge in
// fixed shard order, so results are identical for every pool size.
//
// Hot-loop layout: per-machine adjacency lives in local CSR fragments
// (graph.Fragment) — flat offset/target arrays behind dense local vertex
// IDs — instead of map[VertexID][]VertexID, and every per-iteration
// structure (active list, shard counters, activation buffers) is
// preallocated and reused, so a steady-state iteration allocates only the
// fork/join bookkeeping (see TestGASIterationKernelAllocs).
type state struct {
	g    *graph.Graph
	vc   *graph.VertexCut
	k    int
	pool *sim.HostPool

	// frags[m] is machine m's local CSR mirror of the arcs the vertex cut
	// placed there; neighbor order reproduces the historical map-append
	// order byte for byte (see graph.BuildFragments).
	frags []*graph.Fragment

	values []float64
	active []bool

	localArcs    []int64
	replicaCount []int64
	masterCount  []int64

	iter     int
	prepared int // last iteration whose work has been computed; starts -1

	curIterOp trace.OpRef

	// Per-iteration, per-rank counters (valid once prepared == iter).
	gatherEdges        []int64
	partialMsgs        [][]int64 // [mirror machine][master machine]
	applyCount         []int64
	syncMsgs           [][]int64 // [master machine][mirror machine]
	scatterEdges       []int64
	activationsPerRank []int64

	nextActive []bool

	// accs/hasAcc hold the gather accumulators, indexed by vertex. They
	// replace a per-iteration map so that parallel gather shards write
	// vertex-disjoint slots; only active vertices are cleared and read.
	accs   []float64
	hasAcc []bool

	// activeList is the master vertex list of the iteration being
	// prepared, rebuilt into the same buffer each iteration.
	activeList []graph.VertexID
	// shards are the per-fork private counter sets, allocated once for the
	// pool's full parallelism and reset each iteration.
	shards []*gasShard

	// Parameters of the iteration being prepared, read by the persistent
	// fork closures (set before, cleared after, each ForkJoin fan-out).
	prepProg   Program
	prepIter   int
	prepShards int

	gatherFn, applyFn, scatterFn func(int)
}

// gasShard holds one shard's private counters and activation candidates
// for one iteration; merged into the shared state in shard-index order.
// Every counter is an integer sum and every activation is idempotent, so
// the merged result is independent of how the active list was sharded.
type gasShard struct {
	gatherEdges  []int64
	applyCount   []int64
	scatterEdges []int64
	partialMsgs  [][]int64
	syncMsgs     [][]int64
	activations  []graph.VertexID
}

func newGasShards(n, k int) []*gasShard {
	shards := make([]*gasShard, n)
	for i := range shards {
		s := &gasShard{
			gatherEdges:  make([]int64, k),
			applyCount:   make([]int64, k),
			scatterEdges: make([]int64, k),
			partialMsgs:  make([][]int64, k),
			syncMsgs:     make([][]int64, k),
		}
		for m := 0; m < k; m++ {
			s.partialMsgs[m] = make([]int64, k)
			s.syncMsgs[m] = make([]int64, k)
		}
		shards[i] = s
	}
	return shards
}

// reset zeroes the shard for reuse in the next iteration.
func (sh *gasShard) reset() {
	for m := range sh.gatherEdges {
		sh.gatherEdges[m] = 0
		sh.applyCount[m] = 0
		sh.scatterEdges[m] = 0
		for d := range sh.partialMsgs[m] {
			sh.partialMsgs[m][d] = 0
			sh.syncMsgs[m][d] = 0
		}
	}
	sh.activations = sh.activations[:0]
}

// newState builds the full semantic state for a job: the vertex cut, the
// per-machine local CSR fragments, initial vertex values and activity, and
// the preallocated iteration structures. It is engine-free so kernel tests
// and benchmarks can drive iterations without a simulation around them.
func newState(g *graph.Graph, edges []graph.Edge, k int, strategy graph.VertexCutStrategy, hostParallelism int, prog Program) *state {
	vc := graph.NewVertexCut(g.NumVertices(), edges, k, strategy)
	pool := sim.NewHostPool(hostParallelism)
	st := &state{
		g:            g,
		vc:           vc,
		k:            k,
		pool:         pool,
		frags:        graph.BuildFragmentsOn(g.NumVertices(), edges, vc, !g.Directed(), pool.ForkJoin),
		values:       make([]float64, g.NumVertices()),
		active:       make([]bool, g.NumVertices()),
		localArcs:    vc.ArcCounts(),
		replicaCount: make([]int64, k),
		masterCount:  make([]int64, k),
	}
	for v := int64(0); v < g.NumVertices(); v++ {
		val, act := prog.Init(graph.VertexID(v), g)
		st.values[v] = val
		st.active[v] = act
		st.masterCount[vc.Master(graph.VertexID(v))]++
		for _, m := range vc.Replicas(graph.VertexID(v)) {
			st.replicaCount[m]++
		}
	}
	st.resetCounters()
	st.shards = newGasShards(st.pool.Parallelism(), k)
	st.gatherFn = st.gatherShard
	st.applyFn = st.applyShard
	st.scatterFn = st.scatterShard
	return st
}

func (st *state) resetCounters() {
	st.prepared = -1
	st.gatherEdges = make([]int64, st.k)
	st.applyCount = make([]int64, st.k)
	st.scatterEdges = make([]int64, st.k)
	st.activationsPerRank = make([]int64, st.k)
	st.partialMsgs = make([][]int64, st.k)
	st.syncMsgs = make([][]int64, st.k)
	for m := 0; m < st.k; m++ {
		st.partialMsgs[m] = make([]int64, st.k)
		st.syncMsgs[m] = make([]int64, st.k)
	}
	st.nextActive = make([]bool, st.g.NumVertices())
	st.accs = make([]float64, st.g.NumVertices())
	st.hasAcc = make([]bool, st.g.NumVertices())
}

// chunk returns shard i's contiguous slice of the active list.
func (st *state) chunk(i int) []graph.VertexID {
	lo := i * len(st.activeList) / st.prepShards
	hi := (i + 1) * len(st.activeList) / st.prepShards
	return st.activeList[lo:hi]
}

// neighbors returns v's local neighbors on machine m along dir as up to
// two slices, iterated first-then-second. For Both this is in-neighbors
// followed by out-neighbors — the same fold order the old concatenated
// lists had, which matters because Gather/Sum are floating-point folds.
func (st *state) neighbors(dir Direction, m int, v graph.VertexID) (first, second []graph.VertexID) {
	f := st.frags[m]
	switch dir {
	case In:
		return f.InNeighbors(v), nil
	case Out:
		return f.OutNeighbors(v), nil
	case both:
		return f.InNeighbors(v), f.OutNeighbors(v)
	default:
		return nil, nil
	}
}

// gatherShard accumulates each active vertex's neighborhood into its own
// accs slot. Reads only values written before this iteration.
func (st *state) gatherShard(i int) {
	prog, it := st.prepProg, st.prepIter
	dir := prog.GatherDir()
	sh := st.shards[i]
	for _, v := range st.chunk(i) {
		master := st.vc.Master(v)
		first := true
		var acc float64
		for _, m := range st.vc.Replicas(v) {
			ins, outs := st.neighbors(dir, m, v)
			n := len(ins) + len(outs)
			if n == 0 {
				continue
			}
			sh.gatherEdges[m] += int64(n)
			localFirst := true
			var partial float64
			fold := func(o graph.VertexID) {
				g := prog.Gather(it, v, o, st.values[o])
				if localFirst {
					partial = g
					localFirst = false
				} else {
					partial = prog.Sum(partial, g)
				}
			}
			for _, o := range ins {
				fold(o)
			}
			for _, o := range outs {
				fold(o)
			}
			if m != master {
				sh.partialMsgs[m][master]++
			}
			if first {
				acc = partial
				first = false
			} else {
				acc = prog.Sum(acc, partial)
			}
		}
		if !first {
			st.accs[v] = acc
			st.hasAcc[v] = true
		}
	}
}

// applyShard updates its own vertices' values in place — every Apply reads
// only its own vertex's old value and accumulator.
func (st *state) applyShard(i int) {
	prog, it := st.prepProg, st.prepIter
	sh := st.shards[i]
	for _, v := range st.chunk(i) {
		master := st.vc.Master(v)
		sh.applyCount[master]++
		nv := prog.Apply(it, v, st.values[v], st.accs[v], st.hasAcc[v])
		if nv != st.values[v] {
			st.values[v] = nv
			for _, m := range st.vc.Replicas(v) {
				if m != master {
					sh.syncMsgs[master][m]++
				}
			}
		}
	}
}

// scatterShard reads applied values everywhere and records activation
// candidates privately; activation itself happens at the merge.
func (st *state) scatterShard(i int) {
	prog, it := st.prepProg, st.prepIter
	dir := prog.ScatterDir()
	sh := st.shards[i]
	for _, v := range st.chunk(i) {
		for _, m := range st.vc.Replicas(v) {
			ins, outs := st.neighbors(dir, m, v)
			n := len(ins) + len(outs)
			if n == 0 {
				continue
			}
			sh.scatterEdges[m] += int64(n)
			for _, o := range ins {
				if prog.Scatter(it, v, o, st.values[v], st.values[o]) {
					sh.activations = append(sh.activations, o)
				}
			}
			for _, o := range outs {
				if prog.Scatter(it, v, o, st.values[v], st.values[o]) {
					sh.activations = append(sh.activations, o)
				}
			}
		}
	}
}

// ensurePrepared runs the semantic gather/apply/scatter for iteration it
// exactly once.
func (st *state) ensurePrepared(prog Program, it int) {
	if st.prepared >= it {
		return
	}
	if it != st.prepared+1 {
		// Iterations must be prepared in order; a gap is an engine bug.
		panic("gas: iterations prepared out of order")
	}
	st.prepared = it
	for m := 0; m < st.k; m++ {
		st.gatherEdges[m] = 0
		st.applyCount[m] = 0
		st.scatterEdges[m] = 0
		st.activationsPerRank[m] = 0
		for d := 0; d < st.k; d++ {
			st.partialMsgs[m][d] = 0
			st.syncMsgs[m][d] = 0
		}
	}
	for v := range st.nextActive {
		st.nextActive[v] = false
	}

	// Collect the active master list in vertex order for determinism,
	// reusing the buffer across iterations.
	st.activeList = st.activeList[:0]
	for v := int64(0); v < st.g.NumVertices(); v++ {
		if st.active[v] {
			st.activeList = append(st.activeList, graph.VertexID(v))
		}
	}

	// Shard the active list into contiguous chunks, one per host
	// goroutine. Each phase forks across the shards and joins before the
	// next (gather → apply → scatter need barriers: apply reads every
	// gather accumulator, scatter reads every applied value). Per-vertex
	// work is self-contained, so the chunk boundaries never change any
	// result — only how the host wall-clock work is divided.
	nShards := st.pool.Parallelism()
	if nShards > len(st.activeList) {
		nShards = len(st.activeList)
	}
	if nShards < 1 {
		nShards = 1
	}
	st.prepProg, st.prepIter, st.prepShards = prog, it, nShards
	for i := 0; i < nShards; i++ {
		st.shards[i].reset()
	}

	for _, v := range st.activeList {
		st.hasAcc[v] = false
	}
	st.pool.ForkJoin(nShards, st.gatherFn)
	st.pool.ForkJoin(nShards, st.applyFn)
	st.pool.ForkJoin(nShards, st.scatterFn)

	// Merge shard counters and activations in shard-index order.
	for _, sh := range st.shards[:nShards] {
		for m := 0; m < st.k; m++ {
			st.gatherEdges[m] += sh.gatherEdges[m]
			st.applyCount[m] += sh.applyCount[m]
			st.scatterEdges[m] += sh.scatterEdges[m]
			for d := 0; d < st.k; d++ {
				st.partialMsgs[m][d] += sh.partialMsgs[m][d]
				st.syncMsgs[m][d] += sh.syncMsgs[m][d]
			}
		}
		for _, o := range sh.activations {
			if !st.nextActive[o] {
				st.nextActive[o] = true
				st.activationsPerRank[st.vc.Master(o)]++
			}
		}
	}
	st.active, st.nextActive = st.nextActive, st.active
	st.prepProg = nil
}

// finishIteration advances the iteration counter; called once per
// iteration by rank 0 after all phases complete.
func (st *state) finishIteration() {
	st.iter++
}
