package pregel

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Context is the view a vertex program gets of one vertex during one
// Compute call. It exposes Pregel's full vertex API: value access,
// messaging, halting, topology, and aggregators.
//
// Compute calls for different workers may run on different host
// goroutines (see jobState.prepareSuperstep), so every mutation a Context
// performs lands either on state owned exclusively by this vertex's
// worker (values, halt flags) or in the worker's private outbox, which
// the engine merges in worker-index order at the superstep barrier.
//
// Each worker owns one long-lived Context embedded in its outbox; the
// engine repoints vertex/superstep between Compute calls so the hot loop
// performs no per-vertex allocation.
type Context struct {
	js        *jobState
	out       *workerOutbox
	worker    int
	vertex    graph.VertexID
	superstep int
}

// ID returns the vertex ID.
func (c *Context) ID() graph.VertexID { return c.vertex }

// Superstep returns the current superstep number, starting at 0.
func (c *Context) Superstep() int { return c.superstep }

// NumVertices returns the graph's vertex count.
func (c *Context) NumVertices() int64 { return c.js.g.NumVertices() }

// Value returns the vertex's current value.
func (c *Context) Value() float64 { return c.js.values[c.vertex] }

// SetValue replaces the vertex's value.
func (c *Context) SetValue(v float64) { c.js.values[c.vertex] = v }

// OutDegree returns the vertex's out-degree.
func (c *Context) OutDegree() int64 { return c.js.g.OutDegree(c.vertex) }

// OutNeighbors returns the vertex's out-neighbors; the slice must not be
// modified.
func (c *Context) OutNeighbors() []graph.VertexID {
	return c.js.g.OutNeighbors(c.vertex)
}

// SendTo sends msg to vertex dst, delivered in the next superstep. A dst
// outside [0, NumVertices) is a vertex-program bug; it fails the job with
// a vertexProgramError at the superstep barrier instead of panicking the
// whole engine, so one misbehaving program cannot take down the process.
func (c *Context) SendTo(dst graph.VertexID, msg float64) {
	if dst < 0 || int64(dst) >= c.js.g.NumVertices() {
		if c.out.sendErr == nil {
			c.out.sendErr = &vertexProgramError{
				Superstep: c.superstep,
				Vertex:    c.vertex,
				Problem:   fmt.Sprintf("SendTo(%d) outside [0,%d)", dst, c.js.g.NumVertices()),
			}
		}
		return
	}
	c.js.sendShard(c.out, dst, msg)
}

// SendToAllNeighbors sends msg along every out-edge.
func (c *Context) SendToAllNeighbors(msg float64) {
	for _, dst := range c.js.g.OutNeighbors(c.vertex) {
		c.js.sendShard(c.out, dst, msg)
	}
}

// VoteToHalt deactivates the vertex; an incoming message reactivates it.
func (c *Context) VoteToHalt() { c.js.halted[c.vertex] = true }

// Aggregate contributes v to the named aggregator for the next superstep.
// Aggregators are commutative reductions; the operator is fixed at
// registration time via RegisterAggregator on the job config... registered
// implicitly on first use with a sum semantics unless declared.
func (c *Context) Aggregate(name string, v float64) {
	// Recorded as an ordered (name, value) pair and replayed at the merge
	// barrier, so the floating-point reduction order is exactly the serial
	// engine's regardless of host parallelism.
	c.out.aggNames = append(c.out.aggNames, name)
	c.out.aggVals = append(c.out.aggVals, v)
}

// AggregatedValue returns the named aggregator's value from the previous
// superstep, or 0 if absent.
func (c *Context) AggregatedValue(name string) float64 {
	return c.js.aggCur[name]
}

// vertexProgramError reports a vertex program violating the engine API
// contract (e.g. sending to a nonexistent vertex). It fails the job it
// occurred in — a per-job conformance error, mirroring core.CheckJob's
// error model — rather than panicking the shared process.
type vertexProgramError struct {
	Superstep int
	Vertex    graph.VertexID
	Problem   string
}

func (e *vertexProgramError) Error() string {
	return fmt.Sprintf("pregel: vertex program error at superstep %d, vertex %d: %s",
		e.Superstep, e.Vertex, e.Problem)
}

// msgArena is one superstep's delivered messages in a flat preallocated
// layout: vertex v's inbox is vals[off[v] : off[v]+cnt[v]]. Two arenas
// double-buffer the BSP message state (current and next superstep); the
// next arena is rebuilt at each merge barrier by a count → prefix-sum →
// fill pass over the worker outboxes in worker-index order, which
// reproduces exactly the per-vertex message order of the historical
// per-vertex append slices. The backing arrays are reused across
// supersteps, so steady-state delivery allocates nothing.
type msgArena struct {
	off  []int64
	cnt  []int32
	vals []float64
}

func newMsgArena(n int64) *msgArena {
	return &msgArena{off: make([]int64, n), cnt: make([]int32, n)}
}

// msgs returns v's inbox slice (nil when empty). The slice aliases arena
// storage; a vertex program may mutate it in place during its own Compute
// call (each region is read by exactly one vertex per superstep).
func (a *msgArena) msgs(v graph.VertexID) []float64 {
	c := a.cnt[v]
	if c == 0 {
		return nil
	}
	o := a.off[v]
	return a.vals[o : o+int64(c)]
}

// deliver rebuilds the arena from the outboxes' pending messages,
// preserving worker-index order then per-worker send order.
func (a *msgArena) deliver(outboxes []*workerOutbox) {
	for v := range a.cnt {
		a.cnt[v] = 0
	}
	total := 0
	for _, out := range outboxes {
		total += len(out.dsts)
		for _, dst := range out.dsts {
			a.cnt[dst]++
		}
	}
	var off int64
	for v := range a.off {
		a.off[v] = off
		off += int64(a.cnt[v])
	}
	if cap(a.vals) < total {
		a.vals = make([]float64, total)
	} else {
		a.vals = a.vals[:total]
	}
	for v := range a.cnt {
		a.cnt[v] = 0 // reuse as fill cursor, restored by the fill itself
	}
	for _, out := range outboxes {
		for i, dst := range out.dsts {
			a.vals[a.off[dst]+int64(a.cnt[dst])] = out.vals[i]
			a.cnt[dst]++
		}
	}
}

// clone deep-copies the arena (for checkpoints).
func (a *msgArena) clone() *msgArena {
	return &msgArena{
		off:  append([]int64(nil), a.off...),
		cnt:  append([]int32(nil), a.cnt...),
		vals: append([]float64(nil), a.vals...),
	}
}

// copyFrom overwrites the arena with b's contents, reusing capacity.
func (a *msgArena) copyFrom(b *msgArena) {
	a.off = append(a.off[:0], b.off...)
	a.cnt = append(a.cnt[:0], b.cnt...)
	a.vals = append(a.vals[:0], b.vals...)
}

// clear empties the arena (cnt is authoritative; off may go stale).
func (a *msgArena) clear() {
	for v := range a.cnt {
		a.cnt[v] = 0
	}
	a.vals = a.vals[:0]
}

// jobState is the shared in-memory state of a running job. The simulation
// kernel is cooperative (one process at a time), so the superstep barrier
// structure needs no locking; within one superstep the semantic compute is
// fanned across a HostPool, with every fork writing only worker-private
// state and every merge running in fixed worker-index order so the result
// is byte-identical for any pool size (see prepareSuperstep).
type jobState struct {
	g      *graph.Graph
	owner  []int // vertex -> worker
	values []float64
	halted []bool

	// ownedLists[w] is worker w's owned vertices in ascending ID order —
	// the iteration order of the old full-scan-and-filter loop, without
	// the scan. ownedArcs[w] is the matching out-arc total.
	ownedLists [][]graph.VertexID
	ownedArcs  []int64

	// arenaCur is read during the current superstep; the merge barrier
	// rebuilds arenaNext from the worker outboxes.
	arenaCur  *msgArena
	arenaNext *msgArena

	combiner  Combiner
	superstep int

	aggCur, aggNext map[string]float64

	// Host-parallel superstep compute. outboxes[w] is worker w's private
	// buffer for one superstep, including its sender-side combining tags:
	// every row is only ever written by its own worker's fork.
	hostPool     *sim.HostPool
	outboxes     []*workerOutbox
	sendEpoch    int32 // bumped once per prepareSuperstep, never reused
	preparedStep int   // superstep the outboxes currently hold; -1 none

	// Parameters of the superstep being prepared, read by the persistent
	// fork function (shardFn) so the fan-out allocates no fresh closure.
	prog     Program
	prepStep int
	shardFn  func(int)

	// sendErr is the first vertex-program error observed, merged in
	// worker-index order at the barrier — deterministic across pool sizes.
	sendErr error

	// Per-superstep, per-worker work counters, reset each superstep.
	vertexCount  []int64   // Compute invocations
	sendCount    []int64   // messages passed to send (pre-combining)
	recvCount    []int64   // messages delivered to the worker's vertices
	wireCount    [][]int64 // [from][toWorker] combined messages
	deliveredCnt int64     // messages delivered into the next arena this superstep

	totalWireMessages int64
}

// workerOutbox buffers one worker's superstep effects until the merge
// barrier: outgoing messages in send order, aggregator contributions in
// call order, and the work counters the trace reports per worker. It also
// embeds the worker's reusable Context so Compute calls never allocate.
type workerOutbox struct {
	ctx      Context
	epoch    int32
	dsts     []graph.VertexID
	vals     []float64
	aggNames []string
	aggVals  []float64
	wire     []int64 // per destination worker, combined messages
	sent     int64   // pre-combining sends
	vertices int64   // Compute invocations
	received int64   // messages read from the current arena
	sendErr  error   // first API-contract violation this superstep

	// lastEpoch/lastIdx implement sender-side combining per destination:
	// a dst whose tag matches the current epoch already has a combined
	// entry at vals[lastIdx[dst]]. Allocated only when the job has a
	// combiner; int32 suffices because epochs count supersteps and idx
	// indexes one worker's sends within one superstep.
	lastEpoch []int32
	lastIdx   []int32
}

func (o *workerOutbox) reset(epoch int32) {
	o.epoch = epoch
	o.dsts = o.dsts[:0]
	o.vals = o.vals[:0]
	o.aggNames = o.aggNames[:0]
	o.aggVals = o.aggVals[:0]
	for d := range o.wire {
		o.wire[d] = 0
	}
	o.sent, o.vertices, o.received = 0, 0, 0
	o.sendErr = nil
}

func newJobState(g *graph.Graph, part graph.Partitioner, workers int, combiner Combiner, pool *sim.HostPool) *jobState {
	n := g.NumVertices()
	js := &jobState{
		g:            g,
		owner:        make([]int, n),
		values:       make([]float64, n),
		halted:       make([]bool, n),
		ownedLists:   make([][]graph.VertexID, workers),
		ownedArcs:    make([]int64, workers),
		arenaCur:     newMsgArena(n),
		arenaNext:    newMsgArena(n),
		combiner:     combiner,
		aggCur:       map[string]float64{},
		aggNext:      map[string]float64{},
		hostPool:     pool,
		outboxes:     make([]*workerOutbox, workers),
		preparedStep: -1,
		vertexCount:  make([]int64, workers),
		sendCount:    make([]int64, workers),
		recvCount:    make([]int64, workers),
		wireCount:    make([][]int64, workers),
	}
	for w := 0; w < workers; w++ {
		js.wireCount[w] = make([]int64, workers)
		js.outboxes[w] = &workerOutbox{wire: make([]int64, workers)}
		js.outboxes[w].ctx = Context{js: js, out: js.outboxes[w], worker: w}
		if combiner != nil {
			js.outboxes[w].lastEpoch = make([]int32, n)
			js.outboxes[w].lastIdx = make([]int32, n)
		}
	}
	for v := int64(0); v < n; v++ {
		w := part.Partition(graph.VertexID(v))
		js.owner[v] = w
		js.ownedLists[w] = append(js.ownedLists[w], graph.VertexID(v))
		js.ownedArcs[w] += g.OutDegree(graph.VertexID(v))
	}
	for v := range js.values {
		js.values[v] = math.Inf(1)
	}
	js.shardFn = js.computeShard
	return js
}

// sendShard records a message into the sending worker's private outbox,
// applying sender-side combining when a combiner is configured. Within
// one superstep all of a worker's messages to dst collapse into one
// combined wire message, exactly as in the serial engine where each
// worker's sends to a destination were contiguous. Callers must have
// validated dst (see Context.SendTo).
func (js *jobState) sendShard(out *workerOutbox, dst graph.VertexID, msg float64) {
	out.sent++
	if js.combiner != nil {
		if out.lastEpoch[dst] == out.epoch {
			i := out.lastIdx[dst]
			out.vals[i] = js.combiner.Combine(out.vals[i], msg)
			return
		}
		out.lastEpoch[dst] = out.epoch
		out.lastIdx[dst] = int32(len(out.vals))
	}
	out.dsts = append(out.dsts, dst)
	out.vals = append(out.vals, msg)
	out.wire[js.owner[dst]]++
}

// computeShard runs the vertex program over one worker's owned active
// vertices, recording every effect either in worker-owned state (values,
// halt flags) or in the worker's private outbox. It runs on a host pool
// goroutine; it must not touch any other worker's state. The program and
// superstep come from jobState fields set by prepareSuperstep before the
// fork, so this function itself is the pool's persistent work function.
func (js *jobState) computeShard(w int) {
	program, step := js.prog, js.prepStep
	out := js.outboxes[w]
	out.reset(js.sendEpoch)
	out.ctx.superstep = step
	for _, v := range js.ownedLists[w] {
		inbox := js.arenaCur.msgs(v)
		if js.halted[v] && len(inbox) == 0 {
			continue
		}
		js.halted[v] = false
		out.ctx.vertex = v
		program.Compute(&out.ctx, inbox)
		out.vertices++
		out.received += int64(len(inbox))
	}
}

// prepareSuperstep runs the semantic compute of every worker for one
// superstep, fanned across the host pool, then merges the private
// outboxes in fixed worker-index order. The first worker process to reach
// its Compute phase triggers it; the others find the step already
// prepared. Because each fork writes only private state and the merge
// order is fixed, message order, combining, aggregator floating-point
// reduction order, and every counter are identical for any pool size —
// including the serial pool, which reproduces the old engine exactly.
func (js *jobState) prepareSuperstep(program Program, step int) {
	if js.preparedStep == step {
		return
	}
	js.preparedStep = step
	js.sendEpoch++
	js.prog, js.prepStep = program, step
	js.hostPool.ForkJoin(len(js.outboxes), js.shardFn)
	js.prog = nil
	for from, out := range js.outboxes {
		if out.sendErr != nil && js.sendErr == nil {
			js.sendErr = out.sendErr
		}
		for i, name := range out.aggNames {
			js.aggNext[name] += out.aggVals[i]
		}
		js.vertexCount[from] = out.vertices
		js.sendCount[from] = out.sent
		js.recvCount[from] = out.received
		copy(js.wireCount[from], out.wire)
		wire := int64(len(out.dsts))
		js.deliveredCnt += wire
		js.totalWireMessages += wire
	}
	js.arenaNext.deliver(js.outboxes)
}

// stateSnapshot is a checkpoint of the BSP state taken before a superstep
// executes, sufficient to replay the computation from that superstep.
type stateSnapshot struct {
	values    []float64
	halted    []bool
	inbox     *msgArena
	aggCur    map[string]float64
	superstep int
}

// snapshot deep-copies the restartable state.
func (js *jobState) snapshot() *stateSnapshot {
	s := &stateSnapshot{
		values:    append([]float64(nil), js.values...),
		halted:    append([]bool(nil), js.halted...),
		inbox:     js.arenaCur.clone(),
		aggCur:    map[string]float64{},
		superstep: js.superstep,
	}
	for k, v := range js.aggCur {
		s.aggCur[k] = v
	}
	return s
}

// restore rolls the BSP state back to a snapshot, discarding everything
// computed since: values, halt flags, pending messages, aggregators, and
// in-flight next-superstep buffers.
func (js *jobState) restore(s *stateSnapshot) {
	copy(js.values, s.values)
	copy(js.halted, s.halted)
	js.arenaCur.copyFrom(s.inbox)
	js.arenaNext.clear()
	js.aggCur = map[string]float64{}
	for k, v := range s.aggCur {
		js.aggCur[k] = v
	}
	for k := range js.aggNext {
		delete(js.aggNext, k)
	}
	for w := range js.vertexCount {
		js.vertexCount[w] = 0
		js.sendCount[w] = 0
		js.recvCount[w] = 0
		for d := range js.wireCount[w] {
			js.wireCount[w][d] = 0
		}
	}
	js.deliveredCnt = 0
	js.superstep = s.superstep
	// The restored superstep must be recomputed even though a prepare ran
	// for it before the crash; sendEpoch is monotonic, so stale combining
	// tags from that earlier run can never match a future epoch.
	js.preparedStep = -1
}

// swapBuffers advances BSP state at the superstep barrier: the next arena
// becomes current, aggregators rotate, per-superstep counters reset. It
// returns the number of messages that will be delivered and the number of
// vertices that remain active.
func (js *jobState) swapBuffers() (delivered int64, active int64) {
	delivered = js.deliveredCnt
	js.arenaCur, js.arenaNext = js.arenaNext, js.arenaCur
	js.aggCur, js.aggNext = js.aggNext, js.aggCur
	for k := range js.aggNext {
		delete(js.aggNext, k)
	}
	for v := range js.halted {
		if !js.halted[v] {
			active++
		}
	}
	for w := range js.vertexCount {
		js.vertexCount[w] = 0
		js.sendCount[w] = 0
		js.recvCount[w] = 0
		for d := range js.wireCount[w] {
			js.wireCount[w][d] = 0
		}
	}
	js.deliveredCnt = 0
	js.superstep++
	return delivered, active
}
