// Package gas implements a PowerGraph-like Gather-Apply-Scatter
// graph-processing platform on the simulated cluster: MPI deployment,
// vertex-cut edge placement with master/mirror replicas, a synchronous GAS
// engine, and — crucially for the paper's findings — sequential data
// loading: one rank reads and parses the entire edge list from the shared
// filesystem and distributes edges to their machines, with the other ranks
// idle until the parallel finalization phase. Algorithms execute for real;
// durations are charged through a calibrated cost model.
//
// Jobs emit Granula platform-log records following the PowerGraph
// performance model:
//
//	PowergraphJob
//	├── Startup:      MpiStartup
//	├── LoadGraph:    SequentialLoad (rank 0: ReadEdgeFile, ParseEdges,
//	│                 DistributeEdges) then per-rank FinalizeGraph
//	├── ProcessGraph: Iteration-k → per-rank LocalIteration →
//	│                 Gather, Apply, Scatter
//	├── OffloadGraph: CollectResults, WriteResults
//	└── Cleanup:      MpiFinalize
package gas

import (
	"repro/internal/graph"
)

// Direction selects which edges a gather or scatter phase visits, from the
// perspective of the vertex running the program.
type Direction int

// Edge-set choices for GatherDir and ScatterDir.
const (
	none Direction = iota
	In
	Out
	both
)

func (d Direction) String() string {
	switch d {
	case none:
		return "none"
	case In:
		return "in"
	case Out:
		return "out"
	case both:
		return "both"
	}
	return "invalid"
}

// Program is a vertex program in the GAS model with float64 vertex values
// and accumulators (PowerGraph's commutative-monoid gather, specialized to
// floats).
type Program interface {
	// Init returns a vertex's initial value and whether it starts active.
	Init(v graph.VertexID, g *graph.Graph) (value float64, active bool)
	// GatherDir selects the edges Gather visits.
	GatherDir() Direction
	// Gather returns the accumulator contribution of one edge between v
	// and neighbor other, whose current value is otherValue.
	Gather(iter int, v, other graph.VertexID, otherValue float64) float64
	// Sum combines two accumulator values; it must be commutative and
	// associative.
	Sum(a, b float64) float64
	// Apply computes v's new value from its old value and the gathered
	// accumulator; hasAcc is false when no edges were gathered.
	Apply(iter int, v graph.VertexID, old, acc float64, hasAcc bool) float64
	// ScatterDir selects the edges Scatter visits.
	ScatterDir() Direction
	// Scatter reports whether to activate neighbor other for the next
	// iteration; value and otherValue are post-apply values.
	Scatter(iter int, v, other graph.VertexID, value, otherValue float64) bool
}

// CostModel maps counted work to simulated seconds and bytes; counts are
// multiplied by Config.WorkScale first.
type CostModel struct {
	// ParseCPUPerByte is loading-rank CPU per input byte (the sequential
	// parse that pins one node in Figure 7).
	ParseCPUPerByte float64
	// DistributeBytesPerEdge is the wire size of one placed edge during
	// loading.
	DistributeBytesPerEdge float64
	// FinalizeCPUPerEdge is per-rank CPU per local edge during graph
	// finalization (building local CSR, mirror tables).
	FinalizeCPUPerEdge float64
	// FinalizeCPUPerReplica is per-rank CPU per vertex replica.
	FinalizeCPUPerReplica float64
	// GatherCPUPerEdge, ApplyCPUPerVertex, ScatterCPUPerEdge charge the
	// three GAS phases.
	GatherCPUPerEdge  float64
	ApplyCPUPerVertex float64
	ScatterCPUPerEdge float64
	// PartialBytes is the wire size of one mirror→master gather partial.
	PartialBytes float64
	// SyncBytes is the wire size of one master→mirror value update.
	SyncBytes float64
	// ResultBytesPerVertex is the offload encoding size.
	ResultBytesPerVertex float64
}

// Config parameterizes a job.
type Config struct {
	// Machines is the number of MPI ranks (one per node in the paper's
	// deployment).
	Machines int
	// LoadThreads is the loading rank's parse parallelism.
	LoadThreads int
	// ComputeThreads is each rank's GAS-phase parallelism.
	ComputeThreads int
	// CutStrategy selects the vertex-cut edge placement.
	CutStrategy graph.VertexCutStrategy
	// MaxIterations caps the iteration loop.
	MaxIterations int
	// ChunkBytes is the sequential loader's read granularity (scaled
	// bytes per read call).
	ChunkBytes int64
	// ParallelLoad switches loading from PowerGraph's sequential
	// single-rank loader to a what-if variant where every rank reads and
	// parses its own 1/k slice of the edge list concurrently — the fix
	// the paper's diagnosis points at. Off by default (the paper's
	// observed behaviour).
	ParallelLoad bool
	// WorkScale multiplies work-derived costs (see pregel.Config).
	WorkScale float64
	// HostParallelism bounds how many host (OS-level) goroutines execute
	// the semantic gather/apply/scatter phases of one iteration
	// concurrently. It changes only wall-clock speed, never results:
	// archives are byte-identical for every value. 0 selects
	// runtime.NumCPU(); 1 is the serial engine.
	HostParallelism int
	// Costs is the platform cost model.
	Costs CostModel
}

// Result carries a completed job's output and summary counters.
type Result struct {
	// Values is the final vertex value array.
	Values []float64
	// Iterations is the number of GAS iterations executed.
	Iterations int
	// ReplicationFactor is the vertex-cut's average replicas per vertex.
	ReplicationFactor float64
	// EdgesPlaced is the number of arcs placed across machines.
	EdgesPlaced int64
	// Runtime is the job's makespan in simulated seconds.
	Runtime float64
}
