// Package pregel implements a Giraph-like vertex-centric BSP
// graph-processing platform on the simulated cluster: YARN-deployed
// master and workers, HDFS input with locality-aware splits, ZooKeeper
// barrier synchronization, and iterative supersteps with sender-side
// message combining. Algorithms execute for real — vertex values, message
// traffic, and the active-vertex frontier all come from running the actual
// program on the actual graph — while durations are charged to the
// simulated clock through a calibrated cost model.
//
// Every job emits Granula platform-log records (package trace) following
// the 4-level Giraph performance model of the paper's Figure 4:
//
//	GiraphJob
//	├── Startup:      JobStartup, LaunchWorkers (per-worker LocalStartup)
//	├── LoadGraph:    per-worker LocalLoad → LoadHdfsData
//	├── ProcessGraph: Superstep-k → per-worker LocalSuperstep →
//	│                 PreStep, Compute, Message, PostStep (+ SyncZookeeper)
//	├── OffloadGraph: per-worker LocalOffload → OffloadHdfsData
//	└── Cleanup:      JobCleanup → AbortWorkers, ClientCleanup,
//	                  ServerCleanup, ZkCleanup
package pregel

import (
	"repro/internal/graph"
)

// Program is a vertex program in the Pregel model. Compute is called in
// every superstep for every vertex that is active or has incoming
// messages.
type Program interface {
	Compute(ctx *Context, msgs []float64)
}

// Combiner merges two messages destined for the same vertex. Giraph
// applies combiners on the sending worker, reducing network traffic.
type Combiner interface {
	Combine(a, b float64) float64
}

// MinCombiner keeps the minimum message — the natural combiner for BFS,
// SSSP, and WCC.
type MinCombiner struct{}

// Combine implements Combiner.
func (MinCombiner) Combine(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// SumCombiner adds messages — the natural combiner for PageRank.
type SumCombiner struct{}

// Combine implements Combiner.
func (SumCombiner) Combine(a, b float64) float64 { return a + b }

// CostModel maps counted work to simulated seconds and bytes. The values
// are per unit of *scaled* work: measured counts are multiplied by
// Config.WorkScale first, so one set of constants serves graphs of any
// size.
type CostModel struct {
	// ParseCPUPerByte is worker CPU per input byte during LoadGraph
	// (line splitting, integer parsing, object creation — the
	// CPU-intensive loading the paper observes in Figure 6).
	ParseCPUPerByte float64
	// BuildCPUPerEdge is worker CPU per local edge to build in-memory
	// vertex/edge stores.
	BuildCPUPerEdge float64
	// ShuffleBytesPerEdge is the wire size of one edge during load-time
	// vertex distribution.
	ShuffleBytesPerEdge float64
	// ComputeCPUPerVertex is CPU per vertex Compute invocation.
	ComputeCPUPerVertex float64
	// ComputeCPUPerMessage is CPU per message sent or received.
	ComputeCPUPerMessage float64
	// MessageBytes is the wire size of one (combined) message.
	MessageBytes float64
	// OutputBytesPerVertex is the HDFS output size per vertex at offload.
	OutputBytesPerVertex float64
	// CheckpointBytesPerVertex is the HDFS checkpoint size per owned
	// vertex (value + halted flag + pending messages).
	CheckpointBytesPerVertex float64
	// RecoveryDetectSeconds is the master's failure-detection latency
	// (missed heartbeats before declaring a worker dead).
	RecoveryDetectSeconds float64
	// WorkerShutdownSeconds is the per-worker teardown latency.
	WorkerShutdownSeconds float64
	// ClientCleanupSeconds and ServerCleanupSeconds are fixed cleanup
	// latencies (client-side temp/state removal, Yarn application-master
	// teardown).
	ClientCleanupSeconds float64
	ServerCleanupSeconds float64
	// ZkCleanupSeconds is the coordination-state removal latency.
	ZkCleanupSeconds float64
}

// Config parameterizes a job.
type Config struct {
	// Workers is the number of worker containers (one per node works
	// best, as in the paper's deployment).
	Workers int
	// ComputeThreads is each worker's compute parallelism.
	ComputeThreads int
	// ParseThreads is each worker's input-parsing parallelism. Giraph
	// parses splits with many threads, which is why LoadGraph saturates
	// the CPU in Figure 6.
	ParseThreads int
	// Partitioner assigns vertices to workers; nil selects hash
	// partitioning over Workers partitions.
	Partitioner graph.Partitioner
	// Combiner optionally combines messages at the sender.
	Combiner Combiner
	// MaxSupersteps caps the superstep loop as a safety net.
	MaxSupersteps int
	// WorkScale multiplies all work-derived costs, mapping the
	// laptop-sized input graph to the paper-scale dataset (dg1000). 1
	// simulates the input graph at face value.
	WorkScale float64
	// HostParallelism bounds how many host (OS-level) goroutines execute
	// the semantic per-worker compute of one superstep concurrently. It
	// changes only wall-clock speed, never results: archives are
	// byte-identical for every value. 0 selects runtime.NumCPU(); 1 is
	// the serial engine.
	HostParallelism int
	// Costs is the platform cost model.
	Costs CostModel

	// CheckpointInterval makes workers write a recovery checkpoint to
	// HDFS before every k-th superstep (Giraph's fault-tolerance
	// mechanism); 0 disables checkpointing.
	CheckpointInterval int
	// FailWorker and FailAtSuperstep inject a worker crash at the start
	// of the given superstep, for failure-diagnosis studies: the master
	// detects the failure, restarts the worker's container, restores the
	// last checkpoint, and replays the lost supersteps. Requires
	// CheckpointInterval > 0. FailAtSuperstep 0 (the default) disables
	// injection.
	FailWorker      int
	FailAtSuperstep int
}

// Result carries a completed job's algorithm output and summary counters.
type Result struct {
	// Values is the final vertex value array.
	Values []float64
	// Supersteps is the number of supersteps executed.
	Supersteps int
	// MessagesSent counts combined messages put on the wire.
	MessagesSent int64
	// EdgesLoaded counts arcs loaded across workers.
	EdgesLoaded int64
	// ReplayedSupersteps counts supersteps re-executed after failure
	// recovery (0 on a clean run).
	ReplayedSupersteps int
	// Runtime is the job's makespan in simulated seconds.
	Runtime float64
}
