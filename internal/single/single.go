// Package single implements an OpenG/GraphBIG-like single-machine
// graph-processing platform on the simulated cluster: no resource
// manager, no distributed filesystem, no coordination service — one
// process reads an edge list from local disk, builds an in-memory CSR,
// runs an iterative algorithm kernel with a thread pool, and writes
// results back to local disk.
//
// Its role in this repository mirrors the single-node platforms of the
// paper's Table 1 (OpenG, TOTEM): a third platform class for Granula to
// model and compare, and the baseline for the classic distributed-versus-
// single-machine crossover analysis (examples/crossover). Jobs emit the
// usual domain-level operations, so every Granula metric and visual works
// unchanged:
//
//	OpenGJob
//	├── Startup:      ProcessStart
//	├── LoadGraph:    ReadEdgeList, ParseEdges, BuildCSR
//	├── ProcessGraph: Iteration (repeated)
//	├── OffloadGraph: WriteResults
//	└── Cleanup:      ProcessExit
package single

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

// CostModel maps counted work to simulated seconds; counts are multiplied
// by Config.WorkScale first. Constants reflect an optimized C++ kernel.
type CostModel struct {
	ParseCPUPerByte      float64
	BuildCPUPerEdge      float64
	ComputeCPUPerVertex  float64
	ComputeCPUPerEdge    float64
	OutputBytesPerVertex float64
	// ProcessStartSeconds and ProcessExitSeconds are the fixed process
	// lifecycle costs — all the "provisioning" a single-node platform
	// needs.
	ProcessStartSeconds float64
	ProcessExitSeconds  float64
}

// defaultCostModel returns C++-kernel constants.
func defaultCostModel() CostModel {
	return CostModel{
		ParseCPUPerByte:      80e-9,
		BuildCPUPerEdge:      60e-9,
		ComputeCPUPerVertex:  40e-9,
		ComputeCPUPerEdge:    15e-9,
		OutputBytesPerVertex: 16,
		ProcessStartSeconds:  0.3,
		ProcessExitSeconds:   0.1,
	}
}

// Config parameterizes a job.
type Config struct {
	// NodeID selects the cluster node the process runs on.
	NodeID int
	// Threads is the kernel's parallelism.
	Threads int
	// WorkScale multiplies work-derived costs (see pregel.Config).
	WorkScale float64
	// Costs is the platform cost model.
	Costs CostModel
}

// DefaultConfig returns a 24-thread single-node configuration.
func DefaultConfig() Config {
	return Config{
		Threads:   24,
		WorkScale: 1,
		Costs:     defaultCostModel(),
	}
}

// IterWork is the measured work of one algorithm iteration.
type IterWork struct {
	Vertices int64
	Edges    int64
}

// Kernel is a single-machine algorithm: it runs for real over the graph
// and reports per-iteration work counts for cost accounting.
type Kernel interface {
	// Name identifies the kernel for logs.
	Name() string
	// Run executes the algorithm and returns the vertex values plus the
	// work of each iteration.
	Run(g *graph.Graph) (values []float64, iterations []IterWork)
}

// Deps are the platform's (minimal) substrate dependencies.
type Deps struct {
	Cluster *cluster.Cluster
	// InputBytes is the scaled on-disk size of the edge list on the
	// node's local disk (use StageInput).
	InputBytes int64
	// OutputPath labels the result file in the trace.
	OutputPath string
}

// StageInput computes the scaled local-file size for the dataset.
func StageInput(ds *datagen.Dataset, workScale float64) int64 {
	return int64(float64(ds.SizeBytes()) * workScale)
}

// Result carries a completed job's output and counters.
type Result struct {
	Values     []float64
	Iterations int
	Runtime    float64
}

// RunJob executes the kernel over the dataset on the simulated
// single-node platform, blocking the calling process until done.
func RunJob(p *sim.Proc, deps Deps, cfg Config, kernel Kernel, ds *datagen.Dataset, em *trace.Emitter) (*Result, error) {
	if deps.Cluster == nil {
		return nil, fmt.Errorf("single: missing cluster")
	}
	if cfg.NodeID < 0 || cfg.NodeID >= deps.Cluster.Size() {
		return nil, fmt.Errorf("single: node %d out of range", cfg.NodeID)
	}
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("single: threads must be positive")
	}
	if cfg.WorkScale <= 0 {
		return nil, fmt.Errorf("single: work scale must be positive")
	}
	if deps.InputBytes <= 0 {
		return nil, fmt.Errorf("single: input not staged")
	}
	node := deps.Cluster.Node(cfg.NodeID)
	c := cfg.Costs
	scale := cfg.WorkScale
	start := p.Now()

	root := em.Start(trace.Root, "OpenGClient", "OpenGJob")
	em.Info(root, "Dataset", ds.Name)
	em.Info(root, "Kernel", kernel.Name())

	startup := em.Start(root, "OpenGClient", "Startup")
	ps := em.Start(startup, "OpenGClient", "ProcessStart")
	p.Sleep(c.ProcessStartSeconds)
	em.End(ps)
	em.End(startup)

	load := em.Start(root, "OpenGEngine", "LoadGraph")
	read := em.Start(load, "OpenGEngine", "ReadEdgeList")
	node.ReadLocal(p, float64(deps.InputBytes))
	em.Infof(read, "BytesRead", "%d", deps.InputBytes)
	em.End(read)
	parse := em.Start(load, "OpenGEngine", "ParseEdges")
	node.ExecParallel(p, float64(deps.InputBytes)*c.ParseCPUPerByte, cfg.Threads)
	em.End(parse)
	build := em.Start(load, "OpenGEngine", "BuildCSR")
	node.ExecParallel(p, float64(ds.Graph.NumArcs())*scale*c.BuildCPUPerEdge, cfg.Threads)
	em.End(build)
	em.End(load)

	// Semantic execution is instantaneous in simulated time; the counted
	// work is charged per iteration.
	values, iters := kernel.Run(ds.Graph)

	process := em.Start(root, "OpenGEngine", "ProcessGraph")
	for i, w := range iters {
		it := em.Start(process, "OpenGEngine", "Iteration")
		em.Infof(it, "Iteration", "%d", i)
		em.Infof(it, "Vertices", "%d", w.Vertices)
		em.Infof(it, "Edges", "%d", w.Edges)
		cpu := (float64(w.Vertices)*c.ComputeCPUPerVertex + float64(w.Edges)*c.ComputeCPUPerEdge) * scale
		node.ExecParallel(p, cpu, cfg.Threads)
		em.End(it)
	}
	em.End(process)

	offload := em.Start(root, "OpenGEngine", "OffloadGraph")
	write := em.Start(offload, "OpenGEngine", "WriteResults")
	outBytes := float64(ds.Graph.NumVertices()) * scale * c.OutputBytesPerVertex
	node.WriteLocal(p, outBytes)
	em.Infof(write, "BytesWritten", "%d", int64(outBytes))
	em.End(write)
	em.End(offload)

	cleanup := em.Start(root, "OpenGClient", "Cleanup")
	pe := em.Start(cleanup, "OpenGClient", "ProcessExit")
	p.Sleep(c.ProcessExitSeconds)
	em.End(pe)
	em.End(cleanup)
	em.End(root)

	return &Result{
		Values:     values,
		Iterations: len(iters),
		Runtime:    p.Now() - start,
	}, nil
}
