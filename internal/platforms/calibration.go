package platforms

import (
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/gas"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/pregel"
	"repro/internal/single"
	"repro/internal/zookeeper"
)

// This file holds the paper-scale calibration: the constants below were
// fixed once against the shapes of the paper's Figures 5-7 (BFS on dg1000
// on 8 DAS5 nodes) and are not fitted per run. The paper's numbers live in
// one table, cmd/experiments/paper.go, which TestPaperFidelity holds the
// reproduction to; TestCalibrationElasticity records which of those
// numbers each constant moves.

// paperEdges is the dg1000 edge count the cost models scale to.
const paperEdges = 1.03e9

// dg1000WorkScale returns the factor that maps a laptop-sized stand-in
// dataset to dg1000-scale work.
func dg1000WorkScale(ds *datagen.Dataset) float64 {
	if len(ds.Edges) == 0 {
		return 1
	}
	return paperEdges / float64(len(ds.Edges))
}

// DAS5Config returns the simulated 8-node DAS5 cluster used by the
// paper's experiments: 24 effective cores per node, local SSDs, 10 Gbit/s
// interconnect, and a shared filesystem server.
func DAS5Config() cluster.Config {
	return cluster.Config{
		Nodes:             8,
		CoresPerNode:      24,
		DiskBandwidth:     500e6,
		NICBandwidth:      1.25e9,
		SharedFSBandwidth: 1.0e9,
		NodeNamePrefix:    "node",
		NodeNameStart:     339,
	}
}

// calibration is the whole simulated deployment of one run: the
// cluster, Giraph's stack (HDFS, ZooKeeper, and the Pregel platform,
// whose cost model also prices YARN), PowerGraph's (MPI and the GAS
// platform), and the single-node OpenG platform. WorkScale and
// HostParallelism are not calibration: they come from the Spec.
type calibration struct {
	Cluster   cluster.Config
	HDFS      dfs.HDFSConfig
	ZooKeeper zookeeper.Config
	Pregel    pregel.Config
	MPI       mpi.Config
	GAS       gas.Config
	Single    single.Config
}

// paperCalibration returns the calibration RunContext runs spec with,
// fitted to spec's cluster (DAS5Config when it is zero): one Giraph
// worker and one PowerGraph rank per node, thread counts bounded by the
// node's cores, and the combiner of spec's Pregel program.
func paperCalibration(spec Spec) calibration {
	hw := spec.Cluster
	if hw.Nodes == 0 {
		hw = DAS5Config()
	}
	_, combiner, _ := pregelProgram(spec)
	openG := single.DefaultConfig()
	openG.Threads = min(openG.Threads, hw.CoresPerNode)
	return calibration{
		Cluster: hw,
		HDFS:    dfs.DefaultHDFSConfig(),
		ZooKeeper: zookeeper.Config{
			OpLatency:      0.004,
			OpCPUSeconds:   0.0005,
			ConnectLatency: 0.08,
		},
		// Giraph: parse threads that saturate the node during loading,
		// and JVM-grade per-unit compute costs.
		Pregel: pregel.Config{
			Workers:        hw.Nodes,
			ComputeThreads: min(8, hw.CoresPerNode),
			ParseThreads:   min(24, hw.CoresPerNode),
			Combiner:       combiner,
			MaxSupersteps:  200,
			Costs: pregel.CostModel{
				ParseCPUPerByte:          160e-9,
				BuildCPUPerEdge:          180e-9,
				ShuffleBytesPerEdge:      16,
				ComputeCPUPerVertex:      700e-9,
				ComputeCPUPerMessage:     380e-9,
				MessageBytes:             16,
				OutputBytesPerVertex:     16,
				CheckpointBytesPerVertex: 24,
				RecoveryDetectSeconds:    5.0,
				// YARN: Giraph's slow, CPU-light startup (Figures 5-6).
				AppSubmitSeconds:          4.0,
				ContainerAllocSeconds:     0.4,
				ContainerLaunchSeconds:    6.0,
				ContainerLaunchCPUSeconds: 1.5,
				AppReleaseSeconds:         2.0,
				WorkerShutdownSeconds:     2.5,
				ClientCleanupSeconds:      2.5,
				ServerCleanupSeconds:      2.0,
				ZkCleanupSeconds:          1.0,
			},
		},
		// PowerGraph: fast MPI startup, a sequential loader whose parse
		// cost pins one node for minutes at dg1000 scale, and cheap C++
		// per-unit compute costs.
		MPI: mpi.Config{
			SpawnLatency:    0.15,
			FinalizeLatency: 0.3,
		},
		GAS: gas.Config{
			Machines:       hw.Nodes,
			LoadThreads:    min(16, hw.CoresPerNode),
			ComputeThreads: min(6, hw.CoresPerNode),
			CutStrategy:    graph.VertexCutHash,
			MaxIterations:  500,
			ChunkBytes:     256 << 20,
			Costs: gas.CostModel{
				ParseCPUPerByte:        270e-9,
				DistributeBytesPerEdge: 16,
				FinalizeCPUPerEdge:     150e-9,
				FinalizeCPUPerReplica:  250e-9,
				GatherCPUPerEdge:       70e-9,
				ApplyCPUPerVertex:      200e-9,
				ScatterCPUPerEdge:      70e-9,
				PartialBytes:           8,
				SyncBytes:              8,
				ResultBytesPerVertex:   16,
			},
		},
		Single: openG,
	}
}
