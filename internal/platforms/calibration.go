package platforms

import (
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/gas"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/pregel"
	"repro/internal/yarn"
	"repro/internal/zookeeper"
)

// This file holds the paper-scale calibration. The paper's experiment is
// BFS on dg1000 — an LDBC Datagen social network with 1.03 billion
// vertices and edges — on 8 DAS5 nodes, with these measured outcomes:
//
//	Giraph:     total 81.59 s — setup 30.9%, input/output 43.3%,
//	            processing 25.8% (Figure 5); LoadGraph saturates the CPU,
//	            cumulative peak ≈190.30 cpu-s/s (Figure 6).
//	PowerGraph: total 400.38 s — input/output 94.8%, processing <3.1%
//	            (Figure 5); only one node busy while loading, cumulative
//	            peak ≈46.93 cpu-s/s (Figure 7).
//
// The constants below were fixed once against those shapes (see
// EXPERIMENTS.md for the resulting numbers) and are not fitted per run.

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
		NetLatency:        50e-6,
		SharedFSBandwidth: 1.0e9,
		NodeNamePrefix:    "node",
		NodeNameStart:     339,
	}
}

// giraphYarnConfig is the Yarn latency profile calibrated to Giraph's
// slow, CPU-light startup (Figures 5-6).
func giraphYarnConfig() yarn.Config {
	return yarn.Config{
		SubmitLatency:    4.0,
		AllocLatency:     0.4,
		LaunchLatency:    6.0,
		LaunchCPUSeconds: 1.5,
		ReleaseLatency:   2.0,
	}
}

// giraphZKConfig is the coordination-cost profile.
func giraphZKConfig() zookeeper.Config {
	return zookeeper.Config{
		OpLatency:      0.004,
		OpCPUSeconds:   0.0005,
		ConnectLatency: 0.08,
	}
}

// giraphPaperConfig returns the Pregel-platform configuration calibrated
// to the paper's Giraph deployment: 8 workers (one per node), parallel
// parse threads that saturate the node during loading, and JVM-grade
// per-unit compute costs.
func giraphPaperConfig(ds *datagen.Dataset) pregel.Config {
	return pregel.Config{
		Workers:        8,
		ComputeThreads: 8,
		ParseThreads:   24,
		Combiner:       pregel.MinCombiner{},
		MaxSupersteps:  200,
		WorkScale:      dg1000WorkScale(ds),
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
			WorkerShutdownSeconds:    2.5,
			ClientCleanupSeconds:     2.5,
			ServerCleanupSeconds:     2.0,
			ZkCleanupSeconds:         1.0,
		},
	}
}

// powerGraphMPIConfig is the MPI cost profile (fast startup).
func powerGraphMPIConfig() mpi.Config {
	return mpi.Config{
		SpawnLatency:     0.15,
		MsgOverheadBytes: 64,
		FinalizeLatency:  0.3,
	}
}

// powerGraphPaperConfig returns the GAS-platform configuration calibrated
// to the paper's PowerGraph deployment: 8 ranks, a sequential loader
// whose parse cost pins one node for minutes at dg1000 scale, and cheap
// C++ per-unit compute costs.
func powerGraphPaperConfig(ds *datagen.Dataset) gas.Config {
	return gas.Config{
		Machines:       8,
		LoadThreads:    16,
		ComputeThreads: 6,
		CutStrategy:    graph.VertexCutHash,
		MaxIterations:  500,
		ChunkBytes:     256 << 20,
		WorkScale:      dg1000WorkScale(ds),
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
	}
}
