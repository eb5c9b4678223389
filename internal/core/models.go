package core

// This file holds the built-in performance models: the generic
// graph-processing domain model (paper Figure 3), the 4-level Giraph model
// (paper Figure 4), and the PowerGraph model. They are the "library of
// comprehensive performance models" the paper's future work calls for,
// seeded with the two platforms its evaluation studies.

// DomainModel returns the platform-independent domain-level model of a
// graph-processing job (Figure 3): setup, input/output, and processing
// operations under a generic job root.
func DomainModel(rootMission string) *Model {
	return &Model{
		Platform:    "generic",
		Description: "Domain-level breakdown of a graph processing job (setup, input/output, processing).",
		Root: &OperationSpec{
			Mission: rootMission, ActorType: "", Level: levelDomain,
			Description: "A graph-processing job.",
			Children: []*OperationSpec{
				{Mission: "Startup", Level: levelDomain, Description: "Reserve resources and prepare the system."},
				{Mission: "LoadGraph", Level: levelDomain, Description: "Transfer graph data into memory."},
				{Mission: "ProcessGraph", Level: levelDomain, Description: "Execute the user-defined algorithm."},
				{Mission: "OffloadGraph", Level: levelDomain, Description: "Write results back to storage."},
				{Mission: "Cleanup", Level: levelDomain, Description: "Release resources."},
			},
		},
	}
}

// GiraphModel returns the 4-level Giraph performance model of the paper's
// Figure 4: domain (level 1), system (level 2), and implementation
// (levels 3 and 4).
func GiraphModel() *Model {
	return &Model{
		Platform: "Giraph",
		Description: "4-level model of an Apache Giraph job: Yarn-based startup, " +
			"HDFS loading, Pregel supersteps with ZooKeeper synchronization, " +
			"HDFS offloading, and multi-stage cleanup.",
		Root: &OperationSpec{
			Mission: "GiraphJob", ActorType: "GiraphClient", Level: levelDomain,
			Description: "One Giraph job, end to end.",
			Infos: []InfoSpec{
				{Name: "Dataset", Description: "Input dataset name."},
				{Name: "Workers", Description: "Number of workers."},
			},
			Children: []*OperationSpec{
				{
					Mission: "Startup", ActorType: "GiraphClient", Level: levelDomain,
					Description: "Reserve Yarn resources and deploy master and workers.",
					Children: []*OperationSpec{
						{
							Mission: "JobStartup", ActorType: "GiraphClient", Level: levelSystem,
							Description: "Submit the application and negotiate containers with Yarn.",
						},
						{
							Mission: "LaunchWorkers", ActorType: "GiraphMaster", Level: levelSystem,
							Description: "Launch worker containers and wait for registration.",
							Children: []*OperationSpec{
								{
									Mission: "LocalStartup", ActorType: "GiraphWorker", Level: levelImplementation,
									PerActor:    true,
									Description: "Per-worker JVM startup and ZooKeeper registration.",
								},
							},
						},
					},
				},
				{
					Mission: "LoadGraph", ActorType: "GiraphMaster", Level: levelDomain,
					Description: "Load input splits from HDFS and build vertex stores.",
					Children: []*OperationSpec{
						{
							Mission: "LocalLoad", ActorType: "GiraphWorker", Level: levelSystem,
							PerActor:    true,
							Description: "Per-worker split loading, parsing, shuffling, and store building.",
							Infos:       []InfoSpec{{Name: "EdgesOwned", Description: "Arcs owned after distribution."}},
							Children: []*OperationSpec{
								{
									Mission: "LoadHdfsData", ActorType: "GiraphWorker", Level: levelImplementation,
									Description: "Read the input split from HDFS.",
									Infos: []InfoSpec{
										{Name: "BytesRead", Description: "Split size in bytes."},
										{Name: "BytesLocal", Description: "Bytes served by local replicas."},
									},
								},
							},
						},
					},
				},
				{
					Mission: "ProcessGraph", ActorType: "GiraphMaster", Level: levelDomain,
					Description: "Iterative vertex-centric processing (Pregel supersteps).",
					Children: []*OperationSpec{
						{
							Mission: "Checkpoint", ActorType: "GiraphMaster", Level: levelSystem,
							Repeatable: true, Optional: true,
							Description: "Periodic fault-tolerance checkpoint to HDFS.",
							Infos:       []InfoSpec{{Name: "Superstep", Description: "Checkpointed superstep."}},
							Children: []*OperationSpec{
								{Mission: "LocalCheckpoint", ActorType: "GiraphWorker", Level: levelImplementation,
									PerActor: true, Optional: true,
									Description: "Per-worker state write.",
									Infos:       []InfoSpec{{Name: "BytesWritten", Description: "Checkpoint size."}}},
							},
						},
						{
							Mission: "RecoverWorker", ActorType: "GiraphMaster", Level: levelSystem,
							Repeatable: true, Optional: true,
							Description: "Failure recovery: detect, restart, restore, replay.",
							Infos: []InfoSpec{
								{Name: "Worker", Description: "Failed worker index."},
								{Name: "ResumeSuperstep", Description: "Superstep replay resumes at."},
							},
							Children: []*OperationSpec{
								{Mission: "DetectFailure", ActorType: "GiraphMaster", Level: levelImplementation,
									Optional: true, Description: "Heartbeat-timeout failure detection."},
								{Mission: "RestartWorker", ActorType: "GiraphMaster", Level: levelImplementation,
									Optional: true, Description: "Allocate and launch a replacement container.",
									Children: []*OperationSpec{
										{Mission: "LocalStartup", ActorType: "GiraphWorker", Level: levelImplementation,
											Optional: true, Description: "Replacement worker startup."},
									}},
								{Mission: "RestoreCheckpoint", ActorType: "GiraphMaster", Level: levelImplementation,
									Optional: true, Description: "Read the last checkpoint back on every worker.",
									Children: []*OperationSpec{
										{Mission: "LocalRestore", ActorType: "GiraphWorker", Level: levelImplementation,
											PerActor: true, Optional: true,
											Description: "Per-worker checkpoint read."},
									}},
							},
						},
						{
							Mission: "Superstep", ActorType: "GiraphMaster", Level: levelSystem,
							Repeatable:  true,
							Description: "One global superstep.",
							Infos:       []InfoSpec{{Name: "Superstep", Description: "Superstep index."}},
							Children: []*OperationSpec{
								{
									Mission: "LocalSuperstep", ActorType: "GiraphWorker", Level: levelImplementation,
									PerActor:    true,
									Description: "One worker's share of the superstep.",
									Children: []*OperationSpec{
										{Mission: "PreStep", ActorType: "GiraphWorker", Level: levelImplementation,
											Description: "Superstep-start synchronization (barrier entry)."},
										{Mission: "Compute", ActorType: "GiraphWorker", Level: levelImplementation,
											Description: "Vertex program execution over owned partitions.",
											Infos: []InfoSpec{
												{Name: "Vertices", Description: "Vertices computed."},
												{Name: "MessagesSent", Description: "Messages sent (pre-combining)."},
												{Name: "MessagesReceived", Description: "Messages received."},
											}},
										{Mission: "Message", ActorType: "GiraphWorker", Level: levelImplementation,
											Description: "Flush combined messages to peer workers."},
										{Mission: "PostStep", ActorType: "GiraphWorker", Level: levelImplementation,
											Description: "Superstep-end synchronization (barrier exit)."},
									},
								},
								{
									Mission: "SyncZookeeper", ActorType: "GiraphMaster", Level: levelImplementation,
									Description: "Master-side aggregator and superstep-state synchronization.",
								},
							},
						},
					},
				},
				{
					Mission: "OffloadGraph", ActorType: "GiraphMaster", Level: levelDomain,
					Description: "Write results back to HDFS.",
					Children: []*OperationSpec{
						{
							Mission: "LocalOffload", ActorType: "GiraphWorker", Level: levelSystem,
							PerActor:    true,
							Description: "Per-worker result writing.",
							Children: []*OperationSpec{
								{
									Mission: "OffloadHdfsData", ActorType: "GiraphWorker", Level: levelImplementation,
									Description: "Write the worker's output partition to HDFS.",
									Infos:       []InfoSpec{{Name: "BytesWritten", Description: "Output size in bytes."}},
								},
							},
						},
					},
				},
				{
					Mission: "Cleanup", ActorType: "GiraphClient", Level: levelDomain,
					Description: "Tear down workers, client and coordination state.",
					Children: []*OperationSpec{
						{
							Mission: "JobCleanup", ActorType: "GiraphClient", Level: levelSystem,
							Description: "Staged job teardown.",
							Children: []*OperationSpec{
								{Mission: "AbortWorkers", ActorType: "GiraphMaster", Level: levelImplementation,
									Description: "Stop worker containers."},
								{Mission: "ClientCleanup", ActorType: "GiraphClient", Level: levelImplementation,
									Description: "Remove client-side temporary state."},
								{Mission: "ServerCleanup", ActorType: "GiraphClient", Level: levelImplementation,
									Description: "Release the Yarn application."},
								{Mission: "ZkCleanup", ActorType: "GiraphClient", Level: levelImplementation,
									Description: "Remove coordination state from ZooKeeper."},
							},
						},
					},
				},
			},
		},
	}
}

// PowerGraphModel returns the performance model of a PowerGraph job:
// MPI-based startup, sequential loading with parallel finalization, GAS
// iterations, and gather-based offloading.
func PowerGraphModel() *Model {
	return &Model{
		Platform: "PowerGraph",
		Description: "Model of a PowerGraph job: MPI startup, sequential edge-list " +
			"loading with parallel finalization, synchronous GAS iterations, and " +
			"master-collected offloading.",
		Root: &OperationSpec{
			Mission: "PowergraphJob", ActorType: "PowergraphClient", Level: levelDomain,
			Description: "One PowerGraph job, end to end.",
			Infos: []InfoSpec{
				{Name: "Dataset", Description: "Input dataset name."},
				{Name: "Machines", Description: "Number of MPI ranks."},
			},
			Children: []*OperationSpec{
				{
					Mission: "Startup", ActorType: "PowergraphClient", Level: levelDomain,
					Description: "Deploy ranks via MPI.",
					Children: []*OperationSpec{
						{Mission: "MpiStartup", ActorType: "PowergraphClient", Level: levelSystem,
							Description: "mpirun process spawning."},
					},
				},
				{
					Mission: "LoadGraph", ActorType: "PowergraphClient", Level: levelDomain,
					Description: "Sequential edge-list loading plus parallel graph finalization.",
					Children: []*OperationSpec{
						{
							Mission: "SequentialLoad", ActorType: "PowergraphRank", Level: levelSystem,
							Description: "Rank 0 reads, parses, and distributes the entire edge list.",
							Infos:       []InfoSpec{{Name: "BytesLoaded", Description: "Input size in bytes."}},
							Children: []*OperationSpec{
								{Mission: "ReadEdgeFile", ActorType: "PowergraphRank", Level: levelImplementation,
									Repeatable: true, Description: "Read one chunk from the shared filesystem."},
								{Mission: "ParseEdges", ActorType: "PowergraphRank", Level: levelImplementation,
									Repeatable: true, Description: "Parse one chunk."},
								{Mission: "DistributeEdges", ActorType: "PowergraphRank", Level: levelImplementation,
									Repeatable: true, Description: "Send one chunk's edges to their machines."},
							},
						},
						{
							Mission: "ParallelLoad", ActorType: "PowergraphRank", Level: levelSystem,
							PerActor: true, Optional: true,
							Description: "What-if loader: each rank reads its own slice concurrently.",
							Infos:       []InfoSpec{{Name: "BytesLoaded", Description: "Slice size in bytes."}},
							Children: []*OperationSpec{
								{Mission: "ReadEdgeFile", ActorType: "PowergraphRank", Level: levelImplementation,
									Optional: true, Description: "Read the rank's slice."},
								{Mission: "ParseEdges", ActorType: "PowergraphRank", Level: levelImplementation,
									Optional: true, Description: "Parse the rank's slice."},
								{Mission: "DistributeEdges", ActorType: "PowergraphRank", Level: levelImplementation,
									Optional: true, Description: "Send foreign edges to their machines."},
							},
						},
						{
							Mission: "FinalizeGraph", ActorType: "PowergraphRank", Level: levelSystem,
							PerActor:    true,
							Description: "Per-rank local graph construction and mirror setup.",
						},
					},
				},
				{
					Mission: "ProcessGraph", ActorType: "PowergraphClient", Level: levelDomain,
					Description: "Synchronous Gather-Apply-Scatter iterations.",
					Children: []*OperationSpec{
						{
							Mission: "Iteration", ActorType: "PowergraphEngine", Level: levelSystem,
							Repeatable:  true,
							Description: "One synchronous GAS iteration.",
							Infos:       []InfoSpec{{Name: "Iteration", Description: "Iteration index."}},
							Children: []*OperationSpec{
								{
									Mission: "LocalIteration", ActorType: "PowergraphRank", Level: levelImplementation,
									PerActor:    true,
									Description: "One rank's share of the iteration.",
									Children: []*OperationSpec{
										{Mission: "Gather", ActorType: "PowergraphRank", Level: levelImplementation,
											Description: "Edge-parallel gather with mirror→master partials.",
											Infos:       []InfoSpec{{Name: "EdgesGathered", Description: "Local edges scanned."}}},
										{Mission: "Apply", ActorType: "PowergraphRank", Level: levelImplementation,
											Description: "Master-side value application.",
											Infos:       []InfoSpec{{Name: "VerticesApplied", Description: "Masters applied."}}},
										{Mission: "Scatter", ActorType: "PowergraphRank", Level: levelImplementation,
											Description: "Value sync to mirrors and edge-parallel scatter.",
											Infos:       []InfoSpec{{Name: "EdgesScattered", Description: "Local edges scanned."}}},
									},
								},
							},
						},
					},
				},
				{
					Mission: "OffloadGraph", ActorType: "PowergraphClient", Level: levelDomain,
					Description: "Collect results at rank 0 and write them out.",
					Children: []*OperationSpec{
						{Mission: "CollectResults", ActorType: "PowergraphRank", Level: levelSystem,
							Description: "Gather result values from all ranks."},
						{Mission: "WriteResults", ActorType: "PowergraphRank", Level: levelSystem,
							Description: "Write the result file to the shared filesystem.",
						},
					},
				},
				{
					Mission: "Cleanup", ActorType: "PowergraphClient", Level: levelDomain,
					Description: "MPI teardown.",
					Children: []*OperationSpec{
						{Mission: "MpiFinalize", ActorType: "PowergraphClient", Level: levelSystem,
							Description: "Finalize the MPI world."},
					},
				},
			},
		},
	}
}

// SingleNodeModel returns the performance model of an OpenG-like
// single-machine platform: the same five domain operations as every
// graph-processing job (enabling cross-platform comparison against the
// distributed platforms), with a minimal system level underneath.
func SingleNodeModel() *Model {
	return &Model{
		Platform: "OpenG",
		Description: "Model of a single-machine job: process startup, local " +
			"edge-list loading and CSR construction, iterative in-memory " +
			"processing, local result writing.",
		Root: &OperationSpec{
			Mission: "OpenGJob", ActorType: "OpenGClient", Level: levelDomain,
			Description: "One single-machine job, end to end.",
			Infos: []InfoSpec{
				{Name: "Dataset", Description: "Input dataset name."},
				{Name: "Kernel", Description: "Algorithm kernel name."},
			},
			Children: []*OperationSpec{
				{
					Mission: "Startup", ActorType: "OpenGClient", Level: levelDomain,
					Description: "Start the process (no resource manager).",
					Children: []*OperationSpec{
						{Mission: "ProcessStart", ActorType: "OpenGClient", Level: levelSystem,
							Description: "Fork/exec and library initialization."},
					},
				},
				{
					Mission: "LoadGraph", ActorType: "OpenGEngine", Level: levelDomain,
					Description: "Read, parse, and build the in-memory CSR.",
					Children: []*OperationSpec{
						{Mission: "ReadEdgeList", ActorType: "OpenGEngine", Level: levelSystem,
							Description: "Read the edge list from local disk.",
							Infos:       []InfoSpec{{Name: "BytesRead", Description: "Input size."}}},
						{Mission: "ParseEdges", ActorType: "OpenGEngine", Level: levelSystem,
							Description: "Parse the edge list."},
						{Mission: "BuildCSR", ActorType: "OpenGEngine", Level: levelSystem,
							Description: "Build the compressed-sparse-row structure."},
					},
				},
				{
					Mission: "ProcessGraph", ActorType: "OpenGEngine", Level: levelDomain,
					Description: "Iterative in-memory processing.",
					Children: []*OperationSpec{
						{Mission: "Iteration", ActorType: "OpenGEngine", Level: levelSystem,
							Repeatable:  true,
							Description: "One kernel iteration.",
							Infos: []InfoSpec{
								{Name: "Iteration", Description: "Iteration index."},
								{Name: "Vertices", Description: "Vertices touched."},
								{Name: "Edges", Description: "Edges scanned."},
							}},
					},
				},
				{
					Mission: "OffloadGraph", ActorType: "OpenGEngine", Level: levelDomain,
					Description: "Write results to local disk.",
					Children: []*OperationSpec{
						{Mission: "WriteResults", ActorType: "OpenGEngine", Level: levelSystem,
							Description: "Write the result file.",
							Infos:       []InfoSpec{{Name: "BytesWritten", Description: "Output size."}}},
					},
				},
				{
					Mission: "Cleanup", ActorType: "OpenGClient", Level: levelDomain,
					Description: "Exit the process.",
					Children: []*OperationSpec{
						{Mission: "ProcessExit", ActorType: "OpenGClient", Level: levelSystem,
							Description: "Process teardown."},
					},
				},
			},
		},
	}
}

// ModelFor returns the built-in model for a platform name, or nil.
func ModelFor(platform string) *Model {
	switch platform {
	case "Giraph", "giraph":
		return GiraphModel()
	case "PowerGraph", "Powergraph", "powergraph":
		return PowerGraphModel()
	case "OpenG", "openg":
		return SingleNodeModel()
	default:
		return nil
	}
}
