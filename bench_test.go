// Package repro holds the repository-level benchmark harness: one
// benchmark per table and figure of the Granula paper, plus ablation
// benchmarks for the design choices called out in DESIGN.md and
// micro-benchmarks of the hot engine paths.
//
// The figure benchmarks run the same pipeline as cmd/experiments at a
// reduced dataset size so a full -bench=. pass stays in the minutes range;
// cmd/experiments regenerates the paper-scale numbers (see
// EXPERIMENTS.md). Simulated durations are independent of the host: the
// benchmarks measure how fast the harness reproduces each experiment, and
// assert the paper's qualitative shape as they go.
package repro

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/graph"
	"repro/internal/platforms"
	"repro/internal/pregel"
	"repro/internal/trace"
	"repro/internal/viz"
)

// benchDataset returns the reduced-size dg1000 stand-in shared by the
// figure benchmarks.
func benchDataset(b *testing.B) *datagen.Dataset {
	b.Helper()
	cfg := datagen.DG1000Shaped(42)
	cfg.Vertices = 20_000
	cfg.Edges = 100_000
	ds, err := datagen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func benchRun(b *testing.B, platform string, ds *datagen.Dataset) *platforms.Output {
	return benchRunParallel(b, platform, ds, 0)
}

func benchRunParallel(b *testing.B, platform string, ds *datagen.Dataset, par int) *platforms.Output {
	b.Helper()
	out, err := platforms.Run(platforms.Spec{
		Platform:        platform,
		Algorithm:       "BFS",
		Source:          datagen.PeripheralSource(ds.Graph),
		Dataset:         ds,
		HostParallelism: par,
	})
	if err != nil {
		b.Fatal(err)
	}
	if len(out.ModelErrors) != 0 {
		b.Fatalf("model errors: %v", out.ModelErrors)
	}
	return out
}

// benchPoolSizes returns the host pool sizes the parallel benchmarks
// sweep: 1/2/4/8 (the EXPERIMENTS.md table), plus the actual core count
// when distinct.
func benchPoolSizes() []int {
	sizes := []int{1, 2, 4, 8}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 && n != 8 {
		sizes = append(sizes, n)
	}
	return sizes
}

// BenchmarkTable1PlatformRegistry regenerates Table 1 (platform
// diversity).
func BenchmarkTable1PlatformRegistry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := platforms.Table1()
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure3DomainModel regenerates Figure 3 (the domain-level job
// breakdown model).
func BenchmarkFigure3DomainModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := core.DomainModel("GraphProcessingJob")
		if err := m.Validate(); err != nil {
			b.Fatal(err)
		}
		_ = m.Render()
	}
}

// BenchmarkFigure4ModelConstruction regenerates Figure 4 (the 4-level
// Giraph performance model).
func BenchmarkFigure4ModelConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := core.GiraphModel()
		if err := m.Validate(); err != nil {
			b.Fatal(err)
		}
		_ = m.Render()
	}
}

// BenchmarkFigure5JobDecompositionGiraph regenerates the Giraph half of
// Figure 5: a full instrumented BFS run plus the domain-level breakdown.
func BenchmarkFigure5JobDecompositionGiraph(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := benchRun(b, "Giraph", ds)
		bd := out.Breakdown
		// The paper's shape: all three categories are substantial.
		if bd.SetupPercent() < 10 || bd.IOPercent() < 20 || bd.ProcessingPercent() < 10 {
			b.Fatalf("Giraph breakdown lost the paper's shape: %+v", bd)
		}
	}
}

// BenchmarkFigure5JobDecompositionPowerGraph regenerates the PowerGraph
// half of Figure 5.
func BenchmarkFigure5JobDecompositionPowerGraph(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := benchRun(b, "PowerGraph", ds)
		// The paper's headline: input/output dominates.
		if out.Breakdown.IOPercent() < 80 {
			b.Fatalf("PowerGraph breakdown lost the paper's shape: %+v", out.Breakdown)
		}
	}
}

// BenchmarkFigure6GiraphCPU regenerates Figure 6: the per-node CPU series
// mapped to Giraph operations.
func BenchmarkFigure6GiraphCPU(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := benchRun(b, "Giraph", ds)
		nodes, times, _ := viz.CPUSeries(out.Job)
		if len(nodes) != 8 || len(times) == 0 {
			b.Fatalf("series shape wrong: %d nodes, %d samples", len(nodes), len(times))
		}
		_ = viz.SVGCPUChart(out.Job)
	}
}

// BenchmarkFigure7PowerGraphCPU regenerates Figure 7 and asserts its
// defining observation: one node does (almost) all the LoadGraph work.
func BenchmarkFigure7PowerGraphCPU(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := benchRun(b, "PowerGraph", ds)
		// Sum each node's CPU during the job; the loader node dominates.
		perNode := map[string]float64{}
		for _, s := range out.Job.EnvSamples {
			perNode[s.Node] += s.CPUUsed()
		}
		var max, total float64
		for _, v := range perNode {
			total += v
			if v > max {
				max = v
			}
		}
		if max < total/2 {
			b.Fatalf("no dominant loader node: max %.1f of %.1f", max, total)
		}
		_ = viz.SVGCPUChart(out.Job)
	}
}

// BenchmarkFigure8SuperstepGantt regenerates Figure 8: the per-worker
// superstep breakdown.
func BenchmarkFigure8SuperstepGantt(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := benchRun(b, "Giraph", ds)
		gantt := viz.WorkerGantt(out.Job, 96, 1, 0)
		if len(gantt) == 0 {
			b.Fatal("empty gantt")
		}
		if len(viz.SuperstepImbalance(out.Job)) < 3 {
			b.Fatal("too few supersteps for the figure")
		}
	}
}

// --- Host-parallelism benchmarks (deterministic fork/join) ---
//
// These sweep Config.HostParallelism over the figure workloads. The
// simulated results are byte-identical at every pool size — equivalence
// is enforced by internal/platforms TestArchiveBytesIdenticalAcrossPoolSizes
// — so the only thing that changes here is wall-clock time.

// BenchmarkFigure5ParallelGiraph measures the Figure 5 Giraph BFS run at
// each host pool size.
func BenchmarkFigure5ParallelGiraph(b *testing.B) {
	ds := benchDataset(b)
	for _, par := range benchPoolSizes() {
		b.Run(fmt.Sprintf("parallelism-%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchRunParallel(b, "Giraph", ds, par)
			}
		})
	}
}

// BenchmarkFigure5ParallelPowerGraph measures the Figure 5 PowerGraph
// BFS run at each host pool size.
func BenchmarkFigure5ParallelPowerGraph(b *testing.B) {
	ds := benchDataset(b)
	for _, par := range benchPoolSizes() {
		b.Run(fmt.Sprintf("parallelism-%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchRunParallel(b, "PowerGraph", ds, par)
			}
		})
	}
}

// BenchmarkFigure8ParallelGantt measures the Figure 8 workload (Giraph
// run plus per-worker gantt assembly) at each host pool size.
func BenchmarkFigure8ParallelGantt(b *testing.B) {
	ds := benchDataset(b)
	for _, par := range benchPoolSizes() {
		b.Run(fmt.Sprintf("parallelism-%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := benchRunParallel(b, "Giraph", ds, par)
				if len(viz.WorkerGantt(out.Job, 96, 1, 0)) == 0 {
					b.Fatal("empty gantt")
				}
			}
		})
	}
}

// --- Ablation benchmarks (design choices from DESIGN.md) ---

func ablationDataset(b *testing.B) *datagen.Dataset {
	b.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Kind: datagen.SocialNetwork, Vertices: 10_000, Edges: 50_000,
		Seed: 7, Directed: true, Locality: 0.8,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkAblationCombiner compares Pregel message volume and runtime
// with and without sender-side combining.
func BenchmarkAblationCombiner(b *testing.B) {
	ds := ablationDataset(b)
	for _, combined := range []bool{true, false} {
		name := "off"
		if combined {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := platforms.GiraphPaperConfig(ds)
			cfg.Workers = 8
			if !combined {
				cfg.Combiner = nil
			}
			for i := 0; i < b.N; i++ {
				out, err := platforms.Run(platforms.Spec{
					Platform: "Giraph", Algorithm: "BFS",
					Source: datagen.PeripheralSource(ds.Graph), Dataset: ds,
					Pregel: &cfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(out.Runtime, "sim-seconds")
			}
		})
	}
}

// BenchmarkAblationPartitioner compares hash and range vertex
// partitioning in the Pregel engine (Figure 8's imbalance driver).
func BenchmarkAblationPartitioner(b *testing.B) {
	ds := ablationDataset(b)
	parts := map[string]graph.Partitioner{
		"hash":  graph.NewHashPartitioner(8),
		"range": graph.NewRangePartitioner(ds.Graph.NumVertices(), 8),
	}
	for name, part := range parts {
		b.Run(name, func(b *testing.B) {
			cfg := platforms.GiraphPaperConfig(ds)
			cfg.Workers = 8
			cfg.Partitioner = part
			for i := 0; i < b.N; i++ {
				out, err := platforms.Run(platforms.Spec{
					Platform: "Giraph", Algorithm: "BFS",
					Source: datagen.PeripheralSource(ds.Graph), Dataset: ds,
					Pregel: &cfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(out.Runtime, "sim-seconds")
			}
		})
	}
}

// BenchmarkAblationVertexCut compares hash and greedy edge placement in
// the GAS engine (replication factor and runtime).
func BenchmarkAblationVertexCut(b *testing.B) {
	ds := ablationDataset(b)
	for _, strategy := range []graph.VertexCutStrategy{graph.VertexCutHash, graph.VertexCutGreedy} {
		b.Run(strategy.String(), func(b *testing.B) {
			cfg := platforms.PowerGraphPaperConfig(ds)
			cfg.Machines = 8
			cfg.CutStrategy = strategy
			for i := 0; i < b.N; i++ {
				out, err := platforms.Run(platforms.Spec{
					Platform: "PowerGraph", Algorithm: "BFS",
					Source: datagen.PeripheralSource(ds.Graph), Dataset: ds,
					GAS: &cfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(out.ReplicationFactor, "replication")
				b.ReportMetric(out.Runtime, "sim-seconds")
			}
		})
	}
}

// BenchmarkAblationLoader compares PowerGraph's sequential loader with the
// what-if parallel loader (the paper's implied fix).
func BenchmarkAblationLoader(b *testing.B) {
	ds := ablationDataset(b)
	for _, parallel := range []bool{false, true} {
		name := "sequential"
		if parallel {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			cfg := platforms.PowerGraphPaperConfig(ds)
			cfg.Machines = 8
			cfg.ParallelLoad = parallel
			for i := 0; i < b.N; i++ {
				out, err := platforms.Run(platforms.Spec{
					Platform: "PowerGraph", Algorithm: "BFS",
					Source: datagen.PeripheralSource(ds.Graph), Dataset: ds,
					GAS: &cfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(out.Runtime, "sim-seconds")
				b.ReportMetric(out.Breakdown.IOPercent(), "io-percent")
			}
		})
	}
}

// BenchmarkAblationHDFSLocality compares locality-aware split reads
// against a replication-1 layout with mostly remote reads.
func BenchmarkAblationHDFSLocality(b *testing.B) {
	ds := ablationDataset(b)
	// Locality only matters when the network is scarcer than the disks;
	// run this ablation on a 1 Gbit/s fabric (the oversubscribed networks
	// HDFS's rack-locality design assumed), not DAS5's 10 Gbit/s.
	clusterCfg := platforms.DAS5Config()
	clusterCfg.NICBandwidth = 125e6
	for _, replication := range []int{3, 1} {
		b.Run(fmt.Sprintf("replication-%d", replication), func(b *testing.B) {
			// Replication-3 gives most workers a local replica; with
			// replication-1 most splits are remote. The effect shows in
			// simulated LoadGraph time.
			hcfg := dfs.DefaultHDFSConfig()
			hcfg.Replication = replication
			for i := 0; i < b.N; i++ {
				out, err := platforms.Run(platforms.Spec{
					Platform: "Giraph", Algorithm: "BFS",
					Source: datagen.PeripheralSource(ds.Graph), Dataset: ds,
					Cluster: clusterCfg, HDFS: &hcfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(out.Breakdown.IO, "io-sim-seconds")
			}
		})
	}
}

// BenchmarkAblationCheckpointing measures the overhead of Giraph's
// fault-tolerance checkpointing and the cost of one recovered failure.
func BenchmarkAblationCheckpointing(b *testing.B) {
	ds := ablationDataset(b)
	variants := []struct {
		name             string
		interval, failAt int
	}{
		{"off", 0, 0},
		{"every-2", 2, 0},
		{"every-2-with-failure", 2, 3},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := platforms.GiraphPaperConfig(ds)
			cfg.Workers = 8
			cfg.CheckpointInterval = v.interval
			cfg.FailAtSuperstep = v.failAt
			cfg.FailWorker = 2
			for i := 0; i < b.N; i++ {
				out, err := platforms.Run(platforms.Spec{
					Platform: "Giraph", Algorithm: "BFS",
					Source: datagen.PeripheralSource(ds.Graph), Dataset: ds,
					Pregel: &cfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(out.Runtime, "sim-seconds")
			}
		})
	}
}

// BenchmarkSingleNodePlatform measures the OpenG-like platform end to end.
func BenchmarkSingleNodePlatform(b *testing.B) {
	ds := ablationDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := platforms.Run(platforms.Spec{
			Platform: "OpenG", Algorithm: "BFS",
			Source: datagen.PeripheralSource(ds.Graph), Dataset: ds, WorkScale: 1000,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(out.Runtime, "sim-seconds")
	}
}

// --- Engine micro-benchmarks ---

// BenchmarkDatagenSocialNetwork measures graph generation throughput.
func BenchmarkDatagenSocialNetwork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := datagen.Generate(datagen.Config{
			Kind: datagen.SocialNetwork, Vertices: 50_000, Edges: 250_000,
			Seed: int64(i), Directed: true, Locality: 0.8,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVertexCutHash measures edge-placement throughput.
func BenchmarkVertexCutHash(b *testing.B) {
	ds := ablationDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vc := graph.NewVertexCut(ds.Graph.NumVertices(), ds.Edges, 8, graph.VertexCutHash)
		if vc.ReplicationFactor() < 1 {
			b.Fatal("bad cut")
		}
	}
}

// BenchmarkTraceEncodeParse measures the platform-log round trip that
// every monitored job pays.
func BenchmarkTraceEncodeParse(b *testing.B) {
	log := trace.NewLog()
	em := trace.NewEmitter(log, "bench", func() float64 { return 1 })
	root := em.Start(trace.Root, "Client", "Job")
	for i := 0; i < 2000; i++ {
		op := em.Start(root, "Worker", "Compute")
		em.Info(op, "Vertices", "12345")
		em.End(op)
	}
	em.End(root)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, log.Records()); err != nil {
			b.Fatal(err)
		}
		recs, err := trace.Parse(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != log.Len() {
			b.Fatal("record count mismatch")
		}
	}
}

// BenchmarkArchiveQuery measures Find/FindAll over a realistic job tree.
func BenchmarkArchiveQuery(b *testing.B) {
	ds := benchDataset(b)
	out := benchRun(b, "Giraph", ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps := out.Job.Find("GiraphJob", "ProcessGraph", "Superstep")
		computes := out.Job.FindAll("Compute")
		if len(steps) == 0 || len(computes) == 0 {
			b.Fatal("query returned nothing")
		}
	}
}

// BenchmarkArchiveSaveLoad measures archive persistence round trips.
func BenchmarkArchiveSaveLoad(b *testing.B) {
	ds := benchDataset(b)
	out := benchRun(b, "Giraph", ds)
	a := archive.New()
	a.Add(out.Job)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := a.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := archive.Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPregelEngine measures the simulated Pregel platform end to end
// (BFS on the ablation graph, 8 workers).
func BenchmarkPregelEngine(b *testing.B) {
	ds := ablationDataset(b)
	cfg := platforms.GiraphPaperConfig(ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := platforms.Run(platforms.Spec{
			Platform: "Giraph", Algorithm: "BFS",
			Source: datagen.PeripheralSource(ds.Graph), Dataset: ds, Pregel: &cfg,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

// BenchmarkGASEngine measures the simulated GAS platform end to end.
func BenchmarkGASEngine(b *testing.B) {
	ds := ablationDataset(b)
	cfg := platforms.PowerGraphPaperConfig(ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := platforms.Run(platforms.Spec{
			Platform: "PowerGraph", Algorithm: "BFS",
			Source: datagen.PeripheralSource(ds.Graph), Dataset: ds, GAS: &cfg,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

// Compile-time interface check for the combiner used in the ablations.
var _ pregel.Combiner = pregel.MinCombiner{}
