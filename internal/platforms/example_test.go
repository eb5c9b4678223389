package platforms_test

import (
	"fmt"
	"log"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/platforms"
	"repro/internal/viz"
)

// Example runs one graph-processing job under the complete Granula
// pipeline — modeling, monitoring, archiving, visualization — and looks
// at where the time went: BFS on the simulated Giraph platform over a
// small synthetic social network.
func Example() {
	// A dataset: 20k vertices, 100k edges, skewed like a social network.
	ds, err := datagen.Generate(datagen.Config{
		Kind:     datagen.SocialNetwork,
		Vertices: 20_000,
		Edges:    100_000,
		Seed:     1,
		Directed: true,
		Locality: 0.8,
	})
	if err != nil {
		log.Fatal(err)
	}
	g := ds.Graph
	var maxDeg, arcs int64
	for v := int64(0); v < g.NumVertices(); v++ {
		d := g.OutDegree(graph.VertexID(v))
		maxDeg, arcs = max(maxDeg, d), arcs+d
	}
	fmt.Printf("dataset: %d vertices, %d edges, degree skew %.0fx\n\n",
		g.NumVertices(), len(ds.Edges), float64(maxDeg)/(float64(arcs)/float64(g.NumVertices())))

	// BFS on the simulated 8-node Giraph deployment. The platform emits
	// Granula operation logs, the environment monitor samples per-node
	// CPU, and the monitor assembles both into an archived job.
	out, err := platforms.Run(platforms.Spec{
		Platform:  "Giraph",
		Algorithm: "BFS",
		Source:    datagen.PeripheralSource(g),
		Dataset:   ds,
		WorkScale: 50, // pretend the graph is 50x larger
	})
	if err != nil {
		log.Fatal(err)
	}

	// Domain-level decomposition: the cross-platform Ts/Td/Tp metric.
	bar, err := viz.BreakdownBar(out.Job, 60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bar)

	// The job's operation tree must conform to the Giraph model.
	fmt.Printf("\nmodel check: %d mismatches against the %s model\n",
		len(out.ModelErrors), out.Model.Platform)

	// How uneven was the compute across workers in each superstep?
	fmt.Println("\nper-superstep durations and compute imbalance:")
	for _, im := range viz.SuperstepImbalance(out.Job) {
		fmt.Printf("  superstep %2d: mean compute %6.3fs, imbalance %.2fx\n",
			im.Superstep, im.Mean, im.Ratio)
	}

	// Fine-grained drill-down: the slowest worker-level load operation.
	var slowestActor string
	var slowest float64
	for _, op := range out.Job.FindAll("LocalLoad") {
		if op.Duration() > slowest {
			slowestActor, slowest = op.Actor, op.Duration()
		}
	}
	fmt.Printf("\nslowest load worker: %s (%.2fs)\n", slowestActor, slowest)
	fmt.Printf("total runtime: %.2fs over %d supersteps\n", out.Runtime, out.Supersteps)
	// Output:
	// dataset: 20000 vertices, 100000 edges, degree skew 784x
	//
	// giraph-bfs-social-network-n20000-m100000 (Giraph): total 25.93s
	//   [ssssssssssssssssssssssssssssssssssipsssssssssssssssssssssss]
	//   setup (s): 96.4%   input/output (i): 1.2%   processing (p): 2.4%
	//
	// model check: 0 mismatches against the Giraph model
	//
	// per-superstep durations and compute imbalance:
	//   superstep  0: mean compute  0.011s, imbalance 1.00x
	//   superstep  1: mean compute  0.000s, imbalance 2.43x
	//   superstep  2: mean compute  0.000s, imbalance 2.00x
	//   superstep  3: mean compute  0.000s, imbalance 1.57x
	//   superstep  4: mean compute  0.001s, imbalance 3.61x
	//   superstep  5: mean compute  0.006s, imbalance 2.24x
	//   superstep  6: mean compute  0.007s, imbalance 1.04x
	//   superstep  7: mean compute  0.011s, imbalance 1.04x
	//   superstep  8: mean compute  0.017s, imbalance 1.02x
	//   superstep  9: mean compute  0.019s, imbalance 1.03x
	//   superstep 10: mean compute  0.014s, imbalance 1.03x
	//   superstep 11: mean compute  0.005s, imbalance 1.06x
	//   superstep 12: mean compute  0.001s, imbalance 1.13x
	//   superstep 13: mean compute  0.000s, imbalance 1.83x
	//
	// slowest load worker: GiraphWorker-5 (0.30s)
	// total runtime: 25.93s over 14 supersteps
}

// Example_powerGraphLoader localizes the paper's PowerGraph diagnosis
// (Sections 4.2-4.3) down to the implementation level: on dg1000 over 8
// nodes one rank reads and parses the whole edge list while the others
// wait, so input/output dominates the job.
func Example_powerGraphLoader() {
	ds, err := datagen.Generate(datagen.DG1000Shaped(42))
	if err != nil {
		log.Fatal(err)
	}
	out, err := platforms.Run(platforms.Spec{
		Platform:  "PowerGraph",
		Algorithm: "BFS",
		Source:    datagen.PeripheralSource(ds.Graph),
		Dataset:   ds,
	})
	if err != nil {
		log.Fatal(err)
	}
	b := out.Breakdown
	fmt.Printf("processing %.1f%%, input/output %.1f%% of %.2fs\n\n",
		b.ProcessingPercent(), b.IOPercent(), out.Runtime)

	// LoadGraph split into its system-level operations: the sequential
	// phase dominates; finalization is parallel.
	for _, op := range out.Job.Find("PowergraphJob", "LoadGraph", "SequentialLoad") {
		fmt.Printf("%-18s %-20s %8.2fs  (%s bytes/s)\n", op.Mission, op.Actor, op.Duration(), op.Derived["LoadThroughput"])
		var read, parse, dist float64
		for _, c := range op.Children {
			switch c.Mission {
			case "ReadEdgeFile":
				read += c.Duration()
			case "ParseEdges":
				parse += c.Duration()
			case "DistributeEdges":
				dist += c.Duration()
			}
		}
		fmt.Printf("  read %.2fs + parse %.2fs + distribute %.2fs\n", read, parse, dist)
	}
	for _, op := range out.Job.Find("PowergraphJob", "LoadGraph", "FinalizeGraph") {
		fmt.Printf("%-18s %-20s %8.2fs\n", op.Mission, op.Actor, op.Duration())
	}

	// The monitor samples the shared filesystem too: its bytes per
	// interval show the single sequential read stream.
	var total, peak float64
	for _, s := range out.Job.EnvSamples {
		if s.Node == "sharedfs" && s.Kind == "disk" {
			total, peak = total+s.Used, max(peak, s.Used)
		}
	}
	fmt.Printf("\nshared filesystem: %.1f GB read, peak %.0f MB/s\n", total/1e9, peak/1e6)
	fmt.Printf("vertex-cut replication factor: %.2f\n", out.ReplicationFactor)
	// Output:
	// processing 3.0%, input/output 96.6% of 407.70s
	//
	// SequentialLoad     PowergraphRank-0       379.79s  (54240244.26014483 bytes/s)
	//   read 20.60s + parse 347.62s + distribute 11.56s
	// FinalizeGraph      PowergraphRank-0         8.91s
	// FinalizeGraph      PowergraphRank-7         9.10s
	// FinalizeGraph      PowergraphRank-1         8.95s
	// FinalizeGraph      PowergraphRank-2         8.89s
	// FinalizeGraph      PowergraphRank-3         8.92s
	// FinalizeGraph      PowergraphRank-4         8.85s
	// FinalizeGraph      PowergraphRank-5         8.90s
	// FinalizeGraph      PowergraphRank-6         8.91s
	//
	// shared filesystem: 23.9 GB read, peak 1000 MB/s
	// vertex-cut replication factor: 5.32
}

// Example_crossover sweeps the effective input size and compares the
// single-machine OpenG-like engine with the two 8-node clusters. At small
// scale the single machine wins, because the clusters pay fixed
// provisioning and coordination costs; as the work grows, Giraph's
// parallel loading and compute amortize them, while PowerGraph's
// sequential loader never does.
func Example_crossover() {
	cfg := datagen.DG1000Shaped(42)
	cfg.Vertices, cfg.Edges = 50_000, 250_000
	ds, err := datagen.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	src := datagen.PeripheralSource(ds.Graph)

	fmt.Println("BFS runtime (simulated seconds) by effective input size:")
	fmt.Printf("%-18s %14s %14s %14s\n", "edges (effective)", "OpenG (1 node)", "Giraph (8)", "PowerGraph (8)")
	for _, scale := range []float64{200, 1000, 4000, 16000} {
		var runtimes []any
		for _, platform := range []string{"OpenG", "Giraph", "PowerGraph"} {
			out, err := platforms.Run(platforms.Spec{
				Platform:  platform,
				Algorithm: "BFS",
				Source:    src,
				Dataset:   ds,
				WorkScale: scale,
			})
			if err != nil {
				log.Fatal(err)
			}
			runtimes = append(runtimes, out.Runtime)
		}
		fmt.Printf("%-18.2g %14.1f %14.1f %14.1f\n", append([]any{float64(len(ds.Edges)) * scale}, runtimes...)...)
	}
	// Output:
	// BFS runtime (simulated seconds) by effective input size:
	// edges (effective)  OpenG (1 node)     Giraph (8) PowerGraph (8)
	// 5e+07                         6.2           27.9           21.2
	// 2.5e+08                      29.5           38.7          100.1
	// 1e+09                       116.9           79.6          396.0
	// 4e+09                       466.5          248.2         1579.5
}
