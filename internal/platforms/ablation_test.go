package platforms

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/gas"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// TestDesignAblations is the committed result behind the ablation table
// in EXPERIMENTS.md and the six design choices DESIGN.md calls out. The
// values are simulated seconds (or ratios) on one fixed graph, so they
// are the same on every host: each row lists its variants from cheapest
// to dearest, and the test asserts that order and each documented value
// to the four digits the documents print.
func TestDesignAblations(t *testing.T) {
	// Relative. Printing four digits rounds by at most 0.035 % here
	// (0.05 in 141.2), so this admits rounding and nothing else.
	const tolerance = 5e-4

	ds, err := datagen.Generate(datagen.Config{
		Kind: datagen.SocialNetwork, Vertices: 10_000, Edges: 50_000,
		Seed: 7, Directed: true, Locality: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	giraph := func(edit func(*Spec, *pregel.Config)) Spec {
		cfg := giraphPaperConfig(ds)
		spec := Spec{Platform: "Giraph", Pregel: &cfg}
		edit(&spec, &cfg)
		return spec
	}
	powergraph := func(edit func(*gas.Config)) Spec {
		cfg := powerGraphPaperConfig(ds)
		edit(&cfg)
		return Spec{Platform: "PowerGraph", GAS: &cfg}
	}
	paper := func(*Spec, *pregel.Config) {}
	// Locality only matters when the network is scarcer than the disks:
	// the HDFS row runs on a 1 Gbit/s fabric (the oversubscribed networks
	// rack-locality was designed for), not DAS5's 10 Gbit/s.
	hdfs := func(replication int) Spec {
		return giraph(func(s *Spec, _ *pregel.Config) {
			s.Cluster = DAS5Config()
			s.Cluster.NICBandwidth = 125e6
			h := dfs.DefaultHDFSConfig()
			h.Replication = replication
			s.HDFS = &h
		})
	}
	checkpoint := func(interval, failAt int) Spec {
		return giraph(func(_ *Spec, c *pregel.Config) {
			c.CheckpointInterval, c.FailAtSuperstep, c.FailWorker = interval, failAt, 2
		})
	}

	type metric struct {
		name string
		get  func(*Output) float64
	}
	runtime := metric{"runtime s", func(o *Output) float64 { return o.Runtime }}
	type variant struct {
		name string
		spec Spec
		want []float64 // one per metric
	}
	for _, row := range []struct {
		name     string
		metrics  []metric
		variants []variant // ascending in every metric
	}{
		{"combiner", []metric{runtime}, []variant{
			{"on", giraph(paper), []float64{85.77}},
			{"off", giraph(func(_ *Spec, c *pregel.Config) { c.Combiner = nil }), []float64{88.71}},
		}},
		{"partitioner", []metric{runtime}, []variant{
			{"hash", giraph(func(_ *Spec, c *pregel.Config) { c.Partitioner = graph.NewHashPartitioner(8) }), []float64{85.77}},
			{"range", giraph(func(_ *Spec, c *pregel.Config) {
				c.Partitioner = rangePartitioner{k: 8, n: ds.Graph.NumVertices()}
			}), []float64{99.61}},
		}},
		{"vertex-cut", []metric{{"replication", func(o *Output) float64 { return o.ReplicationFactor }}, runtime}, []variant{
			{"greedy", powergraph(func(c *gas.Config) { c.CutStrategy = graph.VertexCutGreedy }), []float64{2.735, 399.1}},
			{"hash", powergraph(func(c *gas.Config) { c.CutStrategy = graph.VertexCutHash }), []float64{5.235, 407.5}},
		}},
		{"loader", []metric{runtime, {"IO %", func(o *Output) float64 { return o.Breakdown.IOPercent() }}}, []variant{
			{"parallel", powergraph(func(c *gas.Config) { c.ParallelLoad = true }), []float64{93.18, 85.50}},
			{"sequential", powergraph(func(c *gas.Config) { c.ParallelLoad = false }), []float64{407.5, 96.68}},
		}},
		{"hdfs-replication", []metric{{"IO s", func(o *Output) float64 { return o.Breakdown.IO }}}, []variant{
			{"3", hdfs(3), []float64{75.48}},
			{"1", hdfs(1), []float64{77.06}},
		}},
		{"checkpointing", []metric{runtime}, []variant{
			{"off", checkpoint(0, 0), []float64{85.77}},
			{"every-2", checkpoint(2, 0), []float64{141.2}},
			{"every-2-with-failure", checkpoint(2, 3), []float64{157.5}},
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			prev := make([]float64, len(row.metrics))
			for _, v := range row.variants {
				spec := v.spec
				spec.Algorithm, spec.Dataset, spec.Source = "BFS", ds, datagen.PeripheralSource(ds.Graph)
				out, err := Run(spec)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				for i, m := range row.metrics {
					got := m.get(out)
					if math.Abs(got-v.want[i]) > tolerance*v.want[i] {
						t.Errorf("%s %s = %.5g, documented %.4g", v.name, m.name, got, v.want[i])
					}
					if got <= prev[i] {
						t.Errorf("%s %s = %.5g is not above the variant before it (%.5g)", v.name, m.name, got, prev[i])
					}
					prev[i] = got
				}
			}
		})
	}
}

// rangePartitioner splits the ID space into k contiguous ranges. With
// generators that cluster high-degree vertices at low IDs this produces
// the skewed partitions that make superstep imbalance visible.
type rangePartitioner struct {
	k int
	n int64
}

func (r rangePartitioner) Partition(v graph.VertexID) int {
	return min(int(int64(v)*int64(r.k)/r.n), r.k-1)
}

func (r rangePartitioner) K() int { return r.k }

func (r rangePartitioner) Name() string { return "range" }
