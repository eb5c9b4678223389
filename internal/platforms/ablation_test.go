package platforms

import (
	"context"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
)

// TestDesignAblations is the committed result behind the ablation table
// in EXPERIMENTS.md, one row per design choice. The values are simulated seconds (or ratios) on one fixed graph, so they
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
	// Every variant runs the paper's calibration with one edit.
	type variant struct {
		name     string
		platform string
		edit     func(*calibration)
		want     []float64 // one per metric
	}
	giraph := func(name string, edit func(*calibration), want ...float64) variant {
		return variant{name, "Giraph", edit, want}
	}
	powergraph := func(name string, edit func(*calibration), want ...float64) variant {
		return variant{name, "PowerGraph", edit, want}
	}
	paper := func(*calibration) {}
	// Locality only matters when the network is scarcer than the disks:
	// the HDFS row runs on a 1 Gbit/s fabric (the oversubscribed networks
	// rack-locality was designed for), not DAS5's 10 Gbit/s.
	hdfs := func(replication int) func(*calibration) {
		return func(c *calibration) {
			c.Cluster.NICBandwidth = 125e6
			c.HDFS.Replication = replication
		}
	}
	// Checkpointing is an ablation row only: the paper's calibration
	// leaves it off, so TestCalibrationElasticity names it.
	checkpoint := func(interval, failAt int) func(*calibration) {
		return func(c *calibration) {
			c.Pregel.CheckpointInterval, c.Pregel.FailAtSuperstep, c.Pregel.FailWorker = interval, failAt, 2
		}
	}

	type metric struct {
		name string
		get  func(*Output) float64
	}
	runtime := metric{"runtime s", func(o *Output) float64 { return o.Runtime }}
	for _, row := range []struct {
		name     string
		metrics  []metric
		variants []variant // ascending in every metric
	}{
		{"combiner", []metric{runtime}, []variant{
			giraph("on", paper, 85.77),
			giraph("off", func(c *calibration) { c.Pregel.Combiner = nil }, 88.71),
		}},
		{"partitioner", []metric{runtime}, []variant{
			giraph("hash", func(c *calibration) { c.Pregel.Partitioner = graph.NewHashPartitioner(8) }, 85.77),
			giraph("range", func(c *calibration) {
				c.Pregel.Partitioner = rangePartitioner{k: 8, n: ds.Graph.NumVertices()}
			}, 99.61),
		}},
		{"vertex-cut", []metric{{"replication", func(o *Output) float64 { return o.ReplicationFactor }}, runtime}, []variant{
			powergraph("greedy", func(c *calibration) { c.GAS.CutStrategy = graph.VertexCutGreedy }, 2.735, 399.1),
			powergraph("hash", func(c *calibration) { c.GAS.CutStrategy = graph.VertexCutHash }, 5.235, 407.5),
		}},
		{"loader", []metric{runtime, {"IO %", func(o *Output) float64 { return o.Breakdown.IOPercent() }}}, []variant{
			powergraph("parallel", func(c *calibration) { c.GAS.ParallelLoad = true }, 93.18, 85.50),
			powergraph("sequential", func(c *calibration) { c.GAS.ParallelLoad = false }, 407.5, 96.68),
		}},
		{"hdfs-replication", []metric{{"IO s", func(o *Output) float64 { return o.Breakdown.IO }}}, []variant{
			giraph("3", hdfs(3), 75.48),
			giraph("1", hdfs(1), 77.06),
		}},
		{"checkpointing", []metric{runtime}, []variant{
			giraph("off", checkpoint(0, 0), 85.77),
			giraph("every-2", checkpoint(2, 0), 141.2),
			giraph("every-2-with-failure", checkpoint(2, 3), 157.5),
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			prev := make([]float64, len(row.metrics))
			for _, v := range row.variants {
				spec := Spec{Platform: v.platform, Algorithm: "BFS", Dataset: ds, Source: datagen.PeripheralSource(ds.Graph)}
				cal := paperCalibration(spec)
				v.edit(&cal)
				out, err := run(context.Background(), spec, cal)
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
