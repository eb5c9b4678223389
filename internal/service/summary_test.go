package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/datagen"
	"repro/internal/platforms"
)

// summarize is the executor's summary as it was built from the
// harness's platforms.Output before Summarize existed, kept verbatim as
// the oracle Summarize is held to.
func summarize(req JobRequest, out *platforms.Output) Summary {
	ops := 0
	if out.Job.Root != nil {
		out.Job.Root.Walk(func(*archive.Operation) { ops++ })
	}
	sum := Summary{
		ID:                out.Job.ID,
		Platform:          out.Job.Platform,
		Algorithm:         req.Algorithm,
		Runtime:           out.Runtime,
		Supersteps:        out.Supersteps,
		Operations:        ops,
		SetupPercent:      out.Breakdown.SetupPercent(),
		IOPercent:         out.Breakdown.IOPercent(),
		ProcessingPercent: out.Breakdown.ProcessingPercent(),
		ReplicationFactor: out.ReplicationFactor,
	}
	for _, me := range out.ModelErrors {
		sum.ModelErrors = append(sum.ModelErrors, fmt.Sprintf("%v", me))
	}
	return sum
}

// TestSummarizeMatchesHarnessOracle is the differential check on the
// one summary: for every platform × algorithm × graph kind the service
// accepts, at two seeds and two cluster sizes, Summarize over the
// archive plus the engine's replication factor equals the summary the
// harness's own figures give, field by field and as JSON bytes. So an
// executor job's summary, record bytes and ETags do not move.
func TestSummarizeMatchesHarnessOracle(t *testing.T) {
	algorithms := map[string][]string{
		"Giraph":     {"BFS", "SSSP", "PageRank", "WCC", "CDLP"},
		"PowerGraph": {"BFS", "SSSP", "PageRank", "WCC"},
		"OpenG":      {"BFS", "SSSP", "PageRank", "WCC", "CDLP", "LCC"},
	}
	kinds := map[string]datagen.Kind{
		"social": datagen.SocialNetwork, "rmat": datagen.RMAT, "uniform": datagen.Uniform,
	}
	runs := 0
	for platform, algs := range algorithms {
		for kindName, kind := range kinds {
			for _, seed := range []int64{42, 7} {
				ds, err := datagen.Generate(datagen.Config{
					Kind: kind, Vertices: 200, Edges: 800, Seed: seed, Directed: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, alg := range algs {
					for _, nodes := range []int{0, 3} {
						spec := platforms.Spec{
							Platform: platform, Algorithm: alg,
							Source:     datagen.PeripheralSource(ds.Graph),
							Iterations: 10, Dataset: ds, HostParallelism: 1,
							JobID: strings.ToLower(fmt.Sprintf("%s-%s-%s-%d-%d", platform, alg, kindName, seed, nodes)),
						}
						if nodes > 0 {
							cfg := platforms.DAS5Config()
							cfg.Nodes = nodes
							spec.Cluster = cfg
						}
						out, err := platforms.Run(spec)
						if err != nil {
							t.Fatalf("%s: %v", spec.JobID, err)
						}
						want := summarize(JobRequest{Algorithm: alg}, out)
						got := Summarize(out.Job, alg)
						got.ReplicationFactor = out.ReplicationFactor
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: summary\n got %+v\nwant %+v", spec.JobID, got, want)
							continue
						}
						gb, _ := json.Marshal(got)
						wb, _ := json.Marshal(want)
						if !bytes.Equal(gb, wb) {
							t.Errorf("%s: summary JSON\n got %s\nwant %s", spec.JobID, gb, wb)
						}
						runs++
					}
				}
			}
		}
	}
	if want := (5 + 4 + 6) * 3 * 2 * 2; runs != want && !t.Failed() {
		t.Fatalf("compared %d jobs, want %d", runs, want)
	}
}
