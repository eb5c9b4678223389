package platforms

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/chokepoint"
	"repro/internal/cluster"
	"repro/internal/datagen"
)

func smallDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Kind: datagen.SocialNetwork, Vertices: 1500, Edges: 8000, Seed: 21, Directed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func smallCluster() cluster.Config {
	cfg := DAS5Config()
	cfg.Nodes = 4
	cfg.CoresPerNode = 8
	return cfg
}

func TestRegistryMatchesTable1(t *testing.T) {
	reg := registry()
	if len(reg) != 7 {
		t.Fatalf("registry has %d platforms, want 7 (Table 1)", len(reg))
	}
	wantOrder := []string{"Giraph", "PowerGraph", "GraphMat", "PGX.D", "OpenG", "TOTEM", "Hadoop"}
	for i, want := range wantOrder {
		if reg[i].Name != want {
			t.Fatalf("registry[%d] = %s, want %s", i, reg[i].Name, want)
		}
	}
	for _, d := range reg {
		if d.Name == "Giraph" || d.Name == "PowerGraph" {
			if !d.Simulated {
				t.Fatalf("%s should be marked simulated", d.Name)
			}
		} else if d.Simulated {
			t.Fatalf("%s should not be marked simulated", d.Name)
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	out := Table1()
	for _, want := range []string{"Giraph", "PowerGraph", "Hadoop", "Pregel", "GAS", "HDFS", "Provisioning"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 9 { // header + separator + 7 rows
		t.Fatalf("Table1 has %d lines, want 9", len(lines))
	}
}

func TestDG1000WorkScale(t *testing.T) {
	ds := smallDataset(t)
	scale := dg1000WorkScale(ds)
	if math.Abs(scale-paperEdges/8000) > 1e-6 {
		t.Fatalf("scale = %v", scale)
	}
	empty := &datagen.Dataset{}
	if dg1000WorkScale(empty) != 1 {
		t.Fatal("empty dataset scale should be 1")
	}
}

func TestRunGiraphBFSFullPipeline(t *testing.T) {
	ds := smallDataset(t)
	out, err := Run(Spec{
		Platform:  "Giraph",
		Algorithm: "BFS",
		Dataset:   ds,
		Cluster:   smallCluster(),
		WorkScale: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Algorithm output correct.
	want := algorithms.RefBFS(ds.Graph, 0)
	for v := range want {
		if out.Values[v] != want[v] {
			t.Fatalf("vertex %d: %v, want %v", v, out.Values[v], want[v])
		}
	}
	// The run conforms to the Giraph model.
	if len(out.ModelErrors) != 0 {
		t.Fatalf("model errors: %v", out.ModelErrors)
	}
	// Breakdown consistent.
	b := out.Breakdown
	if b.Total <= 0 || b.Setup <= 0 || b.IO <= 0 || b.Processing <= 0 {
		t.Fatalf("breakdown = %+v", b)
	}
	sum := b.SetupPercent() + b.IOPercent() + b.ProcessingPercent()
	if sum > 100.01 {
		t.Fatalf("percentages sum to %v", sum)
	}
	// Environment samples and derived metrics present.
	if len(out.Job.EnvSamples) == 0 {
		t.Fatal("no environment samples")
	}
	if _, ok := out.Job.Root.Derived["TotalSeconds"]; !ok {
		t.Fatal("breakdown not annotated on root")
	}
	if _, ok := out.Job.Root.Derived["CPUSeconds"]; !ok {
		t.Fatal("CPU not annotated on root")
	}
}

func TestRunPowerGraphBFSFullPipeline(t *testing.T) {
	ds := smallDataset(t)
	out, err := Run(Spec{
		Platform:  "PowerGraph",
		Algorithm: "BFS",
		Dataset:   ds,
		Cluster:   smallCluster(),
		WorkScale: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := algorithms.RefBFS(ds.Graph, 0)
	for v := range want {
		if out.Values[v] != want[v] {
			t.Fatalf("vertex %d: %v, want %v", v, out.Values[v], want[v])
		}
	}
	if len(out.ModelErrors) != 0 {
		t.Fatalf("model errors: %v", out.ModelErrors)
	}
	if out.Job.Platform != "PowerGraph" {
		t.Fatalf("platform = %s", out.Job.Platform)
	}
}

func TestRunOtherAlgorithms(t *testing.T) {
	ds := smallDataset(t)
	for _, alg := range []string{"SSSP", "PageRank", "WCC"} {
		for _, plat := range []string{"Giraph", "PowerGraph"} {
			out, err := Run(Spec{
				Platform: plat, Algorithm: alg, Dataset: ds,
				Cluster: smallCluster(), WorkScale: 1, Iterations: 3,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", plat, alg, err)
			}
			if len(out.ModelErrors) != 0 {
				t.Fatalf("%s/%s model errors: %v", plat, alg, out.ModelErrors)
			}
		}
	}
	// CDLP is Pregel-only.
	if _, err := Run(Spec{Platform: "Giraph", Algorithm: "CDLP", Dataset: ds,
		Cluster: smallCluster(), WorkScale: 1, Iterations: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Spec{Platform: "PowerGraph", Algorithm: "CDLP", Dataset: ds,
		Cluster: smallCluster(), WorkScale: 1}); err == nil {
		t.Fatal("CDLP on PowerGraph should be rejected")
	}
}

func TestRunOpenGFullPipeline(t *testing.T) {
	ds := smallDataset(t)
	out, err := Run(Spec{
		Platform:  "OpenG",
		Algorithm: "BFS",
		Dataset:   ds,
		Cluster:   smallCluster(),
		WorkScale: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := algorithms.RefBFS(ds.Graph, 0)
	for v := range want {
		if out.Values[v] != want[v] {
			t.Fatalf("vertex %d: %v, want %v", v, out.Values[v], want[v])
		}
	}
	if len(out.ModelErrors) != 0 {
		t.Fatalf("model errors: %v", out.ModelErrors)
	}
	if out.Job.Platform != "OpenG" {
		t.Fatalf("platform = %s", out.Job.Platform)
	}
	// LCC is exclusive to the single-node platform.
	if _, err := Run(Spec{Platform: "OpenG", Algorithm: "LCC", Dataset: ds,
		Cluster: smallCluster(), WorkScale: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Spec{Platform: "Giraph", Algorithm: "LCC", Dataset: ds,
		Cluster: smallCluster(), WorkScale: 1}); err == nil {
		t.Fatal("LCC on Giraph should be rejected")
	}
}

func TestSingleNodeBeatsDistributedOnSmallGraphs(t *testing.T) {
	// The crossover observation: for small inputs, a single machine wins
	// because the distributed platforms pay fixed provisioning costs.
	ds := smallDataset(t)
	singleOut, err := Run(Spec{Platform: "OpenG", Algorithm: "BFS", Dataset: ds,
		Cluster: smallCluster(), WorkScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	giraphOut, err := Run(Spec{Platform: "Giraph", Algorithm: "BFS", Dataset: ds,
		Cluster: smallCluster(), WorkScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if singleOut.Runtime >= giraphOut.Runtime {
		t.Fatalf("single-node %.2fs not below Giraph %.2fs on a small graph",
			singleOut.Runtime, giraphOut.Runtime)
	}
}

func TestChokepointDiagnosesPowerGraphLoader(t *testing.T) {
	// The paper's diagnosis, fully automated: run PowerGraph BFS, feed
	// the archive to the choke-point analyzer, and it should identify the
	// single-node loading hotspot.
	ds := smallDataset(t)
	cc := smallCluster()
	out, err := Run(Spec{Platform: "PowerGraph", Algorithm: "BFS", Dataset: ds,
		Cluster: cc, WorkScale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	report, err := chokepoint.Analyze(out.Job, chokepoint.Options{
		CPUCapacity:      float64(cc.Nodes * cc.CoresPerNode),
		SharedFSCapacity: cc.SharedFSBandwidth,
	})
	if err != nil {
		t.Fatal(err)
	}
	var hotspot *chokepoint.Finding
	for i := range report.Findings {
		if report.Findings[i].Kind == "single-node-hotspot" &&
			report.Findings[i].Mission == "LoadGraph" {
			hotspot = &report.Findings[i]
		}
	}
	if hotspot == nil {
		t.Fatalf("analyzer missed the single-node loading hotspot: %+v", report.Findings)
	}
	if hotspot.ImpactPercent < 50 {
		t.Fatalf("hotspot impact = %.1f%%, want dominant", hotspot.ImpactPercent)
	}
}

func TestRunValidation(t *testing.T) {
	ds := smallDataset(t)
	if _, err := Run(Spec{Platform: "Spark", Algorithm: "BFS", Dataset: ds}); err == nil {
		t.Fatal("unknown platform should fail")
	}
	if _, err := Run(Spec{Platform: "Giraph", Algorithm: "Mystery", Dataset: ds}); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if _, err := Run(Spec{Platform: "Giraph", Algorithm: "BFS"}); err == nil {
		t.Fatal("missing dataset should fail")
	}
}

func TestRunDefaultJobID(t *testing.T) {
	ds := smallDataset(t)
	out, err := Run(Spec{Platform: "Giraph", Algorithm: "BFS", Dataset: ds,
		Cluster: smallCluster(), WorkScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Job.ID, "giraph-bfs") {
		t.Fatalf("job ID = %q", out.Job.ID)
	}
}

func TestGiraphSetupIsCPULight(t *testing.T) {
	// The paper's Figure 6 observation: setup operations are not
	// compute-intensive while LoadGraph is. Verify the derived
	// CPUSeconds reflect that at small scale too.
	ds := smallDataset(t)
	out, err := Run(Spec{Platform: "Giraph", Algorithm: "BFS", Dataset: ds,
		Cluster: smallCluster(), WorkScale: 500, SampleInterval: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var startupCPU, loadCPU float64
	var startupDur, loadDur float64
	for _, child := range out.Job.Root.Children {
		cpu := 0.0
		if raw, ok := child.Derived["CPUSeconds"]; ok {
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				t.Fatal(err)
			}
			cpu = v
		}
		switch child.Mission {
		case "Startup":
			startupCPU, startupDur = cpu, child.Duration()
		case "LoadGraph":
			loadCPU, loadDur = cpu, child.Duration()
		}
	}
	if startupDur == 0 || loadDur == 0 {
		t.Fatal("domain operations missing")
	}
	// CPU intensity: cpu-seconds per wall-second.
	startupRate := startupCPU / startupDur
	loadRate := loadCPU / loadDur
	if loadRate < 4*startupRate {
		t.Fatalf("LoadGraph CPU rate %.2f not >> Startup rate %.2f", loadRate, startupRate)
	}
}
