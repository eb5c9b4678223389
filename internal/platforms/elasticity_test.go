package platforms

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/datagen"
	"repro/internal/viz"
)

// target is the measured side of one claim TestPaperFidelity
// (cmd/experiments) holds to the paper, and the figure it belongs to.
type target struct {
	name   string
	figure int
}

// fidelityTargets lists the targets in measureTargets' order.
var fidelityTargets = []target{
	{"giraph-total", 5}, {"giraph-setup", 5}, {"giraph-io", 5}, {"giraph-proc", 5},
	{"pg-total", 5}, {"pg-setup", 5}, {"pg-io", 5}, {"pg-proc", 5}, {"ratio", 5},
	{"giraph-peak", 6}, {"giraph-startup-cpu", 6}, {"giraph-cleanup-cpu", 6},
	{"pg-peak", 7}, {"pg-busy-load-nodes", 7},
	{"longest-vs-mean-compute", 8}, {"worst-barrier-wait", 8}, {"longest-compute-step", 8},
}

// measureTargets measures fidelityTargets on one Giraph and one
// PowerGraph run, as TestPaperFidelity does.
func measureTargets(g, pg *Output) []float64 {
	cpuRate := func(o *Output, mission string) float64 {
		op := o.Job.Root.ChildrenByMission(mission)[0]
		cpu, _ := strconv.ParseFloat(op.Derived["CPUSeconds"], 64)
		return cpu / op.Duration()
	}
	peak := func(job *archive.Job) float64 {
		byTime := map[float64]float64{}
		for _, s := range job.EnvSamples {
			byTime[s.Time] += s.CPUUsed()
		}
		most := 0.0
		for _, v := range byTime {
			most = max(most, v)
		}
		return most
	}
	load := pg.Job.Find(pg.Job.Root.Mission, "LoadGraph", "SequentialLoad")[0]
	busy := map[float64]int{}
	for _, s := range pg.Job.EnvSamples {
		if s.IsCPU() && s.Time-1 >= load.Start && s.Time <= load.End && s.Used > 1 {
			busy[s.Time]++
		}
	}
	busiest := 0
	for _, n := range busy {
		busiest = max(busiest, n)
	}
	longest, at, sum, worst := 0.0, 0, 0.0, 0.0
	steps := viz.SuperstepImbalance(g.Job)
	for _, im := range steps {
		if im.Max > longest {
			longest, at = im.Max, im.Superstep
		}
		sum += im.Max
		if im.Mean >= 0.1 {
			worst = max(worst, im.Ratio)
		}
	}
	gb, pb := g.Breakdown, pg.Breakdown
	return []float64{
		gb.Total, gb.SetupPercent(), gb.IOPercent(), gb.ProcessingPercent(),
		pb.Total, pb.SetupPercent(), pb.IOPercent(), pb.ProcessingPercent(), pb.Total / gb.Total,
		peak(g.Job), cpuRate(g, "Startup"), cpuRate(g, "Cleanup"),
		peak(pg.Job), float64(busiest),
		longest / (sum / float64(len(steps))), worst, float64(at),
	}
}

// numericFields lists the path of every int or float field under v.
func numericFields(v reflect.Value, prefix string) []string {
	var paths []string
	for i := 0; i < v.NumField(); i++ {
		f, path := v.Field(i), prefix+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			paths = append(paths, numericFields(f, path+".")...)
		case reflect.Int, reflect.Int64, reflect.Float64:
			paths = append(paths, path)
		}
	}
	return paths
}

// field returns the settable field of cal at path.
func field(cal *calibration, path string) reflect.Value {
	f := reflect.ValueOf(cal).Elem()
	for _, name := range strings.Split(path, ".") {
		f = f.FieldByName(name)
	}
	return f
}

// nudge scales f by 1.05, rounding an int up so that every non-zero one
// moves.
func nudge(f reflect.Value) {
	if f.Kind() == reflect.Float64 {
		f.SetFloat(f.Float() * 1.05)
	} else {
		f.SetInt(int64(math.Ceil(float64(f.Int()) * 1.05)))
	}
}

// movesFigures is, for every calibration field that moves a fidelity
// target, the paper figures whose targets it moves (EXPERIMENTS.md,
// "Which constant moves which figure").
var movesFigures = map[string]string{
	"Cluster.Nodes":             "5",
	"Cluster.DiskBandwidth":     "5",
	"Cluster.NICBandwidth":      "5",
	"Cluster.SharedFSBandwidth": "5",

	"HDFS.BlockSize":   "5",
	"HDFS.Replication": "5",

	"ZooKeeper.OpLatency":      "5 6",
	"ZooKeeper.OpCPUSeconds":   "5 6",
	"ZooKeeper.ConnectLatency": "5 6",

	"Pregel.Workers":                         "5 6 8",
	"Pregel.ComputeThreads":                  "5",
	"Pregel.Costs.ParseCPUPerByte":           "5",
	"Pregel.Costs.BuildCPUPerEdge":           "5",
	"Pregel.Costs.ShuffleBytesPerEdge":       "5",
	"Pregel.Costs.ComputeCPUPerVertex":       "5 8",
	"Pregel.Costs.ComputeCPUPerMessage":      "5 8",
	"Pregel.Costs.MessageBytes":              "5",
	"Pregel.Costs.OutputBytesPerVertex":      "5",
	"Pregel.Costs.AppSubmitSeconds":          "5 6",
	"Pregel.Costs.ContainerAllocSeconds":     "5 6",
	"Pregel.Costs.ContainerLaunchSeconds":    "5 6",
	"Pregel.Costs.ContainerLaunchCPUSeconds": "5 6",
	"Pregel.Costs.AppReleaseSeconds":         "5 6",
	"Pregel.Costs.WorkerShutdownSeconds":     "5 6",
	"Pregel.Costs.ClientCleanupSeconds":      "5 6",
	"Pregel.Costs.ServerCleanupSeconds":      "5 6",
	"Pregel.Costs.ZkCleanupSeconds":          "5 6",

	"MPI.SpawnLatency":    "5",
	"MPI.FinalizeLatency": "5",

	"GAS.Machines":                     "5 7",
	"GAS.LoadThreads":                  "5",
	"GAS.ComputeThreads":               "5 7",
	"GAS.Costs.ParseCPUPerByte":        "5",
	"GAS.Costs.DistributeBytesPerEdge": "5",
	"GAS.Costs.FinalizeCPUPerEdge":     "5",
	"GAS.Costs.FinalizeCPUPerReplica":  "5",
	"GAS.Costs.GatherCPUPerEdge":       "5",
	"GAS.Costs.ApplyCPUPerVertex":      "5",
	"GAS.Costs.ScatterCPUPerEdge":      "5",
	"GAS.Costs.PartialBytes":           "5",
	"GAS.Costs.SyncBytes":              "5",
	"GAS.Costs.ResultBytesPerVertex":   "5",
}

// movesNothing names, with its reason, every calibration field that
// moves no fidelity target: a +5 % nudge is not how it matters.
var movesNothing = map[string]string{
	"Cluster.CoresPerNode":  "a capacity no deployment fills past: Giraph's 24 parse threads use 24 cores, more sit idle",
	"Cluster.NodeNameStart": "a label: node names only",
	"Pregel.ParseThreads":   "bounded by the node's 24 cores: a 25th thread finds none",
	"Pregel.MaxSupersteps":  "a cap: BFS halts first",
	"GAS.MaxIterations":     "a cap: BFS halts first",
	"GAS.ChunkBytes":        "the sequential loader's read granularity: how many ReadEdgeFile/ParseEdges/DistributeEdges operations it records, not their sum",
	"GAS.CutStrategy":       "an enum (hash = 0): the vertex-cut ablation row",

	"Pregel.CheckpointInterval":             "the checkpointing ablation row; off (0) in the paper's deployment",
	"Pregel.FailWorker":                     "the checkpointing ablation row's failure injection",
	"Pregel.FailAtSuperstep":                "the checkpointing ablation row's failure injection",
	"Pregel.Costs.CheckpointBytesPerVertex": "prices the checkpointing ablation row only",
	"Pregel.Costs.RecoveryDetectSeconds":    "prices the checkpointing ablation row only",

	"Pregel.WorkScale":       "set from the Spec by run",
	"Pregel.HostParallelism": "set from the Spec by run",
	"GAS.WorkScale":          "set from the Spec by run",
	"GAS.HostParallelism":    "set from the Spec by run",
}

// movedBy is the smallest relative change of a target counted as a move:
// an elasticity of 0.002. A recomputed sum moves in its last bits
// (1e-16); the constants deleted as near-zero moved no target by more
// than 6e-5.
const movedBy = 1e-4

// TestCalibrationElasticity nudges every numeric field of the paper
// calibration by +5 %, reruns only the platforms that field feeds, and
// checks which paper figures' fidelity targets move against
// movesFigures, or that none moves for a field movesNothing names.
// OpenG's config (Single) feeds no paper figure and is not nudged.
func TestCalibrationElasticity(t *testing.T) {
	ds, err := datagen.Generate(datagen.DG1000Shaped(42))
	if err != nil {
		t.Fatal(err)
	}
	spec := func(platform string) Spec {
		return Spec{Platform: platform, Algorithm: "BFS", Dataset: ds, Source: datagen.PeripheralSource(ds.Graph)}
	}
	runWith := func(t *testing.T, platform string, cal calibration) *Output {
		out, err := run(context.Background(), spec(platform), cal)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := paperCalibration(spec("Giraph"))
	g0, pg0 := runWith(t, "Giraph", base), runWith(t, "PowerGraph", base)
	want := measureTargets(g0, pg0)
	for _, path := range numericFields(reflect.ValueOf(base), "") {
		feeds := strings.Split(path, ".")[0]
		if feeds == "Single" {
			continue
		}
		figures, moves := movesFigures[path]
		reason, stays := movesNothing[path]
		if moves == stays {
			t.Errorf("%s: name it in exactly one of movesFigures and movesNothing", path)
			continue
		}
		cal := base
		f := field(&cal, path)
		if f.IsZero() {
			if moves {
				t.Errorf("%s is zero, so a nudge moves nothing", path)
			}
			continue
		}
		nudge(f)
		t.Run(path, func(t *testing.T) {
			t.Parallel()
			g, pg := g0, pg0
			if feeds != "MPI" && feeds != "GAS" {
				g = runWith(t, "Giraph", cal)
			}
			if feeds != "HDFS" && feeds != "ZooKeeper" && feeds != "Pregel" {
				pg = runWith(t, "PowerGraph", cal)
			}
			got := measureTargets(g, pg)
			var moved, seen []string
			for i, tg := range fidelityTargets {
				if math.Abs(got[i]-want[i]) > movedBy*math.Abs(want[i]) {
					moved = append(moved, fmt.Sprintf("%s %+.3g%%", tg.name, 100*(got[i]-want[i])/want[i]))
					// Targets are in figure order.
					if fig := strconv.Itoa(tg.figure); len(seen) == 0 || seen[len(seen)-1] != fig {
						seen = append(seen, fig)
					}
				}
			}
			t.Logf("moves %s", strings.Join(moved, ", "))
			switch {
			case stays && len(moved) > 0:
				t.Errorf("named as moving nothing (%s), but moves %s", reason, strings.Join(moved, ", "))
			case moves && strings.Join(seen, " ") != figures:
				t.Errorf("moves Figure(s) %q, want %q: %s", strings.Join(seen, " "), figures, strings.Join(moved, ", "))
			}
		})
	}
}
