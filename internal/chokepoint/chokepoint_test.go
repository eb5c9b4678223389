package chokepoint

import (
	"math"
	"strings"
	"testing"

	"repro/internal/archive"
)

// buildJob constructs a job with a known blocking structure:
//
//	Job [0,20]
//	├── Startup [0,4]                      (leaf, idle)
//	├── LoadGraph [4,10]
//	│   ├── LocalLoad w0 [4,9]
//	│   └── LocalLoad w1 [4,10]            (straggler: blocks 4..10)
//	├── ProcessGraph [10,18]
//	│   ├── Superstep [10,14]
//	│   │   ├── Local w0 [10,12]
//	│   │   └── Local w1 [10,14]           (straggler)
//	│   └── Superstep [14,18]
//	│       ├── Local w0 [14,18]           (straggler)
//	│       └── Local w1 [14,15]
//	└── Cleanup [18,20]
func buildJob() *archive.Job {
	j := &archive.Job{
		ID: "cp", Platform: "Giraph",
		Root: &archive.Operation{
			ID: "r", Mission: "GiraphJob", Start: 0, End: 20,
			Children: []*archive.Operation{
				{ID: "s", Mission: "Startup", Start: 0, End: 4},
				{ID: "l", Mission: "LoadGraph", Start: 4, End: 10, Children: []*archive.Operation{
					{ID: "l0", Mission: "LocalLoad", Actor: "W-0", Start: 4, End: 9},
					{ID: "l1", Mission: "LocalLoad", Actor: "W-1", Start: 4, End: 10},
				}},
				{ID: "p", Mission: "ProcessGraph", Start: 10, End: 18, Children: []*archive.Operation{
					{ID: "ss0", Mission: "Superstep", Start: 10, End: 14, Children: []*archive.Operation{
						{ID: "c00", Mission: "Local", Actor: "W-0", Start: 10, End: 12},
						{ID: "c01", Mission: "Local", Actor: "W-1", Start: 10, End: 14},
					}},
					{ID: "ss1", Mission: "Superstep", Start: 14, End: 18, Children: []*archive.Operation{
						{ID: "c10", Mission: "Local", Actor: "W-0", Start: 14, End: 18},
						{ID: "c11", Mission: "Local", Actor: "W-1", Start: 14, End: 15},
					}},
				}},
				{ID: "c", Mission: "Cleanup", Start: 18, End: 20},
			},
		},
		EnvSamples: []archive.EnvSample{
			// Samples cover 2-second intervals. Startup idle; LoadGraph
			// busy (16 cpu-s per 2 s = 8 of 8 capacity); Process half.
			{Time: 2, Node: "n0", Kind: "cpu", Used: 0},
			{Time: 6, Node: "n0", Kind: "cpu", Used: 16}, {Time: 8, Node: "n0", Kind: "cpu", Used: 16}, {Time: 10, Node: "n0", Kind: "cpu", Used: 16},
			{Time: 12, Node: "n0", Kind: "cpu", Used: 8}, {Time: 14, Node: "n0", Kind: "cpu", Used: 8},
			{Time: 16, Node: "n0", Kind: "cpu", Used: 8}, {Time: 18, Node: "n0", Kind: "cpu", Used: 8},
			{Time: 20, Node: "n0", Kind: "cpu", Used: 0},
		},
	}
	return j
}

func TestBlockingChainCoversMakespan(t *testing.T) {
	job := buildJob()
	r, err := Analyze(job, Options{CPUCapacity: 8, SampleInterval: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	last := 0.0
	for _, seg := range r.Chain {
		if seg.Start < last-1e-9 {
			t.Fatalf("chain overlaps at %v", seg.Start)
		}
		if seg.duration() < 0 {
			t.Fatalf("negative segment %+v", seg)
		}
		last = seg.End
		total += seg.duration()
	}
	if math.Abs(total-20) > 1e-9 {
		t.Fatalf("chain covers %.2fs, want 20", total)
	}
}

func TestBlockingChainPicksStragglers(t *testing.T) {
	job := buildJob()
	r, err := Analyze(job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Expected blockers: Startup(0-4), LocalLoad w1 (4-10), Local w1
	// (10-14), Local w0 (14-18), Cleanup (18-20).
	wantIDs := []string{"s", "l1", "c01", "c10", "c"}
	if len(r.Chain) != len(wantIDs) {
		t.Fatalf("chain = %d segments, want %d: %+v", len(r.Chain), len(wantIDs), r.Chain)
	}
	for i, want := range wantIDs {
		if r.Chain[i].Op.ID != want {
			t.Fatalf("segment %d is %s, want %s", i, r.Chain[i].Op.ID, want)
		}
	}
}

func TestMissionSharesSorted(t *testing.T) {
	job := buildJob()
	r, err := Analyze(job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Local blocks 8s, LocalLoad 6s, Startup 4s, Cleanup 2s.
	if r.ByMission[0].Mission != "Local" || math.Abs(r.ByMission[0].Seconds-8) > 1e-9 {
		t.Fatalf("top mission = %+v", r.ByMission[0])
	}
	sum := 0.0
	for _, s := range r.ByMission {
		sum += s.Percent
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Fatalf("percentages sum to %v", sum)
	}
}

func TestImbalanceDetected(t *testing.T) {
	job := buildJob()
	r, err := Analyze(job, Options{ImbalanceThreshold: 1.2, MinImpactSeconds: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var found *Finding
	for i := range r.Findings {
		if r.Findings[i].Kind == kindImbalance && r.Findings[i].Mission == "Local" {
			found = &r.Findings[i]
		}
	}
	if found == nil {
		t.Fatalf("no imbalance finding for Local: %+v", r.Findings)
	}
	// Superstep 0: max 4, mean 3 -> +1s. Superstep 1: max 4, mean 2.5 -> +1.5s.
	if math.Abs(found.ImpactSeconds-2.5) > 1e-9 {
		t.Fatalf("imbalance impact = %v, want 2.5", found.ImpactSeconds)
	}
}

func TestResourceClassification(t *testing.T) {
	job := buildJob()
	r, err := Analyze(job, Options{CPUCapacity: 8, SampleInterval: 2, MinImpactSeconds: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]Kind{}
	for _, f := range r.Findings {
		if f.Kind == kindIdle || f.Kind == kindSaturation {
			kinds[f.Mission] = f.Kind
		}
	}
	if kinds["Startup"] != kindIdle {
		t.Fatalf("Startup classified %v, want idle", kinds["Startup"])
	}
	if kinds["LoadGraph"] != kindSaturation {
		t.Fatalf("LoadGraph classified %v, want saturated", kinds["LoadGraph"])
	}
	if _, ok := kinds["ProcessGraph"]; ok {
		t.Fatal("half-busy ProcessGraph should not be classified")
	}
}

func TestFindingsRankedAndFiltered(t *testing.T) {
	job := buildJob()
	r, err := Analyze(job, Options{CPUCapacity: 8, MinImpactSeconds: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(r.Findings); i++ {
		if r.Findings[i].ImpactSeconds > r.Findings[i-1].ImpactSeconds {
			t.Fatal("findings not ranked by impact")
		}
	}
	for _, f := range r.Findings {
		if f.ImpactSeconds < 3 {
			t.Fatalf("finding below threshold kept: %+v", f)
		}
	}
}

func TestRenderMentionsEverything(t *testing.T) {
	job := buildJob()
	r, err := Analyze(job, Options{CPUCapacity: 8, MinImpactSeconds: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, want := range []string{"Choke-point analysis", "Blocking-chain", "Ranked choke-points", "LoadGraph"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(&archive.Job{ID: "x"}, Options{}); err == nil {
		t.Fatal("expected error for empty job")
	}
}

func TestSelfTimeAttribution(t *testing.T) {
	// A parent with a gap between children: the gap is the parent's own
	// blocking time.
	job := &archive.Job{
		ID: "gap",
		Root: &archive.Operation{
			ID: "r", Mission: "Job", Start: 0, End: 10,
			Children: []*archive.Operation{
				{ID: "a", Mission: "A", Start: 0, End: 3},
				{ID: "b", Mission: "B", Start: 7, End: 10},
			},
		},
	}
	r, err := Analyze(job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var selfTime float64
	for _, seg := range r.Chain {
		if seg.Op.ID == "r" {
			selfTime += seg.duration()
		}
	}
	if math.Abs(selfTime-4) > 1e-9 {
		t.Fatalf("self time = %v, want 4 (the 3..7 gap)", selfTime)
	}
}
