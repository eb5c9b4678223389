package metrics

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/archive"
)

// testJob mirrors the archive package's test fixture with infos and env
// samples arranged for rule testing.
func testJob() *archive.Job {
	j := &archive.Job{
		ID: "j", Platform: "Giraph",
		Root: &archive.Operation{
			ID: "r", Mission: "GiraphJob", Actor: "GiraphClient", Start: 0, End: 10,
			Children: []*archive.Operation{
				{ID: "s", Mission: "Startup", Start: 0, End: 2},
				{ID: "l", Mission: "LoadGraph", Start: 2, End: 5, Children: []*archive.Operation{
					{ID: "lh", Mission: "LoadHdfsData", Start: 2, End: 4,
						Infos: map[string]string{"BytesRead": "800"}},
				}},
				{ID: "p", Mission: "ProcessGraph", Start: 5, End: 9, Children: []*archive.Operation{
					{ID: "ss1", Mission: "Superstep", Start: 5, End: 7, Children: []*archive.Operation{
						{ID: "w1", Mission: "LocalSuperstep", Actor: "GiraphWorker-0", Start: 5, End: 7,
							Infos: map[string]string{"Vertices": "10"}},
						{ID: "w2", Mission: "LocalSuperstep", Actor: "GiraphWorker-1", Start: 5, End: 6.5,
							Infos: map[string]string{"Vertices": "30"}},
					}},
					{ID: "ss2", Mission: "Superstep", Start: 7, End: 9},
				}},
				{ID: "o", Mission: "OffloadGraph", Start: 9, End: 9.5},
				{ID: "c", Mission: "Cleanup", Start: 9.5, End: 10},
			},
		},
		EnvSamples: []archive.EnvSample{
			{Time: 1, Node: "n0", Kind: "cpu", Used: 2},
			{Time: 3, Node: "n0", Kind: "cpu", Used: 4},
			{Time: 6, Node: "n0", Kind: "cpu", Used: 8},
			{Time: 6, Node: "n1", Kind: "cpu", Used: 1},
		},
	}
	return j
}

func getDerived(t *testing.T, op *archive.Operation, key string) float64 {
	t.Helper()
	raw, ok := op.Derived[key]
	if !ok {
		t.Fatalf("derived %q missing on %s (have %v)", key, op.Mission, op.Derived)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		t.Fatalf("derived %q = %q not a number", key, raw)
	}
	return v
}

func TestStandardRulesAnnotate(t *testing.T) {
	j := testJob()
	StandardRules().Apply(j)

	if got := getDerived(t, j.Root, "Duration"); got != 10 {
		t.Fatalf("Duration = %v", got)
	}
	load := j.Root.Children[1]
	if got := getDerived(t, load, "PercentOfJob"); got != 30 {
		t.Fatalf("PercentOfJob = %v", got)
	}
	proc := j.Root.Children[2]
	if got := getDerived(t, proc, "Supersteps"); got != 2 {
		t.Fatalf("Supersteps = %v", got)
	}
	ss1 := proc.Children[0]
	if got := getDerived(t, ss1, "Workers"); got != 2 {
		t.Fatalf("Workers = %v", got)
	}
	hdfs := load.Children[0]
	if got := getDerived(t, hdfs, "ReadThroughput"); got != 400 {
		t.Fatalf("ReadThroughput = %v, want 800B/2s", got)
	}
}

func TestCPUDuringAttributesSamples(t *testing.T) {
	j := testJob()
	StandardRules().Apply(j)
	// Startup [0,2] gets the t=1 sample (2 cpu-s).
	if got := getDerived(t, j.Root.Children[0], "CPUSeconds"); got != 2 {
		t.Fatalf("Startup CPUSeconds = %v", got)
	}
	// LoadGraph [2,5] gets the t=3 sample (4 cpu-s); the boundary sample
	// at t=2 belongs to Startup's interval via (start, end].
	if got := getDerived(t, j.Root.Children[1], "CPUSeconds"); got != 4 {
		t.Fatalf("LoadGraph CPUSeconds = %v", got)
	}
	// ProcessGraph [5,9] gets both t=6 samples (8+1).
	if got := getDerived(t, j.Root.Children[2], "CPUSeconds"); got != 9 {
		t.Fatalf("ProcessGraph CPUSeconds = %v", got)
	}
	// Root gets everything.
	if got := getDerived(t, j.Root, "CPUSeconds"); got != 15 {
		t.Fatalf("root CPUSeconds = %v", got)
	}
}

func TestChildSumRule(t *testing.T) {
	j := testJob()
	rs := &RuleSet{PerMission: map[string][]Rule{
		"Superstep": {childSum{Key: "TotalVertices", Mission: "LocalSuperstep", Info: "Vertices"}},
	}}
	rs.Apply(j)
	ss1 := j.Root.Children[2].Children[0]
	if got := getDerived(t, ss1, "TotalVertices"); got != 40 {
		t.Fatalf("TotalVertices = %v", got)
	}
	// Superstep without local infos must not get the key.
	ss2 := j.Root.Children[2].Children[1]
	if _, ok := ss2.Derived["TotalVertices"]; ok {
		t.Fatal("rule applied despite no matching children")
	}
}

func TestChildCountZeroDoesNotAnnotate(t *testing.T) {
	j := testJob()
	rs := &RuleSet{PerMission: map[string][]Rule{
		"Startup": {childCount{Key: "Anything", Mission: "Nothing"}},
	}}
	rs.Apply(j)
	if _, ok := j.Root.Children[0].Derived["Anything"]; ok {
		t.Fatal("zero count should not annotate")
	}
}

func TestInfoRateSkipsBadInputs(t *testing.T) {
	op := &archive.Operation{ID: "x", Start: 0, End: 0, Infos: map[string]string{"B": "10"}}
	if _, ok := (infoRate{Key: "R", Info: "B"}).Derive(op, nil); ok {
		t.Fatal("zero-duration rate should not apply")
	}
	op2 := &archive.Operation{ID: "y", Start: 0, End: 1, Infos: map[string]string{"B": "abc"}}
	if _, ok := (infoRate{Key: "R", Info: "B"}).Derive(op2, nil); ok {
		t.Fatal("non-numeric rate should not apply")
	}
}

func TestAnnotateDomainBreakdown(t *testing.T) {
	j := testJob()
	b, err := AnnotateDomainBreakdown(j)
	if err != nil {
		t.Fatal(err)
	}
	if b.Total != 10 {
		t.Fatalf("total = %v", b.Total)
	}
	if got := getDerived(t, j.Root, "SetupSeconds"); got != 2.5 {
		t.Fatalf("SetupSeconds = %v", got)
	}
	if got := getDerived(t, j.Root, "IOSeconds"); got != 3.5 {
		t.Fatalf("IOSeconds = %v", got)
	}
	if got := getDerived(t, j.Root, "ProcessingSeconds"); got != 4 {
		t.Fatalf("ProcessingSeconds = %v", got)
	}
	pcts := getDerived(t, j.Root, "SetupPercent") +
		getDerived(t, j.Root, "IOPercent") +
		getDerived(t, j.Root, "ProcessingPercent")
	if math.Abs(pcts-100) > 1e-9 {
		t.Fatalf("percentages sum to %v", pcts)
	}
}

func TestApplyOnEmptyJobIsSafe(t *testing.T) {
	StandardRules().Apply(&archive.Job{ID: "empty"})
}
