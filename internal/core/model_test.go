package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/archive"
)

func TestBuiltinModelsValidate(t *testing.T) {
	for _, m := range []*Model{GiraphModel(), PowerGraphModel(), DomainModel("Job")} {
		if err := m.validate(); err != nil {
			t.Fatalf("%s: %v", m.Platform, err)
		}
	}
}

func TestGiraphModelHasFourLevels(t *testing.T) {
	m := GiraphModel()
	// The paper's Figure 4 has 4 abstraction levels; in tree form the
	// implementation level nests once more (Superstep → LocalSuperstep →
	// PreStep/Compute/Message/PostStep), giving depth 5.
	if d := m.MaxDepth(); d < 4 {
		t.Fatalf("depth = %d, want >= 4 (the paper's Figure 4)", d)
	}
	// The Figure 4 missions must all be present.
	have := map[string]bool{}
	for _, mission := range m.Missions() {
		have[mission] = true
	}
	for _, mission := range []string{
		"GiraphJob", "Startup", "LoadGraph", "ProcessGraph", "OffloadGraph", "Cleanup",
		"JobStartup", "LaunchWorkers", "LocalStartup", "LocalLoad", "LoadHdfsData",
		"Superstep", "LocalSuperstep", "PreStep", "Compute", "Message", "PostStep",
		"SyncZookeeper", "LocalOffload", "OffloadHdfsData",
		"JobCleanup", "AbortWorkers", "ClientCleanup", "ServerCleanup", "ZkCleanup",
	} {
		if !have[mission] {
			t.Fatalf("mission %s missing from Giraph model", mission)
		}
	}
}

func TestDomainLevelSharedAcrossModels(t *testing.T) {
	// The paper's cross-platform comparison requires identical domain
	// missions in every model.
	for _, m := range []*Model{GiraphModel(), PowerGraphModel()} {
		children := map[string]*OperationSpec{}
		for _, c := range m.Root.Children {
			children[c.Mission] = c
		}
		for _, mission := range []string{"Startup", "LoadGraph", "ProcessGraph", "OffloadGraph", "Cleanup"} {
			spec := children[mission]
			if spec == nil {
				t.Fatalf("%s: domain mission %s missing", m.Platform, mission)
			}
			if spec.Level != levelDomain {
				t.Fatalf("%s: mission %s at level %v, want domain", m.Platform, mission, spec.Level)
			}
		}
	}
}

func TestModelValidateCatchesBadModels(t *testing.T) {
	noRoot := &Model{Platform: "x"}
	if err := noRoot.validate(); err == nil {
		t.Fatal("expected error for missing root")
	}
	dup := &Model{Platform: "x", Root: &OperationSpec{
		Mission: "Job", Level: levelDomain,
		Children: []*OperationSpec{
			{Mission: "A", Level: levelSystem},
			{Mission: "A", Level: levelSystem},
		},
	}}
	if err := dup.validate(); err == nil {
		t.Fatal("expected error for duplicate sibling missions")
	}
	coarser := &Model{Platform: "x", Root: &OperationSpec{
		Mission: "Job", Level: levelSystem,
		Children: []*OperationSpec{{Mission: "A", Level: levelDomain}},
	}}
	if err := coarser.validate(); err == nil {
		t.Fatal("expected error for child at coarser level")
	}
	unnamed := &Model{Platform: "x", Root: &OperationSpec{Level: levelDomain}}
	if err := unnamed.validate(); err == nil {
		t.Fatal("expected error for unnamed mission")
	}
}

func TestMissionsSorted(t *testing.T) {
	m := GiraphModel()
	missions := m.Missions()
	for i := 1; i < len(missions); i++ {
		if missions[i-1] >= missions[i] {
			t.Fatalf("missions not sorted: %v", missions)
		}
	}
}

func TestModelFor(t *testing.T) {
	if ModelFor("Giraph") == nil || ModelFor("giraph") == nil {
		t.Fatal("Giraph model lookup failed")
	}
	if ModelFor("PowerGraph") == nil || ModelFor("powergraph") == nil {
		t.Fatal("PowerGraph model lookup failed")
	}
	if ModelFor("Hadoop") != nil {
		t.Fatal("unexpected model for Hadoop")
	}
}

func TestRenderContainsLevels(t *testing.T) {
	out := GiraphModel().Render()
	for _, want := range []string{"GiraphJob", "domain", "system", "implementation", "Superstep", "repeated", "per-actor"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// conformingJob builds a minimal job matching the Giraph model shape.
func conformingJob() *archive.Job {
	j := &archive.Job{
		ID: "j", Platform: "Giraph",
		Root: &archive.Operation{
			ID: "1", Mission: "GiraphJob", Actor: "GiraphClient", Start: 0, End: 10,
			Children: []*archive.Operation{
				{ID: "2", Mission: "Startup", Actor: "GiraphClient", Start: 0, End: 2},
				{ID: "3", Mission: "LoadGraph", Actor: "GiraphMaster", Start: 2, End: 4},
				{ID: "4", Mission: "ProcessGraph", Actor: "GiraphMaster", Start: 4, End: 8,
					Children: []*archive.Operation{
						{ID: "5", Mission: "Superstep", Actor: "GiraphMaster", Start: 4, End: 6},
						{ID: "6", Mission: "Superstep", Actor: "GiraphMaster", Start: 6, End: 8},
					}},
				{ID: "7", Mission: "OffloadGraph", Actor: "GiraphMaster", Start: 8, End: 9},
				{ID: "8", Mission: "Cleanup", Actor: "GiraphClient", Start: 9, End: 10},
			},
		},
	}
	return j
}

func TestCheckJobAcceptsConformingJob(t *testing.T) {
	errs := GiraphModel().CheckJob(conformingJob())
	if len(errs) != 0 {
		t.Fatalf("unexpected conformance errors: %v", errs)
	}
}

func TestCheckJobFlagsUnmodeledMission(t *testing.T) {
	j := conformingJob()
	j.Root.Children = append(j.Root.Children, &archive.Operation{
		ID: "9", Mission: "Mystery", Actor: "GiraphClient", Start: 9, End: 10,
	})
	errs := GiraphModel().CheckJob(j)
	if len(errs) == 0 {
		t.Fatal("expected conformance error for unmodeled mission")
	}
	found := false
	for _, e := range errs {
		if strings.Contains(e.Error(), "Mystery") {
			found = true
		}
	}
	if !found {
		t.Fatalf("errors do not mention Mystery: %v", errs)
	}
}

func TestCheckJobFlagsMissingRequiredChild(t *testing.T) {
	j := conformingJob()
	// Remove LoadGraph.
	j.Root.Children = append(j.Root.Children[:1], j.Root.Children[2:]...)
	errs := GiraphModel().CheckJob(j)
	if len(errs) == 0 {
		t.Fatal("expected conformance error for missing LoadGraph")
	}
}

func TestCheckJobFlagsWrongActor(t *testing.T) {
	j := conformingJob()
	j.Root.Children[0].Actor = "Imposter"
	errs := GiraphModel().CheckJob(j)
	if len(errs) == 0 {
		t.Fatal("expected conformance error for wrong actor")
	}
}

func TestCheckJobFlagsRepeatedNonRepeatable(t *testing.T) {
	j := conformingJob()
	j.Root.Children = append(j.Root.Children, &archive.Operation{
		ID: "10", Mission: "Cleanup", Actor: "GiraphClient", Start: 9.5, End: 10,
	})
	errs := GiraphModel().CheckJob(j)
	if len(errs) == 0 {
		t.Fatal("expected conformance error for repeated Cleanup")
	}
}

func TestCheckJobWrongRoot(t *testing.T) {
	j := conformingJob()
	j.Root.Mission = "SomethingElse"
	errs := GiraphModel().CheckJob(j)
	if len(errs) == 0 {
		t.Fatal("expected conformance error for wrong root")
	}
}

func TestLevelString(t *testing.T) {
	if levelDomain.String() != "domain" || levelSystem.String() != "system" ||
		levelImplementation.String() != "implementation" {
		t.Fatal("level names wrong")
	}
	if Level(9).String() != "level-9" {
		t.Fatal("unknown level should stringify")
	}
}

func TestDomainBreakdown(t *testing.T) {
	j := conformingJob()
	b, err := DomainBreakdown(j)
	if err != nil {
		t.Fatal(err)
	}
	if b.Total != 10 || b.Setup != 3 || b.IO != 3 || b.Processing != 4 {
		t.Fatalf("breakdown = %+v", b)
	}
	if b.SetupPercent() != 30 || b.IOPercent() != 30 || b.ProcessingPercent() != 40 {
		t.Fatalf("percentages = %v %v %v", b.SetupPercent(), b.IOPercent(), b.ProcessingPercent())
	}
	if !strings.Contains(b.String(), "total 10.00s") {
		t.Fatalf("String = %q", b.String())
	}
}

func TestDomainBreakdownErrors(t *testing.T) {
	if _, err := DomainBreakdown(&archive.Job{ID: "x"}); err == nil {
		t.Fatal("expected error for missing root")
	}
	j := conformingJob()
	j.Root.Children = j.Root.Children[:1] // drop everything after Startup
	if _, err := DomainBreakdown(j); err == nil {
		t.Fatal("expected error for missing domain operations")
	}
}

func TestCheckJobErrorsDeterministic(t *testing.T) {
	// Several missing required domain children plus several per-actor
	// repetition violations: with map-order iteration the error sequence
	// shuffled run to run; it must be stable (model order, then sorted
	// actors).
	model := &Model{
		Platform: "Det",
		Root: &OperationSpec{
			Mission: "Job", ActorType: "Client", Level: levelDomain,
			Children: []*OperationSpec{
				{Mission: "Alpha", ActorType: "M", Level: levelDomain},
				{Mission: "Beta", ActorType: "M", Level: levelDomain},
				{Mission: "Gamma", ActorType: "M", Level: levelDomain},
				{Mission: "Delta", ActorType: "M", Level: levelDomain},
				{Mission: "Work", ActorType: "W", Level: levelSystem, PerActor: true},
			},
		},
	}
	if err := model.validate(); err != nil {
		t.Fatal(err)
	}
	job := &archive.Job{
		ID: "det",
		Root: &archive.Operation{
			ID: "r", Mission: "Job", Actor: "Client", Start: 0, End: 1,
			Children: []*archive.Operation{
				{ID: "w1a", Mission: "Work", Actor: "W-1", Start: 0, End: 1},
				{ID: "w1b", Mission: "Work", Actor: "W-1", Start: 0, End: 1},
				{ID: "w2a", Mission: "Work", Actor: "W-2", Start: 0, End: 1},
				{ID: "w2b", Mission: "Work", Actor: "W-2", Start: 0, End: 1},
				{ID: "w3a", Mission: "Work", Actor: "W-3", Start: 0, End: 1},
				{ID: "w3b", Mission: "Work", Actor: "W-3", Start: 0, End: 1},
			},
		},
	}
	render := func(errs []ConformanceError) string {
		var sb strings.Builder
		for _, e := range errs {
			fmt.Fprintf(&sb, "%s|%s|%s\n", e.OpID, e.Mission, e.Problem)
		}
		return sb.String()
	}
	want := render(model.CheckJob(job))
	if want == "" {
		t.Fatal("expected conformance errors")
	}
	for i := 0; i < 50; i++ {
		if got := render(model.CheckJob(job)); got != want {
			t.Fatalf("run %d: error order changed:\n got: %s\nwant: %s", i, got, want)
		}
	}
	// Model order puts the missing Alpha..Delta first, then the per-actor
	// violations sorted by actor.
	errs := model.CheckJob(job)
	if len(errs) != 7 {
		t.Fatalf("got %d errors, want 7: %v", len(errs), errs)
	}
	wantOrder := []string{"Alpha", "Beta", "Gamma", "Delta", "W-1", "W-2", "W-3"}
	for i, frag := range wantOrder {
		if !strings.Contains(errs[i].Problem, frag) {
			t.Fatalf("error %d = %q, want mention of %q", i, errs[i].Problem, frag)
		}
	}
}
