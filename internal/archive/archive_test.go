package archive

import (
	"bytes"
	"strings"
	"testing"
)

// testJob builds a small two-level job:
//
//	Job [0,10]
//	├── Startup [0,2]
//	├── LoadGraph [2,5] (Bytes=100)
//	├── ProcessGraph [5,9]
//	│   ├── Superstep [5,7]
//	│   └── Superstep [7,9]
//	└── Cleanup [9,10]
func testJob() *Job {
	j := &Job{
		ID:       "j1",
		Platform: "Giraph",
		Root: &Operation{
			ID: "op-1", Mission: "GiraphJob", Actor: "Client", Start: 0, End: 10,
			Children: []*Operation{
				{ID: "op-2", Mission: "Startup", Start: 0, End: 2},
				{ID: "op-3", Mission: "LoadGraph", Start: 2, End: 5, Infos: map[string]string{"Bytes": "100"}},
				{ID: "op-4", Mission: "ProcessGraph", Start: 5, End: 9, Children: []*Operation{
					{ID: "op-5", Mission: "Superstep", Start: 5, End: 7},
					{ID: "op-6", Mission: "Superstep", Start: 7, End: 9},
				}},
				{ID: "op-7", Mission: "Cleanup", Start: 9, End: 10},
			},
		},
		EnvSamples: []EnvSample{
			{Time: 1, Node: "n0", Kind: "cpu", Used: 0.5},
			{Time: 2, Node: "n0", Kind: "cpu", Used: 1.5},
		},
	}
	j.Root.link(nil)
	return j
}

func TestOperationBasics(t *testing.T) {
	j := testJob()
	if got := j.Root.Duration(); got != 10 {
		t.Fatalf("Duration = %v", got)
	}
	load := j.Root.Children[1]
	if v, ok := load.Infos["Bytes"]; !ok || v != "100" {
		t.Fatalf("Info = %q,%v", v, ok)
	}
	if _, ok := load.Infos["Missing"]; ok {
		t.Fatal("missing info reported present")
	}
	load.SetDerived("Rate", "33")
	if load.Derived["Rate"] != "33" {
		t.Fatal("SetDerived failed")
	}
}

func TestParentAndPath(t *testing.T) {
	j := testJob()
	step := j.Root.Children[2].Children[0]
	if step.parent == nil || step.parent.Mission != "ProcessGraph" {
		t.Fatalf("parent = %v", step.parent)
	}
	path := step.Path()
	want := []string{"GiraphJob", "ProcessGraph", "Superstep"}
	if len(path) != 3 {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestFind(t *testing.T) {
	j := testJob()
	steps := j.Find("GiraphJob", "ProcessGraph", "Superstep")
	if len(steps) != 2 {
		t.Fatalf("Find returned %d ops", len(steps))
	}
	if got := j.Find("WrongRoot"); got != nil {
		t.Fatalf("Find(WrongRoot) = %v", got)
	}
	if got := j.Find("GiraphJob", "Nope"); len(got) != 0 {
		t.Fatalf("Find missing mission = %v", got)
	}
	if got := j.Find(); got != nil {
		t.Fatalf("Find() = %v", got)
	}
}

func TestFindAllAndWalk(t *testing.T) {
	j := testJob()
	if got := j.FindAll("Superstep"); len(got) != 2 {
		t.Fatalf("FindAll = %d", len(got))
	}
	count := 0
	j.Root.Walk(func(*Operation) { count++ })
	if count != 7 {
		t.Fatalf("walked %d ops, want 7", count)
	}
}

func TestValidateCatchesBadTrees(t *testing.T) {
	good := testJob()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	noRoot := &Job{ID: "x"}
	if err := noRoot.Validate(); err == nil {
		t.Fatal("expected error for missing root")
	}
	inverted := &Job{ID: "x", Root: &Operation{ID: "a", Start: 5, End: 1}}
	if err := inverted.Validate(); err == nil {
		t.Fatal("expected error for negative interval")
	}
	outside := &Job{ID: "x", Root: &Operation{
		ID: "a", Start: 0, End: 10,
		Children: []*Operation{{ID: "b", Start: 5, End: 15}},
	}}
	if err := outside.Validate(); err == nil {
		t.Fatal("expected error for child outside parent")
	}
	dup := &Job{ID: "x", Root: &Operation{
		ID: "a", Start: 0, End: 10,
		Children: []*Operation{{ID: "a", Start: 1, End: 2}},
	}}
	if err := dup.Validate(); err == nil {
		t.Fatal("expected error for duplicate ID")
	}
	empty := &Job{ID: "x", Root: &Operation{Start: 0, End: 1}}
	if err := empty.Validate(); err == nil {
		t.Fatal("expected error for empty ID")
	}
}

func TestArchiveSaveLoadRoundTrip(t *testing.T) {
	a := New()
	a.Add(testJob())
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Jobs) != 1 {
		t.Fatalf("jobs = %d", len(loaded.Jobs))
	}
	j := loaded.Job("j1")
	if j == nil {
		t.Fatal("job j1 missing after load")
	}
	if j.Root.Duration() != 10 {
		t.Fatalf("root duration = %v", j.Root.Duration())
	}
	// Parent links restored.
	steps := j.Find("GiraphJob", "ProcessGraph", "Superstep")
	if len(steps) != 2 || steps[0].parent == nil {
		t.Fatal("links not restored after load")
	}
	if len(j.EnvSamples) != 2 {
		t.Fatalf("env samples = %d", len(j.EnvSamples))
	}
	if a.Job("missing") != nil {
		t.Fatal("lookup of missing job should be nil")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	if _, err := Load(strings.NewReader("{not json")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := Load(strings.NewReader(`{"version": 99, "jobs": []}`)); err == nil {
		t.Fatal("expected version error")
	}
	bad := `{"version": 1, "jobs": [{"id": "x", "root": {"id": "a", "start": 5, "end": 1}}]}`
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestChildrenSortedOnLink(t *testing.T) {
	j := &Job{ID: "x", Root: &Operation{
		ID: "r", Start: 0, End: 10,
		Children: []*Operation{
			{ID: "late", Start: 5, End: 6},
			{ID: "early", Start: 1, End: 2},
		},
	}}
	j.Root.link(nil)
	if j.Root.Children[0].ID != "early" {
		t.Fatalf("children not sorted by start: %v", j.Root.Children[0].ID)
	}
}
