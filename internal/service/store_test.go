package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/datagen"
	"repro/internal/platforms"
	"repro/internal/stream"
)

// testOutput runs one small real job through the pipeline so store and
// index tests exercise genuine operation trees.
func testOutput(t testing.TB, platform, algorithm string) *platforms.Output {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Kind: datagen.SocialNetwork, Vertices: 1500, Edges: 8000, Seed: 21, Directed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := platforms.Run(platforms.Spec{
		Platform:  platform,
		Algorithm: algorithm,
		Source:    datagen.PeripheralSource(ds.Graph),
		Dataset:   ds,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestStorePutGet(t *testing.T) {
	out := testOutput(t, "Giraph", "BFS")
	s := newStore()
	if s.Len() != 0 {
		t.Fatalf("new store has %d jobs", s.Len())
	}
	sum := summarize(JobRequest{Algorithm: "BFS"}, out)
	s.Put(out.Job, sum)
	if s.Len() != 1 {
		t.Fatalf("store has %d jobs, want 1", s.Len())
	}
	sj, ok := s.get(out.Job.ID)
	if !ok {
		t.Fatalf("Get(%q) missing", out.Job.ID)
	}
	if sj.Summary.Platform != "Giraph" || sj.Summary.Operations == 0 {
		t.Fatalf("bad summary: %+v", sj.Summary)
	}
	if _, ok := s.get("nope"); ok {
		t.Fatal("Get(nope) should miss")
	}
}

// TestLookupMatchesTreeReference pins the ?mission=/?actor=/?path=
// lookups to the tree: for every key of real Giraph and PowerGraph
// archives the response bytes equal the tree reference (Job.FindAll,
// an actor walk, Job.Find) rendered through viewOps. The odd job adds
// keys that only exact matching gets right, and the live job the same
// lookups mid-stream, where rows are in completion order and views have
// no parents.
func TestLookupMatchesTreeReference(t *testing.T) {
	ts, store := streamStack(t, ServerOptions{})
	check := func(jobID, selector, value string, want queryResponse) {
		t.Helper()
		want.JobID, want.Count = jobID, len(want.Operations)
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, want)
		code, got := httpGet(t, ts.URL+"/jobs/"+jobID+"/query?"+selector+"="+url.QueryEscape(value))
		if code != http.StatusOK || !bytes.Equal(got, rec.Body.Bytes()) {
			t.Fatalf("%s ?%s=%q: %d\n got %s\nwant %s", jobID, selector, value, code, got, rec.Body.Bytes())
		}
	}
	walkWhere := func(job *archive.Job, keep func(*archive.Operation) bool) []*archive.Operation {
		var out []*archive.Operation
		job.Root.Walk(func(op *archive.Operation) {
			if keep(op) {
				out = append(out, op)
			}
		})
		return out
	}

	for _, platform := range []string{"Giraph", "PowerGraph"} {
		out := testOutput(t, platform, "BFS")
		job := out.Job
		store.Put(job, summarize(JobRequest{Algorithm: "BFS"}, out))
		missions, actors, paths := map[string]bool{}, map[string]bool{}, map[string]bool{}
		job.Root.Walk(func(op *archive.Operation) {
			missions[op.Mission], actors[op.Actor], paths[pathKey(op)] = true, true, true
		})
		if len(missions) < 5 || len(actors) < 3 || len(paths) < 5 {
			t.Fatalf("%s archive too plain: %d missions, %d actors, %d paths", platform, len(missions), len(actors), len(paths))
		}
		for m := range missions {
			check(job.ID, "mission", m, queryResponse{Operations: viewOps(job.FindAll(m))})
		}
		for a := range actors {
			check(job.ID, "actor", a, queryResponse{Operations: viewOps(
				walkWhere(job, func(op *archive.Operation) bool { return op.Actor == a }))})
		}
		for p := range paths {
			check(job.ID, "path", p, queryResponse{Operations: viewOps(job.Find(strings.Split(p, "/")...))})
		}
		for _, selector := range []string{"mission", "actor", "path"} {
			check(job.ID, selector, "absent", queryResponse{Operations: []operationView{}})
		}
	}

	// "5" and "5.0" are equal to the query language's = and distinct
	// here; the path R/A/B is both the child "A/B" and the grandchild B.
	odd := &archive.Job{ID: "odd", Root: &archive.Operation{
		ID: "r", Mission: "R", Actor: "5", Start: 0, End: 9,
		Children: []*archive.Operation{
			{ID: "a", Mission: "A", Actor: "5.0", Start: 0, End: 3, Children: []*archive.Operation{
				{ID: "ab", Mission: "B", Actor: "5", Start: 1, End: 2}}},
			{ID: "a/b", Mission: "A/B", Actor: "5.0", Start: 3, End: 4},
			{ID: "five", Mission: "5", Actor: "w", Start: 4, End: 5},
			{ID: "five.0", Mission: "5.0", Actor: "w", Start: 5, End: 6},
		},
	}}
	store.Put(odd, Summary{ID: "odd"})
	fields := map[string]func(*archive.Operation) string{
		"mission": func(op *archive.Operation) string { return op.Mission },
		"actor":   func(op *archive.Operation) string { return op.Actor },
		"path":    pathKey,
	}
	for _, k := range [][2]string{
		{"mission", "5"}, {"mission", "5.0"}, {"mission", "05"}, {"actor", "5"}, {"actor", "5.0"},
		{"mission", "A/B"}, {"path", "R/A/B"}, {"path", "R/5"}, {"path", "R/5.0"}, {"path", "R/A"}, {"path", "A/B"},
	} {
		field, value := fields[k[0]], k[1]
		want := walkWhere(odd, func(op *archive.Operation) bool { return field(op) == value })
		check("odd", k[0], value, queryResponse{Operations: viewOps(want)})
	}
	if n := len(odd.Find("R", "A", "B")); n != 1 {
		t.Fatalf("Job.Find sees %d R/A/B operations; the table above expects the path key to see 2", n)
	}

	// Mid-stream: b completes before a, so completion order is b, a
	// where depth-first order is a, b; the root is still open.
	events := []stream.Event{
		{Seq: 1, Type: "start", Time: 0, Op: "r", Actor: "Client", Mission: "Job"},
		{Seq: 2, Type: "start", Time: 1, Op: "a", Parent: "r", Actor: "W-0", Mission: "Step"},
		{Seq: 3, Type: "start", Time: 1.5, Op: "b", Parent: "r", Actor: "W-1", Mission: "Step"},
		{Seq: 4, Type: "end", Time: 2, Op: "b"},
		{Seq: 5, Type: "end", Time: 3, Op: "a"},
		{Seq: 6, Type: "end", Time: 4, Op: "r"},
		{Seq: 7, Type: stream.TypeSeal, Time: 4, Platform: "Giraph", Algorithm: "BFS", State: stream.StateDone},
	}
	if code, _, body, _ := postIngest(t, ts.URL, "live", events[:5]); code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	a := operationView{ID: "a", Actor: "W-0", Mission: "Step", Path: "Step", Start: 1, End: 3, Duration: 2}
	b := operationView{ID: "b", Actor: "W-1", Mission: "Step", Path: "Step", Start: 1.5, End: 2, Duration: 0.5}
	for _, row := range []struct {
		selector, value string
		want            []operationView
	}{
		{"mission", "Step", []operationView{b, a}},
		{"path", "Job/Step", []operationView{b, a}},
		{"actor", "W-0", []operationView{a}},
		{"mission", "Job", []operationView{}},
		{"path", "Step", []operationView{}},
	} {
		check("live", row.selector, row.value, queryResponse{Operations: row.want, Live: true, LastSeq: 5})
	}
	if code, _, body, _ := postIngest(t, ts.URL, "live", events); code != http.StatusOK {
		t.Fatalf("seal: %d: %s", code, body)
	}
	// Sealed, the same lookup is depth-first again: a, b.
	sealed, _ := store.get("live")
	steps := sealed.Job.Find("Job", "Step")
	if len(steps) != 2 || steps[0].ID != "a" || steps[1].ID != "b" {
		t.Fatalf("sealed tree has steps %+v, want a then b", steps)
	}
	check("live", "path", "Job/Step", queryResponse{Operations: viewOps(steps)})
}

func TestStoreIDsSortedAndArchive(t *testing.T) {
	g := testOutput(t, "Giraph", "BFS")
	pg := testOutput(t, "PowerGraph", "BFS")
	s := newStore()
	s.Put(pg.Job, summarize(JobRequest{Algorithm: "BFS"}, pg))
	s.Put(g.Job, summarize(JobRequest{Algorithm: "BFS"}, g))

	ids := s.ids()
	if len(ids) != 2 || !sort.StringsAreSorted(ids) {
		t.Fatalf("IDs = %v, want both jobs sorted", ids)
	}
}
