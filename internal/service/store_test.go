package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/archivedb"
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

// tempStore opens a store over a fresh no-sync database in a test
// temp dir; both close when the test ends.
func tempStore(t testing.TB) *Store {
	t.Helper()
	db, err := archivedb.Open(t.TempDir(), archivedb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s, err := NewStoreWithOptions(db, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestStoreNeedsDatabase: a store is always written through to a
// database; there is no in-memory store to fall back to.
func TestStoreNeedsDatabase(t *testing.T) {
	if s, err := NewStoreWithOptions(nil, StoreOptions{}); err == nil || s != nil {
		t.Fatalf("NewStoreWithOptions(nil) = %v, %v; want an error", s, err)
	}
}

func TestStorePutGet(t *testing.T) {
	out := testOutput(t, "Giraph", "BFS")
	s := tempStore(t)
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

// pathKey is an operation's mission path from the root, e.g.
// "GiraphJob/ProcessGraph/Superstep" — the key ?path= matches.
func pathKey(op *archive.Operation) string {
	return strings.Join(op.Path(), "/")
}

// viewOps renders operations of a linked tree the way /query renders
// rows: the tree reference the row rendering is checked against.
func viewOps(ops []*archive.Operation) []operationView {
	out := make([]operationView, 0, len(ops))
	for _, op := range ops {
		out = append(out, operationView{
			ID: op.ID, Actor: op.Actor, Mission: op.Mission, Path: pathKey(op),
			Start: op.Start, End: op.End, Duration: op.Duration(),
			Infos: op.Infos, Derived: op.Derived,
		})
	}
	return out
}

// TestLookupMatchesTreeReference pins the ?mission=/?actor=/?path=
// lookups to the tree: for every key of real Giraph and PowerGraph
// archives the response bytes equal the tree reference (Job.FindAll,
// an actor walk, Job.Find) rendered through viewOps. The odd job adds
// keys that only exact matching gets right, and the live job the same
// lookups mid-stream, where rows are in completion order and each
// row's path is still its full path from the root.
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
	a := operationView{ID: "a", Actor: "W-0", Mission: "Step", Path: "Job/Step", Start: 1, End: 3, Duration: 2}
	b := operationView{ID: "b", Actor: "W-1", Mission: "Step", Path: "Job/Step", Start: 1.5, End: 2, Duration: 0.5}
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
	steps := sealed.tree().Find("Job", "Step")
	if len(steps) != 2 || steps[0].ID != "a" || steps[1].ID != "b" {
		t.Fatalf("sealed tree has steps %+v, want a then b", steps)
	}
	check("live", "path", "Job/Step", queryResponse{Operations: viewOps(steps)})
}

// reaches reports whether v reaches a value of a type match accepts
// through pointers, maps, slices, interfaces or struct fields.
func reaches(v reflect.Value, match func(reflect.Type) bool, seen map[uintptr]bool) bool {
	if match(v.Type()) {
		return true
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Map:
		if v.IsNil() || seen[v.Pointer()] {
			return false
		}
		seen[v.Pointer()] = true
		if v.Kind() == reflect.Pointer {
			return reaches(v.Elem(), match, seen)
		}
		for it := v.MapRange(); it.Next(); {
			if reaches(it.Key(), match, seen) || reaches(it.Value(), match, seen) {
				return true
			}
		}
	case reflect.Interface:
		return !v.IsNil() && reaches(v.Elem(), match, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if reaches(v.Field(i), match, seen) {
				return true
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if reaches(v.Index(i), match, seen) {
				return true
			}
		}
	}
	return false
}

// isTree and isEnvSample are the types a stored job must not reach: an
// archive job or operation, and a sample struct.
func isTree(t reflect.Type) bool {
	return t == reflect.TypeOf(archive.Operation{}) || t == reflect.TypeOf(archive.Job{})
}

func isEnvSample(t reflect.Type) bool { return t == reflect.TypeOf(archive.EnvSample{}) }

// TestStoreRetainsNoTree: a stored job is its columns. The tree a
// caller Puts is collected once the caller drops it, and whether a job
// enters by Put, as a replica, or from the database when the store
// reopens, nothing the store holds reaches an archive tree or an
// environment sample struct. The replica exports the bytes it was
// sent.
func TestStoreRetainsNoTree(t *testing.T) {
	requireNoTree := func(s *Store, how string) {
		t.Helper()
		s.mu.RLock()
		defer s.mu.RUnlock()
		if len(s.jobs) != 1 || reaches(reflect.ValueOf(s.jobs), isTree, map[uintptr]bool{}) {
			t.Fatalf("after %s the store holds %d jobs (want 1) or reaches an archive tree", how, len(s.jobs))
		}
		if reaches(reflect.ValueOf(s.jobs), isEnvSample, map[uintptr]bool{}) {
			t.Fatalf("after %s the store reaches an archive.EnvSample", how)
		}
	}
	dir := t.TempDir()
	db, err := archivedb.Open(dir, archivedb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStoreWithOptions(db, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	id := func() string {
		out := testOutput(t, "Giraph", "BFS")
		if len(out.Job.EnvSamples) == 0 {
			t.Fatal("the job has no environment samples")
		}
		if err := s.Put(out.Job, summarize(JobRequest{Algorithm: "BFS"}, out)); err != nil {
			t.Fatal(err)
		}
		// The runtime never finalizes an object that reaches itself, and
		// a linked root does through its children's parent links. Cutting
		// them on the caller's side leaves the root collectable unless the
		// store reaches it.
		root := out.Job.Root
		root.Children = nil
		runtime.SetFinalizer(root, func(*archive.Operation) { close(collected) })
		return out.Job.ID
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
		case <-time.After(10 * time.Millisecond):
			if time.Now().Before(deadline) {
				continue
			}
			t.Fatal("the root of the Put tree was never collected: the store keeps it")
		}
		break
	}
	requireNoTree(s, "Put")

	payload, version, _, err := s.export(id)
	if err != nil {
		t.Fatal(err)
	}
	replica := tempStore(t)
	if err := replica.applyReplica(id, version, payload); err != nil {
		t.Fatal(err)
	}
	requireNoTree(replica, "applyReplica")
	if exported, _, _, err := replica.export(id); err != nil || !bytes.Equal(exported, payload) {
		t.Fatalf("the replica exports other bytes than it was sent (%v)", err)
	}

	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = archivedb.Open(dir, archivedb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	reopened, err := NewStoreWithOptions(db, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	requireNoTree(reopened, "a reopen")
}

func TestStoreIDsSortedAndArchive(t *testing.T) {
	g := testOutput(t, "Giraph", "BFS")
	pg := testOutput(t, "PowerGraph", "BFS")
	s := tempStore(t)
	s.Put(pg.Job, summarize(JobRequest{Algorithm: "BFS"}, pg))
	s.Put(g.Job, summarize(JobRequest{Algorithm: "BFS"}, g))

	ids := s.ids()
	if len(ids) != 2 || !sort.StringsAreSorted(ids) {
		t.Fatalf("IDs = %v, want both jobs sorted", ids)
	}
}

// drainedHeap reads the heap statistics after two collections: the
// first moves what sync.Pools hold into their victim caches, the second
// frees it. After one, an encoder pooled by encodeRecord still holds its
// record at one reading and not at the next, and the race runtime drops
// pooled items at random, so that difference would come and go.
func drainedHeap(m *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(m)
}

// TestStoredJobBytes gates the resident size of a stored job. Each job
// of out/archive.json is decoded from its record and indexed 20 times,
// as a reopen does, and the copies are read as HeapAlloc, with pools
// drained by drainedHeap; the ceilings are about 1.25 times the
// measured bytes per copy. A stored
// job holds its operations and its environment samples as columns, so
// neither an operation tree nor one struct per sample counts here.
func TestStoredJobBytes(t *testing.T) {
	// Measured with go1.24 on linux/amd64: 183 and 231 KB (187 and
	// 235 KB under -race).
	ceilings := map[string]int64{"giraph-bfs-dg1000": 229 << 10, "powergraph-bfs-dg1000": 289 << 10}
	jobs, sums := paperJobs(t)
	for i, job := range jobs {
		payload, err := encodeRecord(sums[i], job, 1)
		if err != nil {
			t.Fatal(err)
		}
		const copies = 20
		held := make([]*storedJob, copies)
		var before, after runtime.MemStats
		drainedHeap(&before)
		for c := range held {
			j, sum, version, err := decodeRecord(payload)
			if err != nil {
				t.Fatal(err)
			}
			held[c] = indexJob(j.ID, j, sum, version)
		}
		drainedHeap(&after)
		runtime.KeepAlive(held)
		perJob := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / copies
		t.Logf("%s: %d samples, %d KB per stored job (ceiling %d KB)",
			job.ID, len(job.EnvSamples), perJob>>10, ceilings[job.ID]>>10)
		if ceiling, ok := ceilings[job.ID]; !ok || perJob > ceiling {
			t.Errorf("%s: a stored job holds %d KB, ceiling %d KB", job.ID, perJob>>10, ceiling>>10)
		}
	}
}
