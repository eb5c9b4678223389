package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/archivedb"
)

// durableServer is one "process incarnation" of granula-serve over a
// data directory: DB, store, executor, HTTP server.
type durableServer struct {
	db   *archivedb.DB
	exec *Executor
	srv  *httptest.Server
}

func startDurableServer(t *testing.T, dir string) *durableServer {
	t.Helper()
	db, err := archivedb.Open(dir, archivedb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStoreWithOptions(db, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutorWith(2, 16, store, nil, ExecutorOptions{})
	srv := NewServerWith(exec, store, nil, ServerOptions{})
	return &durableServer{db: db, exec: exec, srv: httptest.NewServer(srv.Handler())}
}

// stop shuts the incarnation down the way a real restart would: drain
// the executor, close the HTTP listener, close the DB.
func (ds *durableServer) stop(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ds.exec.Shutdown(ctx)
	ds.srv.Close()
	if err := ds.db.Close(); err != nil {
		t.Fatal(err)
	}
}

func (ds *durableServer) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get(ds.srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
	}
	return body
}

// submitAndWait submits a job over HTTP and polls until it is done.
func (ds *durableServer) submitAndWait(t *testing.T, req JobRequest) string {
	t.Helper()
	buf, _ := json.Marshal(req)
	resp, err := http.Post(ds.srv.URL+"/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st JobState
		if err := json.Unmarshal(ds.get(t, "/jobs/"+sub.ID), &st); err != nil {
			t.Fatal(err)
		}
		switch st.Status {
		case StatusDone:
			return sub.ID
		case StatusFailed:
			t.Fatalf("job %s failed: %s", sub.ID, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", sub.ID)
	return ""
}

// TestRestartDurability is the PR's acceptance test: submit jobs via
// the HTTP API, stop the server, reopen against the same -data-dir,
// and require /archive and /query responses byte-identical to the
// pre-restart ones.
func TestRestartDurability(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s1 := startDurableServer(t, dir)

	reqs := []JobRequest{
		{Platform: "Giraph", Algorithm: "PageRank", Vertices: 300, Edges: 1200},
		{Platform: "PowerGraph", Algorithm: "BFS", Vertices: 300, Edges: 1200},
		{Platform: "OpenG", Algorithm: "WCC", Vertices: 300, Edges: 1200},
	}
	var ids []string
	for _, r := range reqs {
		ids = append(ids, s1.submitAndWait(t, r))
	}

	paths := func(id string) []string {
		return []string{
			"/jobs/" + id + "/archive",
			"/jobs/" + id + "/query?mission=ProcessGraph",
			"/jobs/" + id + "/query?q=duration+%3E+0+order+by+duration+desc+limit+10",
			"/jobs/" + id + "/query?actor=Master",
		}
	}
	before := map[string][]byte{}
	for _, id := range ids {
		for _, p := range paths(id) {
			before[p] = s1.get(t, p)
		}
	}
	s1.stop(t)

	s2 := startDurableServer(t, dir)
	defer s2.stop(t)
	for _, id := range ids {
		for _, p := range paths(id) {
			after := s2.get(t, p)
			if !bytes.Equal(before[p], after) {
				t.Fatalf("restart changed %s:\nbefore: %d bytes\nafter:  %d bytes", p, len(before[p]), len(after))
			}
		}
	}
	// /healthz must report the restored archives.
	var health healthResponse
	if err := json.Unmarshal(s2.get(t, "/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if health.StoreJobs != len(ids) {
		t.Fatalf("restored store has %d jobs, want %d", health.StoreJobs, len(ids))
	}
	// /metrics must expose the storage family when durable.
	metrics := string(s2.get(t, "/metrics"))
	for _, want := range []string{"granula_storage_segments", "granula_storage_live_jobs", "granula_storage_wal_bytes"} {
		if !bytes.Contains([]byte(metrics), []byte(want)) {
			t.Fatalf("/metrics missing %s:\n%s", want, metrics)
		}
	}
}

// TestRestartDurabilityTornTail extends the acceptance test: after the
// server stops, the WAL tail is torn (truncated mid-record) and the
// snapshot removed, as a crash would leave them. Reopening must restore
// every fully-written job and serve its archive byte-identically.
func TestRestartDurabilityTornTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s1 := startDurableServer(t, dir)
	id := s1.submitAndWait(t, JobRequest{Platform: "Giraph", Algorithm: "BFS", Vertices: 300, Edges: 1200})
	archiveBefore := s1.get(t, "/jobs/"+id+"/archive")
	s1.stop(t)

	// Tear the tail: append a partial frame (a plausible length prefix
	// with too few bytes behind it) to the newest segment, and corrupt
	// the snapshot so recovery exercises the full replay + truncation
	// path.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x00, 0x00, 0x00, 0xAB}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := startDurableServer(t, dir)
	defer s2.stop(t)
	archiveAfter := s2.get(t, "/jobs/"+id+"/archive")
	if !bytes.Equal(archiveBefore, archiveAfter) {
		t.Fatal("archive changed across a torn-tail recovery")
	}
	stats := s2.db.Stats()
	if stats.TruncatedBytes == 0 {
		t.Fatalf("recovery did not truncate the torn tail: %+v", stats)
	}
	if !stats.SnapshotDiscarded {
		t.Fatalf("corrupt snapshot was not discarded: %+v", stats)
	}
}

// TestPersistFailureFailsJob verifies the ack contract end to end: if
// the archive cannot be persisted, the job must report failed, not
// done.
func TestPersistFailureFailsJob(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	db, err := archivedb.Open(dir, archivedb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStoreWithOptions(db, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutorWith(1, 4, store, nil, ExecutorOptions{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		exec.Shutdown(ctx)
	}()
	// Close the DB out from under the store: the next Put must error.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	id, err := exec.submit(JobRequest{Platform: "Giraph", Algorithm: "BFS", Vertices: 200, Edges: 800})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := exec.jobState(id)
		if !ok {
			t.Fatal("job vanished")
		}
		if st.Status == StatusFailed {
			if st.Error == "" {
				t.Fatal("failed job has no error")
			}
			return
		}
		if st.Status == StatusDone {
			t.Fatal("job acked done although its archive could not be persisted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not reach a terminal state")
}

// TestStoreWithNilDB covers the -data-dir="" degradation.
func TestStoreWithNilDB(t *testing.T) {
	s, err := NewStoreWithOptions(nil, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.db != nil || s.storageStats() != nil {
		t.Fatal("nil-db store reports storage")
	}
	m := NewMetrics()
	exec := NewExecutorWith(1, 1, s, m, ExecutorOptions{})
	defer exec.Shutdown(context.Background())
	NewServerWith(exec, s, m, ServerOptions{})
	var buf bytes.Buffer
	m.reg.Write(&buf)
	if bytes.Contains(buf.Bytes(), []byte("granula_storage_")) {
		t.Fatalf("in-memory metrics leak storage family:\n%s", buf.String())
	}
}
