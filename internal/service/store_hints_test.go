package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/shard"
)

// tinyJob is a three-operation archive, the job testdata/parent-hint
// holds as "fx".
func tinyJob(id string) (*archive.Job, Summary) {
	job := &archive.Job{ID: id, Platform: "Giraph", Root: &archive.Operation{
		ID: "r", Actor: "Client", Mission: "Job", Start: 0, End: 4,
		Children: []*archive.Operation{
			{ID: "a", Actor: "Master", Mission: "Startup", Start: 0, End: 1},
			{ID: "b", Actor: "Worker-1", Mission: "Superstep", Start: 1, End: 3, Infos: map[string]string{"Step": "0"}},
		},
	}}
	return job, Summary{ID: id, Platform: "Giraph", Algorithm: "BFS", Runtime: 4}
}

// drainTo runs a hint drainer over store until its journal is empty;
// the journal's one target, "f", is served at url.
func drainTo(t *testing.T, store *Store, url string) {
	t.Helper()
	m, err := shard.NewMap(1, []shard.Node{{ID: "p", URL: "http://127.0.0.1:1"}, {ID: "f", URL: url}}, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	dr := shard.NewDrainer(m, store, shard.DrainerOptions{Interval: 5 * time.Millisecond})
	dr.Start()
	defer dr.Close()
	for deadline := time.Now().Add(10 * time.Second); store.HintCount() > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d hints still pending", store.HintCount())
		}
	}
}

// TestHintJournalsNoRecordBytes gates what a hint costs: journaling one
// for a follower that missed a Giraph PageRank record adds a key and a
// version to the acking node's WAL, not a second copy of the record,
// and the hint type has nowhere to hold one.
func TestHintJournalsNoRecordBytes(t *testing.T) {
	typ := reflect.TypeOf(shard.HintRecord{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() != reflect.String && f.Type.Kind() != reflect.Uint64 {
			t.Errorf("HintRecord.%s is a %s: a hint names its record, it holds no bytes of it", f.Name, f.Type)
		}
	}

	primary := tempStore(t)
	rec, err := primary.put(runRequest(t, "pr", JobRequest{Platform: "Giraph", Algorithm: "PageRank"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Payload) < 400<<10 {
		t.Fatalf("the record is %d bytes, want at least 400 KiB", len(rec.Payload))
	}
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()
	m, err := shard.NewMap(1, []shard.Node{{ID: "p", URL: "http://127.0.0.1:1"}, {ID: "f", URL: down.URL}}, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := shard.NewReplicator("p", m, shard.ReplicatorOptions{Hints: primary})
	if err != nil {
		t.Fatal(err)
	}
	before := primary.db.Stats().LiveBytes
	if err := rep.ReplicateJob(context.Background(), rec.ID, rec.Version, rec.Payload); err != nil {
		t.Fatalf("W=2 with the follower down and a hint journal: %v", err)
	}
	if n := primary.HintCount(); n != 1 {
		t.Fatalf("%d hints journaled, want 1", n)
	}
	grew := primary.db.Stats().LiveBytes - before
	if grew > 256 {
		t.Fatalf("the hint grew the WAL's live bytes by %d for a %d-byte record, want at most 256", grew, len(rec.Payload))
	}
	t.Logf("the hint added %d live bytes beside a %d-byte record", grew, len(rec.Payload))
}

// TestParentEraHintDrains reopens a database whose hint was journaled
// in the older format, a JSON envelope carrying a copy of the record
// (testdata/parent-hint: job "fx" and its hint for shard "f", written by
// that format's Store.Put and Store.AppendHint). The hint restores at
// version 0, drains, and the target holds the node's record byte for
// byte.
func TestParentEraHintDrains(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"seg-00000001.wal", "snapshot.json"} {
		buf, err := os.ReadFile(filepath.Join("testdata", "parent-hint", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, db := hintStore(t, dir)
	defer db.Close()
	if pend, err := store.PendingHints("f"); err != nil || len(pend) != 1 || pend[0].Target != "f" || pend[0].ID != "fx" || pend[0].Version != 0 {
		t.Fatalf("restored hints %+v (%v), want fx for f at version 0", pend, err)
	}
	want, ok, err := db.Get("fx")
	if err != nil || !ok {
		t.Fatalf("the fixture holds no record for fx (ok=%v, err=%v)", ok, err)
	}
	target := newWireNode(t, false)
	drainTo(t, store, target.url)
	if got := target.state(t, "fx"); got.stored != string(want) || got.version != 1 {
		t.Fatalf("the target holds %d bytes at version %d, want the node's %d bytes at version 1", len(got.stored), got.version, len(want))
	}
}

// TestHintDrainsNewerRecord: a drain pushes the node's record as it is
// now. A hint journaled at version 1 for a job the node has since
// rewritten delivers version 2.
func TestHintDrainsNewerRecord(t *testing.T) {
	store := tempStore(t)
	if _, err := store.put(tinyJob("j")); err != nil {
		t.Fatal(err)
	}
	if err := store.AppendHint(shard.HintRecord{Target: "f", ID: "j", Version: 1}); err != nil {
		t.Fatal(err)
	}
	job, sum := tinyJob("j")
	sum.Runtime = 5
	rec, err := store.put(job, sum)
	if err != nil || rec.Version != 2 {
		t.Fatalf("rewrite: version %d, %v", rec.Version, err)
	}
	target := newWireNode(t, false)
	drainTo(t, store, target.url)
	if got := target.state(t, "j"); got.stored != string(rec.Payload) || got.version != 2 {
		t.Fatalf("the target holds %d bytes at version %d, want the %d-byte version 2", len(got.stored), got.version, len(rec.Payload))
	}
}

// TestReservedJobIDsRefused: a job ID that begins with '~' would land
// in the store's hint or ingest-batch namespace, so every entry point
// that names a job refuses it with a 400, and a reopened store holds no
// phantom job, hint or batch.
func TestReservedJobIDsRefused(t *testing.T) {
	dir := t.TempDir()
	store, db := hintStore(t, dir)
	exec := NewExecutorWith(1, 4, store, nil, ExecutorOptions{})
	ts := httptest.NewServer(NewServerWith(exec, store, nil, ServerOptions{}).Handler())
	job, sum := tinyJob("x")
	payload, err := encodeRecord(sum, job, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"~hint/s2/x", "~stream/j/00000000000000000001", "~"} {
		if code, body := httpPost(t, ts.URL+"/jobs", JobRequest{ID: id, Platform: "Giraph", Algorithm: "BFS"}); code != http.StatusBadRequest {
			t.Errorf("POST /jobs %q: %d %s, want 400", id, code, body)
		}
		if code, _, body, _ := postIngest(t, ts.URL, pathSegment(id), streamEventsFixture()); code != http.StatusBadRequest {
			t.Errorf("POST /ingest/%s: %d %s, want 400", id, code, body)
		}
		if code, body := postReplica(t, ts.URL, id, "1", payload); code != http.StatusBadRequest {
			t.Errorf("POST /internal/replicate/%s: %d %s, want 400", id, code, body)
		}
	}
	ts.Close()
	exec.Shutdown(context.Background())
	store.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	store, db = hintStore(t, dir)
	defer db.Close()
	if ids := db.IDs(); len(ids) != 0 {
		t.Fatalf("the database holds %q", ids)
	}
	if store.Len() != 0 || store.HintCount() != 0 || len(store.takeRecoveredStreams()) != 0 {
		t.Fatalf("reopened: %d jobs, %d hints, %d batches; want none", store.Len(), store.HintCount(), len(store.takeRecoveredStreams()))
	}
}
