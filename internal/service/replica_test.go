package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/archivedb"
	"repro/internal/shard"
)

// exportedJob archives one real job in a throwaway store and returns
// its exported wire form, the raw material of every replication test.
func exportedJob(t *testing.T) (id string, payload []byte, version uint64) {
	t.Helper()
	out := testOutput(t, "Giraph", "BFS")
	src := tempStore(t)
	if err := src.Put(out.Job, summarize(JobRequest{Algorithm: "BFS"}, out)); err != nil {
		t.Fatal(err)
	}
	payload, version, ok, err := src.export(out.Job.ID)
	if err != nil || !ok {
		t.Fatalf("Export: ok=%v err=%v", ok, err)
	}
	return out.Job.ID, payload, version
}

func TestStoreVersionTracksPuts(t *testing.T) {
	out := testOutput(t, "Giraph", "BFS")
	s := tempStore(t)
	id := out.Job.ID
	if got := s.version(id); got != 0 {
		t.Fatalf("Version of an unknown job = %d, want 0", got)
	}
	sum := summarize(JobRequest{Algorithm: "BFS"}, out)
	for want := uint64(1); want <= 3; want++ {
		if err := s.Put(out.Job, sum); err != nil {
			t.Fatal(err)
		}
		if got := s.version(id); got != want {
			t.Fatalf("after %d puts Version = %d", want, got)
		}
	}
	payload, version, ok, err := s.export(id)
	if err != nil || !ok || version != 3 {
		t.Fatalf("Export: ok=%v version=%d err=%v", ok, version, err)
	}
	var pj persistedJob
	if err := json.Unmarshal(payload, &pj); err != nil {
		t.Fatalf("export payload is not a persisted job: %v", err)
	}
	if pj.Version != 3 || pj.Summary.ID != id {
		t.Fatalf("export payload carries version %d id %q", pj.Version, pj.Summary.ID)
	}
	if _, _, ok, _ := s.export("nope"); ok {
		t.Fatal("Export(nope) should miss")
	}
}

// TestStoreApplyReplicaIdempotent pins the replication write contract:
// applying a record installs it exactly once, replays and stale
// versions are acked no-ops (so replication retries are safe), and
// newer versions replace older ones.
func TestStoreApplyReplicaIdempotent(t *testing.T) {
	id, payload, version := exportedJob(t)

	dst := tempStore(t)
	if err := dst.applyReplica(id, version, payload); err != nil {
		t.Fatal(err)
	}
	if got := dst.version(id); got != version {
		t.Fatalf("replica version = %d, want %d", got, version)
	}
	if _, ok := dst.get(id); !ok {
		t.Fatal("applied replica is not readable")
	}
	gen := dst.gen()

	// Replaying the same record must ack without republishing: a
	// generation bump here would drop the /query2 memo on every
	// replication retry.
	if err := dst.applyReplica(id, version, payload); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if dst.gen() != gen {
		t.Fatalf("replay bumped generation %d -> %d", gen, dst.gen())
	}

	// A stale version is also an acked no-op (the pusher is behind).
	if err := dst.applyReplica(id, 0, []byte("garbage — must not even be decoded")); err != nil {
		t.Fatalf("stale version: %v", err)
	}
	if dst.version(id) != version || dst.gen() != gen {
		t.Fatal("stale version changed the store")
	}

	// A newer version replaces the record.
	if err := dst.applyReplica(id, version+5, payload); err != nil {
		t.Fatal(err)
	}
	if got := dst.version(id); got != version+5 {
		t.Fatalf("newer version = %d, want %d", got, version+5)
	}
	if dst.gen() == gen {
		t.Fatal("installing a newer version must bump the generation")
	}

	// Undecodable payloads are rejected, not installed.
	if err := dst.applyReplica("other", 1, []byte("{")); err == nil {
		t.Fatal("ApplyReplica accepted a truncated payload")
	}
}

// TestStoreApplyReplicaDurable checks that a replicated record is
// byte-identical on the replica and survives a restart with its
// version, which is what makes read-repair comparisons meaningful.
func TestStoreApplyReplicaDurable(t *testing.T) {
	id, payload, version := exportedJob(t)
	dir := t.TempDir()

	db, err := archivedb.Open(dir, archivedb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewStoreWithOptions(db, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.applyReplica(id, version, payload); err != nil {
		t.Fatal(err)
	}
	got, gotV, ok, err := dst.export(id)
	if err != nil || !ok {
		t.Fatalf("Export: ok=%v err=%v", ok, err)
	}
	if gotV != version || !bytes.Equal(got, payload) {
		t.Fatal("replica bytes differ from the primary's export")
	}
	dst.Close()
	db.Close()

	db2, err := archivedb.Open(dir, archivedb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	re, err := NewStoreWithOptions(db2, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.version(id); got != version {
		t.Fatalf("restart lost the version: %d, want %d", got, version)
	}
	got2, _, ok, err := re.export(id)
	if err != nil || !ok || !bytes.Equal(got2, payload) {
		t.Fatalf("restart changed the replica bytes (ok=%v err=%v)", ok, err)
	}
}

// replicateFunc adapts a function to the executor's JobReplicator hook.
type replicateFunc func(ctx context.Context, id string, version uint64, payload []byte) error

func (f replicateFunc) ReplicateJob(ctx context.Context, id string, version uint64, payload []byte) error {
	return f(ctx, id, version, payload)
}

// TestExecutorReplicationGate pins the cluster durability contract at
// the executor: a job only reaches done after the replicator acks, it
// replicates the exact persisted bytes, and a quorum failure fails the
// job — the client must never see done with fewer than W copies.
func TestExecutorReplicationGate(t *testing.T) {
	store := tempStore(t)
	var gotID string
	var gotVersion uint64
	var gotPayload []byte
	ok := NewExecutorWith(1, 4, store, nil, ExecutorOptions{
		Replicator: replicateFunc(func(_ context.Context, id string, version uint64, payload []byte) error {
			gotID, gotVersion, gotPayload = id, version, payload
			return nil
		}),
	})
	defer ok.Shutdown(context.Background())
	id, err := ok.submit(smallRequest("Giraph", "BFS"))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, ok, id); st.Status != StatusDone {
		t.Fatalf("job with an acking replicator = %s (%s)", st.Status, st.Error)
	}
	wantPayload, wantVersion, _, err := store.export(id)
	if err != nil {
		t.Fatal(err)
	}
	if gotID != id || gotVersion != wantVersion || !bytes.Equal(gotPayload, wantPayload) {
		t.Fatalf("replicator saw (%s, v%d, %d bytes), store has (%s, v%d, %d bytes)",
			gotID, gotVersion, len(gotPayload), id, wantVersion, len(wantPayload))
	}

	fail := NewExecutorWith(1, 4, tempStore(t), nil, ExecutorOptions{
		Replicator: replicateFunc(func(context.Context, string, uint64, []byte) error {
			return errors.New("2 of 3 replicas unreachable")
		}),
	})
	defer fail.Shutdown(context.Background())
	id2, err := fail.submit(smallRequest("Giraph", "BFS"))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, fail, id2)
	if st.Status != StatusFailed {
		t.Fatalf("job with a failing replicator = %s, want failed", st.Status)
	}
	if !strings.Contains(st.Error, "replicate") {
		t.Fatalf("failure reason %q does not mention replication", st.Error)
	}
}

// TestServerReplicationEndpoints drives the shard-side HTTP surface:
// POST /internal/replicate installs a record the public API then
// serves (including a synthesized done status for jobs this node never
// executed), GET /internal/export returns the exact record, and
// /cluster reports single-node mode without a map.
func TestServerReplicationEndpoints(t *testing.T) {
	id, payload, version := exportedJob(t)

	store := tempStore(t)
	exec := NewExecutorWith(1, 4, store, nil, ExecutorOptions{})
	defer exec.Shutdown(context.Background())
	ts := httptest.NewServer(NewServerWith(exec, store, nil, ServerOptions{}).Handler())
	defer ts.Close()

	rec, err := json.Marshal(shard.ReplicaRecord{ID: id, Version: version, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+shard.ReplicatePath, "application/json", bytes.NewReader(rec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replicate: %s: %s", resp.Status, body)
	}

	// The job was never submitted here, yet its status must read done:
	// the store fallback is what lets any replica answer for a job its
	// executor never ran.
	resp, err = http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status of replicated job: %s: %s", resp.Status, body)
	}
	var st JobState
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusDone || st.Summary == nil {
		t.Fatalf("replicated job status = %+v, want done with a summary", st)
	}

	resp, err = http.Get(ts.URL + shard.ExportPathPrefix + id)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: %s: %s", resp.Status, body)
	}
	var got shard.ReplicaRecord
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != id || got.Version != version || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("export returned (%s, v%d, %d bytes), want (%s, v%d, %d bytes)",
			got.ID, got.Version, len(got.Payload), id, version, len(payload))
	}

	resp, err = http.Get(ts.URL + shard.ClusterPath)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var info struct {
		Mode       string `json:"mode"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Mode != "single" || info.Generation == 0 {
		t.Fatalf("single-node /cluster = %s", body)
	}

	// Malformed replication pushes are rejected.
	resp, err = http.Post(ts.URL+shard.ReplicatePath, "application/json", strings.NewReader(`{"id":""}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("replicate without id/payload = %s, want 400", resp.Status)
	}
}
