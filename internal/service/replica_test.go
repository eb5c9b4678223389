package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
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

	if code, body := postReplica(t, ts.URL, id, strconv.FormatUint(version, 10), payload); code != http.StatusOK {
		t.Fatalf("replicate: %d: %s", code, body)
	}

	// The job was never submitted here, yet its status must read done:
	// the store fallback is what lets any replica answer for a job its
	// executor never ran.
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
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
	gotVersion, err := strconv.ParseUint(resp.Header.Get(shard.VersionHeader), 10, 64)
	if err != nil || gotVersion != version || !bytes.Equal(body, payload) {
		t.Fatalf("export returned (v%d, %d bytes, %v), want (v%d, %d bytes)",
			gotVersion, len(body), err, version, len(payload))
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
	for _, c := range []struct {
		what, id, version string
		body              []byte
	}{
		{"no id", "", "1", payload},
		{"no payload", id, "1", nil},
		{"no version", id, "", payload},
		{"a version that is not a number", id, "v1", payload},
		{"a payload that is not a record", "other", "1", []byte(`{"id":""}`)},
	} {
		if code, body := postReplica(t, ts.URL, c.id, c.version, c.body); code != http.StatusBadRequest {
			t.Fatalf("replicate with %s = %d (%s), want 400", c.what, code, body)
		}
	}
}

// pathSegment escapes a job ID into one URL path segment the way the
// shard peer client does: a "." or ".." segment spells its dots as %2E,
// or the mux would clean it away.
func pathSegment(id string) string {
	if id == "." || id == ".." {
		return strings.Repeat("%2E", len(id))
	}
	return url.PathEscape(id)
}

// replicaURL is base's URL for job id under one of the per-record
// prefixes.
func replicaURL(base, prefix, id string) string { return base + prefix + pathSegment(id) }

// postReplica pushes body as job id's record over the raw replica wire,
// with version as the version header ("" sends none), and returns the
// status and the answer's body.
func postReplica(t testing.TB, base, id, version string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, replicaURL(base, shard.ReplicatePathPrefix, id), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if version != "" {
		req.Header.Set(shard.VersionHeader, version)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	answer, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, answer
}
