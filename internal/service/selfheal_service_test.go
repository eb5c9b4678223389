package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/archivedb"
	"repro/internal/shard"
	"repro/internal/stream"
)

// hintStore opens a durable store over dir, failing the test on error.
func hintStore(t *testing.T, dir string) (*Store, *archivedb.DB) {
	t.Helper()
	db, err := archivedb.Open(dir, archivedb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStoreWithOptions(db, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return store, db
}

func hint(target, id string, version uint64) shard.HintRecord {
	return shard.HintRecord{Target: target, ID: id, Version: version}
}

// TestHintJournalSurvivesRestart is the property the sloppy quorum
// rests on: a hint acked into the journal is still there after a
// crash-restart, so the write it vouches for is eventually delivered.
func TestHintJournalSurvivesRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")

	store, db := hintStore(t, dir)
	for _, h := range []shard.HintRecord{
		hint("s2", "job-a", 3),
		hint("s2", "job-b", 1),
		hint("s3", "job-a", 3),
	} {
		if err := store.AppendHint(h); err != nil {
			t.Fatalf("AppendHint(%s/%s): %v", h.Target, h.ID, err)
		}
	}
	// Delivered before the crash: must NOT come back.
	if err := store.DeleteHint("s2", "job-b", 1); err != nil {
		t.Fatalf("DeleteHint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	store, db = hintStore(t, dir)
	defer db.Close()
	if got := store.HintCount(); got != 2 {
		t.Fatalf("recovered HintCount = %d, want 2", got)
	}
	targets := store.HintTargets()
	if len(targets) != 2 || targets[0] != "s2" || targets[1] != "s3" {
		t.Fatalf("recovered targets = %v, want [s2 s3]", targets)
	}
	pend, err := store.PendingHints("s2")
	if err != nil {
		t.Fatal(err)
	}
	if len(pend) != 1 || pend[0].ID != "job-a" || pend[0].Version != 3 {
		t.Fatalf("recovered s2 hints = %+v", pend)
	}
}

// TestHintJournalVersionOrdering pins the supersede rules: a newer
// version replaces, an older one is dropped, and a delete for an
// already-superseded delivery keeps the newer journaled hint.
func TestHintJournalVersionOrdering(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	store, db := hintStore(t, dir)

	if err := store.AppendHint(hint("s2", "job-a", 5)); err != nil {
		t.Fatal(err)
	}
	// Stale append is a no-op.
	if err := store.AppendHint(hint("s2", "job-a", 2)); err != nil {
		t.Fatal(err)
	}
	pend, _ := store.PendingHints("s2")
	if len(pend) != 1 || pend[0].Version != 5 {
		t.Fatalf("after stale append: %+v, want single v5", pend)
	}
	// A delete acknowledging an older delivery keeps the newer hint.
	if err := store.DeleteHint("s2", "job-a", 2); err != nil {
		t.Fatal(err)
	}
	if store.HintCount() != 1 {
		t.Fatal("delete of an older delivery dropped a newer hint")
	}
	// ...including across a restart: the journaled record must still
	// be the v5 one, not a deleted key.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	store, db = hintStore(t, dir)
	defer db.Close()
	pend, _ = store.PendingHints("s2")
	if len(pend) != 1 || pend[0].Version != 5 {
		t.Fatalf("after restart: %+v, want single v5", pend)
	}
	// Delete at the journaled version clears it for good.
	if err := store.DeleteHint("s2", "job-a", 5); err != nil {
		t.Fatal(err)
	}
	if store.HintCount() != 0 {
		t.Fatalf("HintCount = %d after final delete", store.HintCount())
	}
}

// TestInternalHealthAndDigestEndpoints exercises the probe target and
// the anti-entropy exchange over real HTTP: health reports the shard's
// publish generation, and the digest decodes into the store's sorted
// (id, version) set.
func TestInternalHealthAndDigestEndpoints(t *testing.T) {
	store := tempStore(t)
	metrics := NewMetrics()
	exec := NewExecutorWith(2, 8, store, metrics, ExecutorOptions{})
	t.Cleanup(func() { exec.Shutdown(context.Background()) })
	srv := NewServerWith(exec, store, metrics, ServerOptions{ShardID: "s1"})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	idA := submitAndWait(t, ts.URL, JobRequest{Platform: "Giraph", Algorithm: "BFS"})
	idB := submitAndWait(t, ts.URL, JobRequest{Platform: "PowerGraph", Algorithm: "PageRank"})

	code, body := httpGet(t, ts.URL+shard.HealthPath)
	if code != http.StatusOK {
		t.Fatalf("health: %d: %s", code, body)
	}
	var h struct {
		ShardID    string `json:"shardId"`
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("health body %s: %v", body, err)
	}
	if h.ShardID != "s1" || h.Status != "ok" || h.Generation < 2 {
		t.Fatalf("health = %+v", h)
	}

	code, body = httpGet(t, ts.URL+shard.DigestPath)
	if code != http.StatusOK {
		t.Fatalf("digest: %d: %s", code, body)
	}
	var entries []shard.DigestEntry
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatalf("digest does not decode: %v: %s", err, body)
	}
	if len(entries) != 2 {
		t.Fatalf("digest entries = %+v, want 2", entries)
	}
	want := map[string]bool{idA: false, idB: false}
	for _, e := range entries {
		if _, ok := want[e.ID]; !ok || e.Version == 0 {
			t.Fatalf("unexpected digest entry %+v", e)
		}
		want[e.ID] = true
	}
	for id, seen := range want {
		if !seen {
			t.Fatalf("digest is missing %s: %+v", id, entries)
		}
	}
}

func pollWatch(t *testing.T, base, id, query, lastEventID string) (int, pollResponse, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/watch/"+id+"?poll=1"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr pollResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatalf("bad poll body: %v", err)
		}
	}
	return resp.StatusCode, pr, resp.Header
}

// TestWatchLongPoll drives the long-poll fallback through a stream's
// life: immediate batches past a cursor, a parked poll released by new
// events, and the terminal sealed batch once the job archives.
func TestWatchLongPoll(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{})
	events := streamEventsFixture()
	if code, _, _, _ := postIngest(t, ts.URL, "jp1", events[:5]); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}

	// wait=0 answers immediately with everything past the cursor.
	code, pr, hdr := pollWatch(t, ts.URL, "jp1", "&wait=0", "")
	if code != http.StatusOK || hdr.Get(liveHeader) != "1" {
		t.Fatalf("first poll: %d live=%q", code, hdr.Get(liveHeader))
	}
	if pr.Count != 5 || pr.LastSeq != 5 || pr.Sealed || pr.State != "streaming" {
		t.Fatalf("first poll: %+v", pr)
	}

	// Cursor via ?from= — nothing new yet, empty batch, cursor holds.
	if _, pr, _ = pollWatch(t, ts.URL, "jp1", "&from=5&wait=0", ""); pr.Count != 0 || pr.LastSeq != 5 {
		t.Fatalf("caught-up poll: %+v", pr)
	}
	// Last-Event-ID is the same cursor, SSE-style.
	if _, pr, _ = pollWatch(t, ts.URL, "jp1", "&from=2&wait=0", "5"); pr.Count != 0 || pr.LastSeq != 5 {
		t.Fatalf("Last-Event-ID poll: %+v", pr)
	}

	// A parked poll is released by the next ingest batch, not its
	// timeout.
	type pollOut struct {
		pr      pollResponse
		elapsed time.Duration
	}
	done := make(chan pollOut, 1)
	go func() {
		start := time.Now()
		_, pr, _ := pollWatch(t, ts.URL, "jp1", "&from=5&wait=30s", "")
		done <- pollOut{pr, time.Since(start)}
	}()
	time.Sleep(50 * time.Millisecond)
	if code, _, _, _ := postIngest(t, ts.URL, "jp1", events[5:8]); code != http.StatusOK {
		t.Fatalf("release ingest: %d", code)
	}
	select {
	case out := <-done:
		if out.pr.Count != 3 || out.pr.LastSeq != 8 || out.pr.Sealed {
			t.Fatalf("released poll: %+v", out.pr)
		}
		if out.elapsed > 10*time.Second {
			t.Fatalf("parked poll waited %v; the wakeup did not fire", out.elapsed)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("parked poll never returned")
	}

	// Seal the stream; the job archives, and the poll loop gets a
	// terminal answer no matter how stale its cursor is.
	if code, _, _, _ := postIngest(t, ts.URL, "jp1", events); code != http.StatusOK {
		t.Fatalf("seal ingest: %d", code)
	}
	code, pr, _ = pollWatch(t, ts.URL, "jp1", "&from=8&wait=0", "")
	if code != http.StatusOK {
		t.Fatalf("terminal poll: %d", code)
	}
	if !pr.Sealed || pr.State != "archived" || pr.Count != 1 {
		t.Fatalf("terminal poll: %+v", pr)
	}
	if len(pr.Events) != 1 || pr.Events[0].Type != stream.TypeSeal || pr.Events[0].State != stream.StateDone {
		t.Fatalf("terminal events: %+v", pr.Events)
	}
}

// TestWatchLongPollErrors pins the rejection surface: bad cursors and
// waits are 400s, unknown jobs 404, and executor (non-streaming) jobs
// 409 so the client knows to use /jobs instead.
func TestWatchLongPollErrors(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{})

	for _, q := range []string{"&from=zzz", "&wait=badly", "&wait=-5s"} {
		if code, _, _ := pollWatch(t, ts.URL, "whatever", q, ""); code != http.StatusBadRequest {
			t.Fatalf("poll %q: %d, want 400", q, code)
		}
	}
	if code, _, _ := pollWatch(t, ts.URL, "nope", "&wait=0", "also-bad"); code != http.StatusBadRequest {
		t.Fatal("bad Last-Event-ID was not a 400")
	}
	if code, _, _ := pollWatch(t, ts.URL, "ghost", "&wait=0", ""); code != http.StatusNotFound {
		t.Fatal("unknown job was not a 404")
	}

	// An executor job that never streamed (here: one that failed on an
	// unknown platform, so it cannot archive) is a 409, pointing the
	// client at /jobs instead of the watch API.
	code, payload := httpPost(t, ts.URL+"/jobs", JobRequest{Platform: "NoSuch", Algorithm: "BFS"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, payload)
	}
	var sub submitResponse
	if err := json.Unmarshal(payload, &sub); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never failed")
		}
		_, body := httpGet(t, ts.URL+"/jobs/"+sub.ID)
		var st JobState
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == StatusFailed {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, _, _ := pollWatch(t, ts.URL, sub.ID, "&wait=0", ""); code != http.StatusConflict {
		t.Fatalf("executor job poll: %d, want 409", code)
	}
}

// TestRetryAfterJitter pins the backoff contract: every Retry-After
// the server emits is 1-3 seconds, and the value actually varies —
// a fixed constant would re-synchronize every backed-off client into
// the next thundering herd.
func TestRetryAfterJitter(t *testing.T) {
	store := tempStore(t)
	exec := NewExecutorWith(1, 4, store, nil, ExecutorOptions{})
	t.Cleanup(func() { exec.Shutdown(context.Background()) })
	srv := NewServerWith(exec, store, nil, ServerOptions{})

	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		rec := httptest.NewRecorder()
		srv.setRetryAfter(rec)
		secs, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil {
			t.Fatalf("Retry-After %q: %v", rec.Header().Get("Retry-After"), err)
		}
		if secs < 1 || secs > 3 {
			t.Fatalf("Retry-After = %d, want within [1,3]", secs)
		}
		seen[secs] = true
	}
	if len(seen) < 2 {
		t.Fatalf("200 draws produced a single value %v; jitter is not jittering", seen)
	}
}
