package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/archivedb"
	"repro/internal/shard"
)

// persistedJob is the record schema spelled for encoding/json: what Put
// wrote with json.Marshal before the one-pass codec, kept as its oracle.
type persistedJob struct {
	Summary Summary      `json:"summary"`
	Job     *archive.Job `json:"job"`
	Version uint64       `json:"version,omitempty"`
}

// paperJobs loads the committed out/archive.json and pairs each job
// with a summary that exercises every Summary field, omitempty ones
// included.
func paperJobs(t *testing.T) ([]*archive.Job, []Summary) {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "out", "archive.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := archive.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]Summary, len(a.Jobs))
	for i, j := range a.Jobs {
		n := 0
		j.Root.Walk(func(*archive.Operation) { n++ })
		sums[i] = Summary{
			ID: j.ID, Platform: j.Platform, Algorithm: "BFS",
			Runtime: j.Root.Duration(), Supersteps: 7, Operations: n,
			SetupPercent: 12.5, IOPercent: 30.25, ProcessingPercent: 57.25,
			ReplicationFactor: 1.75, ModelErrors: []string{"<model> & \"check\""},
		}
	}
	return a.Jobs, sums
}

// TestPersistedBytesPinned pins the WAL payload Put writes for both
// paper jobs: the SHA-256 values were computed when the payload was
// still json.Marshal(persistedJob), so the one-pass record encoder is
// held to that format byte for byte. A second store fed the same jobs
// exports the same bytes, and so does re-encoding the tree rebuilt from
// the stored frame.
func TestPersistedBytesPinned(t *testing.T) {
	want := map[string]string{
		"giraph-bfs-dg1000":     "aa99ddecb3746deb2880a937f4a3082d479ea49c06de57615d595ca18d5abc1b",
		"powergraph-bfs-dg1000": "87c733af4cbdc0a5c5242f8992358481e347036f6a4ca0bfecafe96fa81c37c8",
	}
	jobs, sums := paperJobs(t)
	if len(jobs) != len(want) {
		t.Fatalf("out/archive.json holds %d jobs, the pins cover %d", len(jobs), len(want))
	}
	db, err := archivedb.Open(t.TempDir(), archivedb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	store, err := NewStoreWithOptions(db, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	mem := tempStore(t)
	for i, j := range jobs {
		if err := store.Put(j, sums[i]); err != nil {
			t.Fatal(err)
		}
		if err := mem.Put(j, sums[i]); err != nil {
			t.Fatal(err)
		}
		payload, ok, err := db.Get(j.ID)
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", j.ID, ok, err)
		}
		sum := sha256.Sum256(payload)
		if got := hex.EncodeToString(sum[:]); got != want[j.ID] {
			t.Errorf("%s: persisted payload SHA-256 = %s, want %s", j.ID, got, want[j.ID])
		}
		exported, _, ok, err := mem.export(j.ID)
		if err != nil || !ok {
			t.Fatalf("export(%s): ok=%v err=%v", j.ID, ok, err)
		}
		if !bytes.Equal(exported, payload) {
			t.Errorf("%s: a second store exports other bytes than the first persisted", j.ID)
		}
		sj, _ := store.get(j.ID)
		if rebuilt, err := encodeRecord(sj.Summary, sj.tree(), sj.Version); err != nil || !bytes.Equal(rebuilt, payload) {
			t.Errorf("%s: the record rebuilt from the stored frame differs from the persisted payload (%v)", j.ID, err)
		}
	}
}

// openStore opens a store over the database in dir; the cleanup closes
// both.
func openStore(t *testing.T, dir string) (*Store, *archivedb.DB, error) {
	t.Helper()
	db, err := archivedb.Open(dir, archivedb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	store, err := NewStoreWithOptions(db, StoreOptions{})
	if err != nil {
		return nil, db, err
	}
	t.Cleanup(store.Close)
	return store, db, nil
}

// archiveBytes is what /archive serves for a stored job.
func archiveBytes(t *testing.T, s *Store, id string) []byte {
	t.Helper()
	sj, ok := s.get(id)
	if !ok {
		t.Fatalf("job %s missing", id)
	}
	a := archive.New()
	a.Add(sj.tree())
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParentEraRecordsReopen opens a database whose records encoding/json
// wrote — one at version 3, one persisted before versions existed — and
// checks it restores the store Put builds from the same jobs, version 1
// for the version-less record, and exports the stored bytes unchanged.
func TestParentEraRecordsReopen(t *testing.T) {
	jobs, sums := paperJobs(t)
	versions := []uint64{3, 0}
	dir := t.TempDir()
	db, err := archivedb.Open(dir, archivedb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ref := tempStore(t)
	payloads := map[string][]byte{}
	for i, j := range jobs {
		if err := ref.Put(j, sums[i]); err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(persistedJob{Summary: sums[i], Job: j, Version: versions[i]})
		if err != nil {
			t.Fatal(err)
		}
		payloads[j.ID] = payload
		if err := db.Put(j.ID, payload, archivedb.IndexMeta{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	store, _, err := openStore(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		sj, ok := store.get(j.ID)
		if !ok {
			t.Fatalf("%s not restored", j.ID)
		}
		if want := max(versions[i], 1); sj.Version != want {
			t.Errorf("%s: version %d, want %d", j.ID, sj.Version, want)
		}
		if got, want := fmt.Sprintf("%+v", sj.Summary), fmt.Sprintf("%+v", sums[i]); got != want {
			t.Errorf("%s: summary %s, want %s", j.ID, got, want)
		}
		if !bytes.Equal(archiveBytes(t, store, j.ID), archiveBytes(t, ref, j.ID)) {
			t.Errorf("%s: reopened archive differs from the Put one", j.ID)
		}
		exported, _, _, err := store.export(j.ID)
		if err != nil || !bytes.Equal(exported, payloads[j.ID]) {
			t.Errorf("%s: export is not the stored payload (err %v)", j.ID, err)
		}
	}
}

// TestStoreOpenFailureLeaksNoProbe: an open that fails on an
// undecodable record returns an error and leaves no goroutine behind —
// the breaker's probe starts only once the store exists.
func TestStoreOpenFailureLeaksNoProbe(t *testing.T) {
	db, err := archivedb.Open(t.TempDir(), archivedb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put("bad", []byte(`{"summary":{},"job":{"id":`), archivedb.IndexMeta{}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for range 5 {
		if _, err := NewStoreWithOptions(db, StoreOptions{ProbeInterval: time.Millisecond}); err == nil {
			t.Fatal("open over an undecodable record succeeded")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after five failed opens, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReopenLowestDecodeErrorWins: with two undecodable records among
// good ones, the parallel reopen fails naming the lower ID, every time,
// as the serial loop did.
func TestReopenLowestDecodeErrorWins(t *testing.T) {
	dir := t.TempDir()
	store, db, err := openStore(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	fillAggStore(t, store, 40)
	for _, id := range []string{"agg-031x", "agg-007x"} {
		if err := db.Put(id, []byte(`{"job":{"root":{"start":"soon"}}}`), archivedb.IndexMeta{}); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for range 10 {
		_, _, err := openStore(t, dir)
		if err == nil || !strings.Contains(err.Error(), `"agg-007x"`) {
			t.Fatalf("reopen error %v, want one naming agg-007x", err)
		}
	}
}

// TestReopenRefusesBitRot: a record whose bytes rotted on disk fails
// its checksum when the reopen reads it, and the open fails with it.
func TestReopenRefusesBitRot(t *testing.T) {
	dir := t.TempDir()
	store, db, err := openStore(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	fillAggStore(t, store, 20)
	store.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files (%v)", err)
	}
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x20 // same size: the snapshot still validates
	if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openStore(t, dir); err == nil || !strings.Contains(err.Error(), "unreadable") {
		t.Fatalf("reopen over a rotten record: %v, want a checksum error", err)
	}
}

// TestReopenEquivalence: every /archive, /query and /query2 body and
// ETag a store serves is served identically after a close and reopen.
func TestReopenEquivalence(t *testing.T) {
	dir := t.TempDir()
	serve := func() (*Store, *archivedb.DB, *httptest.Server) {
		store, db, err := openStore(t, dir)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewServerWith(nil, store, nil, ServerOptions{}).Handler())
		t.Cleanup(ts.Close)
		return store, db, ts
	}
	store, db, ts := serve()
	fillAggStore(t, store, 12)
	for _, pa := range [][2]string{{"Giraph", "BFS"}, {"PowerGraph", "PageRank"}} {
		out := testOutput(t, pa[0], pa[1])
		if err := store.Put(out.Job, summarize(JobRequest{Algorithm: pa[1]}, out)); err != nil {
			t.Fatal(err)
		}
	}
	var paths []string
	for _, id := range store.ids() {
		paths = append(paths, "/jobs/"+id+"/archive", "/jobs/"+id+"/query?mission=Superstep",
			"/jobs/"+id+"/query?q="+url.QueryEscape("mission = Superstep"))
	}
	for _, q := range []string{
		`from jobs group by mission agg count, sum(duration), p95(duration)`,
		`from jobs group by job.platform, actor agg count, max(duration)`,
	} {
		paths = append(paths, shard.Query2Path+"?q="+url.QueryEscape(q))
	}
	fetch := func(ts *httptest.Server) map[string]string {
		got := map[string]string{}
		for _, p := range paths {
			resp, err := http.Get(ts.URL + p)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == "" {
				t.Fatalf("GET %s: %d, ETag %q: %s", p, resp.StatusCode, resp.Header.Get("ETag"), body)
			}
			got[p] = resp.Header.Get("ETag") + "\n" + string(body)
		}
		return got
	}
	before := fetch(ts)
	ts.Close()
	store.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, ts = serve()
	after := fetch(ts)
	for _, p := range paths {
		if before[p] != after[p] {
			t.Errorf("GET %s differs after reopen", p)
		}
	}
}
