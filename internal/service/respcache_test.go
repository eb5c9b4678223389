package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/archive"
)

// revJob builds a tiny synthetic job whose content is fully determined
// by rev, so cache tests can tell exactly which version of a job a
// response was rendered from.
func revJob(id string, rev int) *archive.Job {
	return &archive.Job{
		ID:       id,
		Platform: "Giraph",
		Root: &archive.Operation{
			ID: "R", Actor: "Master", Mission: "Run",
			Start: 0, End: float64(rev),
			Infos: map[string]string{"rev": strconv.Itoa(rev)},
		},
	}
}

// cacheTestServer wires a server over a plain in-memory store with the
// given cache options, plus a tiny executor the handlers require.
func cacheTestServer(t *testing.T, store *Store, opts ServerOptions) *httptest.Server {
	t.Helper()
	exec := NewExecutorWith(1, 1, store, nil, ExecutorOptions{})
	srv := NewServerWith(exec, store, nil, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		exec.Shutdown(context.Background())
	})
	return ts
}

func getWithETag(t *testing.T, url, ifNoneMatch string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), body
}

// TestETagRoundTrip pins the conditional-request lifecycle: a 200 with
// a validator, a 304 on revalidation, a fresh 200 with a new validator
// after the underlying job changes, and a 304 again after an unrelated
// write that bumped the generation but not these bytes.
func TestETagRoundTrip(t *testing.T) {
	store := newStore()
	if err := store.Put(revJob("live", 1), Summary{ID: "live"}); err != nil {
		t.Fatal(err)
	}
	ts := cacheTestServer(t, store, ServerOptions{})
	url := ts.URL + "/jobs/live/query?q=depth+%3D+0"

	code, etag1, body1 := getWithETag(t, url, "")
	if code != http.StatusOK || etag1 == "" {
		t.Fatalf("first GET: code=%d etag=%q", code, etag1)
	}
	if !bytes.Contains(body1, []byte(`"rev": "1"`)) {
		t.Fatalf("first GET body missing rev 1: %s", body1)
	}

	code, etag, body := getWithETag(t, url, etag1)
	if code != http.StatusNotModified || len(body) != 0 || etag != etag1 {
		t.Fatalf("revalidation: code=%d etag=%q body=%q", code, etag, body)
	}

	if err := store.Put(revJob("live", 2), Summary{ID: "live"}); err != nil {
		t.Fatal(err)
	}
	code, etag2, body2 := getWithETag(t, url, etag1)
	if code != http.StatusOK || etag2 == etag1 {
		t.Fatalf("after write: code=%d etag=%q (old %q)", code, etag2, etag1)
	}
	if !bytes.Contains(body2, []byte(`"rev": "2"`)) {
		t.Fatalf("after write body missing rev 2: %s", body2)
	}

	// A write to a different job bumps the generation but not these
	// bytes; the content-hash validator still answers 304.
	if err := store.Put(revJob("other", 9), Summary{ID: "other"}); err != nil {
		t.Fatal(err)
	}
	code, _, _ = getWithETag(t, url, etag2)
	if code != http.StatusNotModified {
		t.Fatalf("revalidation across unrelated write: code=%d, want 304", code)
	}
}

// TestResponseCacheByteEquivalence proves the tentpole's safety claim
// for the read path: with every cache enabled, responses are
// byte-identical (body and Content-Type) to a server with every cache
// disabled, on first hit and on repeat (cached) hits.
func TestResponseCacheByteEquivalence(t *testing.T) {
	store := newStore()
	out := testOutput(t, "Giraph", "BFS")
	if err := store.Put(out.Job, summarize(JobRequest{Algorithm: "BFS"}, out)); err != nil {
		t.Fatal(err)
	}
	id := out.Job.ID

	cached := cacheTestServer(t, store, ServerOptions{})
	bare := cacheTestServer(t, store, ServerOptions{RespCacheSize: -1})

	paths := []string{
		"/jobs/" + id + "/archive",
		"/jobs/" + id + "/query?q=duration+%3E+0.001+order+by+duration+desc+limit+10",
		"/jobs/" + id + "/query?q=actor+~+%22Worker%22+and+depth+%3E%3D+2",
		"/jobs/" + id + "/query?mission=Superstep",
		"/jobs/" + id + "/viz/tree",
		"/jobs/" + id + "/viz/breakdown",
		"/jobs/" + id + "/viz/gantt",
		"/jobs/" + id + "/query?q=bogus+%3D", // parse error: 400 must match too
		"/jobs/missing/archive",              // 404 must match too
	}
	for _, p := range paths {
		var want []byte
		var wantCode int
		var wantType string
		for round := 0; round < 3; round++ {
			for _, ts := range []*httptest.Server{bare, cached} {
				resp, err := http.Get(ts.URL + p)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want, wantCode, wantType = body, resp.StatusCode, resp.Header.Get("Content-Type")
					continue
				}
				if resp.StatusCode != wantCode {
					t.Fatalf("%s round %d: code %d, want %d", p, round, resp.StatusCode, wantCode)
				}
				if resp.Header.Get("Content-Type") != wantType {
					t.Fatalf("%s round %d: Content-Type %q, want %q",
						p, round, resp.Header.Get("Content-Type"), wantType)
				}
				if !bytes.Equal(body, want) {
					t.Fatalf("%s round %d: cached body diverges from uncached", p, round)
				}
			}
		}
	}
}

// TestResponseCacheNoStaleReads is the invalidation proof under
// concurrency (run with -race): while a writer republishes a job with
// increasing revisions, every read that starts after revision r acked
// must observe revision >= r, on both the query and archive endpoints.
func TestResponseCacheNoStaleReads(t *testing.T) {
	store := newStore()
	if err := store.Put(revJob("live", 0), Summary{ID: "live"}); err != nil {
		t.Fatal(err)
	}
	ts := cacheTestServer(t, store, ServerOptions{})

	const revisions = 150
	var acked atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for r := 1; r <= revisions; r++ {
			if err := store.Put(revJob("live", r), Summary{ID: "live"}); err != nil {
				t.Errorf("put rev %d: %v", r, err)
				return
			}
			acked.Store(int64(r))
		}
	}()

	readRev := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Error(err)
			return -1
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: code %d", path, resp.StatusCode)
			return -1
		}
		var doc struct {
			Operations []operationView `json:"operations"`
			Jobs       []*archive.Job  `json:"jobs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Error(err)
			return -1
		}
		var rev string
		switch {
		case len(doc.Operations) > 0:
			rev = doc.Operations[0].Infos["rev"]
		case len(doc.Jobs) > 0 && doc.Jobs[0].Root != nil:
			rev = doc.Jobs[0].Root.Infos["rev"]
		default:
			t.Errorf("%s: no operations in response", path)
			return -1
		}
		n, err := strconv.Atoi(rev)
		if err != nil {
			t.Errorf("%s: bad rev %q", path, rev)
			return -1
		}
		return n
	}

	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func(reader int) {
			defer wg.Done()
			paths := []string{"/jobs/live/query?q=depth+%3D+0", "/jobs/live/archive"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				floor := acked.Load()
				got := readRev(paths[i%len(paths)])
				if got >= 0 && int64(got) < floor {
					t.Errorf("reader %d: stale read: rev %d after rev %d acked", reader, got, floor)
					return
				}
			}
		}(reader)
	}
	wg.Wait()

	// The final read must see the last revision.
	if got := readRev("/jobs/live/query?q=depth+%3D+0"); got != revisions {
		t.Fatalf("final read: rev %d, want %d", got, revisions)
	}
}

// TestCacheMetricsExposed checks the /metrics families for both caches
// and the group-commit counters appear once traffic has flowed.
func TestCacheMetricsExposed(t *testing.T) {
	store := newStore()
	if err := store.Put(revJob("live", 1), Summary{ID: "live"}); err != nil {
		t.Fatal(err)
	}
	ts := cacheTestServer(t, store, ServerOptions{})
	// Two spellings of the same query are distinct response-cache keys
	// (the raw request differs); a repeat of each spelling exercises
	// response-cache hits without ever reaching the parser again.
	urls := []string{
		ts.URL + "/jobs/live/query?q=depth+%3D+0",
		ts.URL + "/jobs/live/query?q=depth++%3D++0",
	}
	for round := 0; round < 2; round++ {
		for i, url := range urls {
			if code, _, _ := getWithETag(t, url, ""); code != http.StatusOK {
				t.Fatalf("GET %d/%d failed", round, i)
			}
		}
	}
	code, _, body := getWithETag(t, ts.URL+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	wantSamples(t, body,
		"granula_respcache_hits_total 2",
		"granula_respcache_misses_total 2",
		"granula_respcache_entries 2",
	)
}

// TestResponseCacheHoldsOneGeneration pins what the cache keeps across
// a write: the first read under the new store generation drops every
// entry of the old one without counting evictions, and a response
// rendered under an older generation than the cache's is not stored.
func TestResponseCacheHoldsOneGeneration(t *testing.T) {
	store := newStore()
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("j%d", i)
		if err := store.Put(revJob(id, i), Summary{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	exec := NewExecutorWith(1, 1, store, nil, ExecutorOptions{})
	defer exec.Shutdown(context.Background())
	srv := NewServerWith(exec, store, nil, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(id string) {
		t.Helper()
		if code, _, _ := getWithETag(t, ts.URL+"/jobs/"+id+"/archive", ""); code != http.StatusOK {
			t.Fatalf("%s: code %d", id, code)
		}
	}
	for i := 0; i < 4; i++ {
		get(fmt.Sprintf("j%d", i))
	}
	before := srv.resp.stats()
	if before.Size != 4 {
		t.Fatalf("size %d after four distinct reads, want 4", before.Size)
	}

	if err := store.Put(revJob("j0", 9), Summary{ID: "j0"}); err != nil {
		t.Fatal(err)
	}
	get("j1")
	after := srv.resp.stats()
	if after.Size != 1 {
		t.Fatalf("size %d after a write and one read, want 1: the old generation's entries stay", after.Size)
	}
	if after.Evictions != before.Evictions {
		t.Fatalf("evictions %d -> %d: dropping a generation counted as LRU eviction", before.Evictions, after.Evictions)
	}

	gen := store.gen()
	srv.resp.put(gen-1, "GET /stale?", "application/json", `"x"`, []byte("stale"))
	if st := srv.resp.stats(); st.Size != 1 {
		t.Fatalf("size %d after a put under an older generation, want 1", st.Size)
	}
	if e := srv.resp.get(gen, "GET /stale?"); e != nil {
		t.Fatal("a render filed under an older generation was served")
	}
}

// TestResponseCacheLRUEviction fills the cache beyond capacity and
// checks eviction keeps it bounded while still serving correct bytes.
func TestResponseCacheLRUEviction(t *testing.T) {
	store := newStore()
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("j%d", i)
		if err := store.Put(revJob(id, i), Summary{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	exec := NewExecutorWith(1, 1, store, nil, ExecutorOptions{})
	defer exec.Shutdown(context.Background())
	srv := NewServerWith(exec, store, nil, ServerOptions{RespCacheSize: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for round := 0; round < 2; round++ {
		for i := 0; i < 8; i++ {
			code, _, body := getWithETag(t, fmt.Sprintf("%s/jobs/j%d/archive", ts.URL, i), "")
			if code != http.StatusOK {
				t.Fatalf("j%d: code %d", i, code)
			}
			if !bytes.Contains(body, []byte(fmt.Sprintf(`"rev": "%d"`, i))) {
				t.Fatalf("j%d: wrong body", i)
			}
		}
	}
	st := srv.resp.stats()
	if st.Size > 4 {
		t.Fatalf("cache size %d above capacity 4", st.Size)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite 8 keys in a 4-slot cache")
	}
}
