package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/archive"
	"repro/internal/query"
	"repro/internal/shard"
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

// cacheTestServer wires a server over a temp-dir store, plus a tiny
// executor the handlers require.
func cacheTestServer(t *testing.T, store *Store) *httptest.Server {
	t.Helper()
	exec := NewExecutorWith(1, 1, store, nil, ExecutorOptions{})
	srv := NewServerWith(exec, store, nil, ServerOptions{})
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
	store := tempStore(t)
	if err := store.Put(revJob("live", 1), Summary{ID: "live"}); err != nil {
		t.Fatal(err)
	}
	ts := cacheTestServer(t, store)
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

// TestResponseCacheByteEquivalence proves the read path's safety
// claim: what the validator serves is byte-identical (status, body and
// Content-Type) to what the unwrapped handler renders, on first hit and
// on repeats, which /query2 replays from its memo.
func TestResponseCacheByteEquivalence(t *testing.T) {
	store := tempStore(t)
	out := testOutput(t, "Giraph", "BFS")
	if err := store.Put(out.Job, summarize(JobRequest{Algorithm: "BFS"}, out)); err != nil {
		t.Fatal(err)
	}
	id := out.Job.ID

	exec := NewExecutorWith(1, 1, store, nil, ExecutorOptions{})
	defer exec.Shutdown(context.Background())
	srv := NewServerWith(exec, store, nil, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	bare := http.NewServeMux()
	bare.HandleFunc("GET /jobs/{id}/archive", srv.handleArchive)
	bare.HandleFunc("GET /jobs/{id}/query", srv.handleQuery)
	bare.HandleFunc("GET "+shard.Query2Path, srv.handleQuery2)
	bare.HandleFunc("GET /jobs/{id}/viz/{kind}", srv.handleViz)

	query2 := func(raw string) string { return shard.Query2Path + "?q=" + url.QueryEscape(raw) }
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
		query2(`from jobs group by mission agg count, sum(duration), p95(duration)`),
		query2(`from jobs where mission = Superstep group by actor agg max(duration)`),
		query2(`from jobs group by`), // parse error: 400 must match too
	}
	for _, p := range paths {
		want := httptest.NewRecorder()
		bare.ServeHTTP(want, httptest.NewRequest(http.MethodGet, p, nil))
		wantType := want.Result().Header.Get("Content-Type")
		for round := 0; round < 3; round++ {
			resp, err := http.Get(ts.URL + p)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != want.Code {
				t.Fatalf("%s round %d: code %d, want %d", p, round, resp.StatusCode, want.Code)
			}
			if resp.Header.Get("Content-Type") != wantType {
				t.Fatalf("%s round %d: Content-Type %q, want %q",
					p, round, resp.Header.Get("Content-Type"), wantType)
			}
			if !bytes.Equal(body, want.Body.Bytes()) {
				t.Fatalf("%s round %d: served body diverges from the handler's", p, round)
			}
		}
	}
}

// TestResponseCacheNoStaleReads is the invalidation proof under
// concurrency (run with -race): while a writer republishes a job with
// increasing revisions, every read that starts after revision r acked
// must observe revision >= r, on the query and archive endpoints and on
// /query2, the one route that memoizes its answers. revJob's root
// duration is its revision, so max(duration) reads it back.
func TestResponseCacheNoStaleReads(t *testing.T) {
	store := tempStore(t)
	if err := store.Put(revJob("live", 0), Summary{ID: "live"}); err != nil {
		t.Fatal(err)
	}
	ts := cacheTestServer(t, store)

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
		var agg query.AggResponse // its "jobs" is a count
		dst := any(&doc)
		if strings.HasPrefix(path, shard.Query2Path) {
			dst = &agg
		}
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Error(err)
			return -1
		}
		var rev string
		switch {
		case len(doc.Operations) > 0:
			rev = doc.Operations[0].Infos["rev"]
		case len(doc.Jobs) > 0 && doc.Jobs[0].Root != nil:
			rev = doc.Jobs[0].Root.Infos["rev"]
		case len(agg.Groups) > 0:
			rev = agg.Groups[0].Aggregates["max(duration)"]
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
			paths := []string{
				"/jobs/live/query?q=depth+%3D+0",
				"/jobs/live/archive",
				shard.Query2Path + "?q=" + url.QueryEscape("from jobs group by job.platform agg max(duration)"),
			}
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

// TestCacheMetricsExposed checks the response-cache families on
// /metrics once /query2 traffic has flowed.
func TestCacheMetricsExposed(t *testing.T) {
	store := tempStore(t)
	if err := store.Put(revJob("live", 1), Summary{ID: "live"}); err != nil {
		t.Fatal(err)
	}
	ts := cacheTestServer(t, store)
	// Two spellings of the same query are distinct memo keys (the raw
	// request differs); a repeat of each spelling is a memo hit that
	// never reaches the parser again.
	urls := []string{
		ts.URL + shard.Query2Path + "?q=" + url.QueryEscape("from jobs group by mission agg count"),
		ts.URL + shard.Query2Path + "?q=" + url.QueryEscape("from jobs  group by mission agg count"),
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
	)
}

// TestResponseCacheHoldsOneGeneration pins what the /query2 memo keeps:
// the first read under a new store generation drops every answer of the
// old one, an answer rendered under an older generation than the memo's
// is not stored, and at its bound the memo is cleared.
func TestResponseCacheHoldsOneGeneration(t *testing.T) {
	store := tempStore(t)
	if err := store.Put(revJob("j0", 0), Summary{ID: "j0"}); err != nil {
		t.Fatal(err)
	}
	exec := NewExecutorWith(1, 1, store, nil, ExecutorOptions{})
	defer exec.Shutdown(context.Background())
	srv := NewServerWith(exec, store, nil, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	memoLen := func() int {
		srv.resp.mu.Lock()
		defer srv.resp.mu.Unlock()
		return len(srv.resp.memo)
	}
	get := func(agg string) {
		t.Helper()
		u := ts.URL + shard.Query2Path + "?q=" + url.QueryEscape("from jobs group by mission agg "+agg)
		if code, _, body := getWithETag(t, u, ""); code != http.StatusOK {
			t.Fatalf("%s: code %d: %s", agg, code, body)
		}
	}
	aggs := []string{"count", "sum(duration)", "min(duration)", "max(duration)"}
	for _, agg := range aggs {
		get(agg)
	}
	if n := memoLen(); n != len(aggs) {
		t.Fatalf("memo holds %d answers after %d distinct reads", n, len(aggs))
	}

	if err := store.Put(revJob("j1", 9), Summary{ID: "j1"}); err != nil {
		t.Fatal(err)
	}
	get("count")
	if n := memoLen(); n != 1 {
		t.Fatalf("memo holds %d answers after a write and one read, want 1: the old generation's stay", n)
	}

	gen := store.gen()
	srv.resp.put(gen-1, "q=stale", respEntry{etag: `"x"`, body: []byte("stale")})
	if n := memoLen(); n != 1 {
		t.Fatalf("memo holds %d answers after a put under an older generation, want 1", n)
	}
	if _, ok := srv.resp.get(gen, "q=stale"); ok {
		t.Fatal("an answer filed under an older generation was served")
	}

	for i := memoLen(); i < memoBound; i++ {
		srv.resp.put(gen, fmt.Sprintf("q=%d", i), respEntry{})
	}
	if n := memoLen(); n != memoBound {
		t.Fatalf("memo holds %d answers, want %d", n, memoBound)
	}
	srv.resp.put(gen, "q=over", respEntry{})
	if n := memoLen(); n != 1 {
		t.Fatalf("memo holds %d answers after a put at its bound, want 1: it is cleared", n)
	}
	if _, ok := srv.resp.get(gen, "q=over"); !ok {
		t.Fatal("the put that cleared the memo was not stored")
	}
}
