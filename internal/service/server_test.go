package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
)

// newTestServer wires a full service stack on an httptest server.
func newTestServer(t *testing.T, workers, queueCap int) (*httptest.Server, *Executor, *Store) {
	t.Helper()
	store := newStore()
	metrics := NewMetrics()
	exec := NewExecutorWith(workers, queueCap, store, metrics, ExecutorOptions{})
	srv := NewServerWith(exec, store, metrics, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		exec.Shutdown(context.Background())
	})
	return ts, exec, store
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func httpPost(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, payload
}

// submitAndWait submits a request over HTTP and polls until done.
func submitAndWait(t *testing.T, base string, req JobRequest) string {
	t.Helper()
	code, payload := httpPost(t, base+"/jobs", req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", code, payload)
	}
	var sub submitResponse
	if err := json.Unmarshal(payload, &sub); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, payload := httpGet(t, base+"/jobs/"+sub.ID)
		if code != http.StatusOK {
			t.Fatalf("status: %d: %s", code, payload)
		}
		var st JobState
		if err := json.Unmarshal(payload, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == StatusDone {
			return sub.ID
		}
		if st.Status == StatusFailed || st.Status == StatusCanceled {
			t.Fatalf("job %s: %s (%s)", sub.ID, st.Status, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", sub.ID)
	return ""
}

// TestServerConcurrentJobs is the acceptance-criteria test: ≥8 jobs
// submitted concurrently through the HTTP API, executed by a bounded
// pool, all archived and queryable. Run under -race it also proves the
// store and executor are race-clean.
func TestServerConcurrentJobs(t *testing.T) {
	ts, _, store := newTestServer(t, 4, 32)

	const n = 10
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := smallRequest([]string{"Giraph", "PowerGraph", "OpenG"}[i%3], "BFS")
			req.ID = fmt.Sprintf("conc-%02d", i)
			ids[i] = submitAndWait(t, ts.URL, req)
		}(i)
	}
	wg.Wait()

	if store.Len() != n {
		t.Fatalf("store has %d jobs, want %d", store.Len(), n)
	}
	for _, id := range ids {
		code, payload := httpGet(t, ts.URL+"/jobs/"+id+"/query?mission=ProcessGraph")
		if code != http.StatusOK {
			t.Fatalf("query %s: %d: %s", id, code, payload)
		}
		var qr queryResponse
		if err := json.Unmarshal(payload, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Count == 0 {
			t.Fatalf("job %s has no ProcessGraph operation", id)
		}
	}
	// The list endpoint sees all of them, in submission order.
	code, payload := httpGet(t, ts.URL+"/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list listResponse
	if err := json.Unmarshal(payload, &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != n {
		t.Fatalf("list has %d jobs, want %d", list.Count, n)
	}
}

func TestServerDeterministicResponses(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 8)
	id := submitAndWait(t, ts.URL, smallRequest("Giraph", "BFS"))

	for _, path := range []string{
		"/jobs/" + id,
		"/jobs/" + id + "/archive",
		"/jobs/" + id + "/query?mission=Compute",
		"/jobs/" + id + "/query?q=duration+>+0.1+order+by+duration+desc+limit+10",
		"/jobs",
	} {
		_, first := httpGet(t, ts.URL+path)
		_, second := httpGet(t, ts.URL+path)
		if !bytes.Equal(first, second) {
			t.Fatalf("GET %s is not byte-stable across calls", path)
		}
	}

	// The same spec on a fresh service yields the identical archive:
	// the simulation, the store, and the JSON encoding are all
	// deterministic.
	ts2, _, _ := newTestServer(t, 2, 8)
	id2 := submitAndWait(t, ts2.URL, smallRequest("Giraph", "BFS"))
	_, a1 := httpGet(t, ts.URL+"/jobs/"+id+"/archive")
	_, a2 := httpGet(t, ts2.URL+"/jobs/"+id2+"/archive")
	// Neutralize the assigned job IDs, which depend on submission order.
	b1 := strings.ReplaceAll(string(a1), id, "X")
	b2 := strings.ReplaceAll(string(a2), id2, "X")
	if b1 != b2 {
		t.Fatal("identical specs produced different archives across service instances")
	}
}

func TestServerQueryEndpoints(t *testing.T) {
	ts, _, store := newTestServer(t, 2, 8)
	id := submitAndWait(t, ts.URL, smallRequest("Giraph", "BFS"))
	sj, _ := store.get(id)

	// Exact selectors agree with the query language.
	code, payload := httpGet(t, ts.URL+"/jobs/"+id+"/query?q=mission+=+Superstep")
	if code != http.StatusOK {
		t.Fatalf("q: %d: %s", code, payload)
	}
	var viaQ queryResponse
	json.Unmarshal(payload, &viaQ)
	_, payload = httpGet(t, ts.URL+"/jobs/"+id+"/query?mission=Superstep")
	var viaIndex queryResponse
	json.Unmarshal(payload, &viaIndex)
	if viaQ.Count == 0 || viaQ.Count != viaIndex.Count {
		t.Fatalf("q found %d supersteps, index found %d", viaQ.Count, viaIndex.Count)
	}

	// Path selector.
	_, payload = httpGet(t, ts.URL+"/jobs/"+id+"/query?path=GiraphJob/ProcessGraph/Superstep")
	var viaPath queryResponse
	json.Unmarshal(payload, &viaPath)
	if viaPath.Count != viaIndex.Count {
		t.Fatalf("path found %d, mission found %d", viaPath.Count, viaIndex.Count)
	}

	// Actor selector returns that actor's ops.
	actor, want := sj.Job.Root.Actor, 0
	sj.Job.Root.Walk(func(op *archive.Operation) {
		if op.Actor == actor {
			want++
		}
	})
	_, payload = httpGet(t, ts.URL+"/jobs/"+id+"/query?actor="+actor)
	var viaActor queryResponse
	json.Unmarshal(payload, &viaActor)
	if viaActor.Count != want {
		t.Fatalf("actor query returned %d, tree has %d", viaActor.Count, want)
	}

	// Operation views carry paths and durations.
	if op := viaPath.Operations[0]; op.Path != "GiraphJob/ProcessGraph/Superstep" || op.Duration <= 0 {
		t.Fatalf("bad operation view: %+v", op)
	}

	// Selector errors.
	if code, _ := httpGet(t, ts.URL+"/jobs/"+id+"/query"); code != http.StatusBadRequest {
		t.Fatalf("no selector: %d, want 400", code)
	}
	if code, _ := httpGet(t, ts.URL+"/jobs/"+id+"/query?mission=A&actor=B"); code != http.StatusBadRequest {
		t.Fatalf("two selectors: %d, want 400", code)
	}
	if code, _ := httpGet(t, ts.URL+"/jobs/"+id+"/query?q=bogus+%3D%3D"); code != http.StatusBadRequest {
		t.Fatalf("bad query: %d, want 400", code)
	}
}

func TestServerVizEndpoints(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 8)
	id := submitAndWait(t, ts.URL, smallRequest("Giraph", "BFS"))

	cases := []struct {
		kind, contentType, marker string
	}{
		{"breakdown", "image/svg+xml", "<svg"},
		{"cpu", "image/svg+xml", "<svg"},
		{"gantt", "image/svg+xml", "<svg"},
		{"tree", "text/plain", "GiraphJob"},
		{"report", "text/html", "<html"},
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/viz/" + c.kind)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("viz/%s: %d", c.kind, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, c.contentType) {
			t.Fatalf("viz/%s content type %q, want prefix %q", c.kind, ct, c.contentType)
		}
		if !strings.Contains(string(body), c.marker) {
			t.Fatalf("viz/%s lacks %q", c.kind, c.marker)
		}
	}
	if code, _ := httpGet(t, ts.URL+"/jobs/"+id+"/viz/nope"); code != http.StatusNotFound {
		t.Fatal("unknown viz kind should 404")
	}
}

func TestServerDiff(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 8)
	// Same graph, different worker counts — a real performance delta.
	base := smallRequest("Giraph", "BFS")
	base.ID = "baseline"
	cur := smallRequest("Giraph", "BFS")
	cur.ID = "current"
	cur.Nodes = 2
	submitAndWait(t, ts.URL, base)
	submitAndWait(t, ts.URL, cur)

	code, payload := httpPost(t, ts.URL+"/diff", diffRequest{BaselineID: "baseline", CurrentID: "current"})
	if code != http.StatusOK {
		t.Fatalf("diff: %d: %s", code, payload)
	}
	var dr diffResponse
	if err := json.Unmarshal(payload, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.JobID != "current" || dr.BaselineMakespan <= 0 || dr.CurrentMakespan <= 0 {
		t.Fatalf("bad diff response: %+v", dr)
	}
	// Halving the cluster must move the makespan and produce findings.
	if dr.MakespanChange == 0 || len(dr.Findings) == 0 {
		t.Fatalf("2-node vs 8-node run produced no findings: %+v", dr)
	}

	// A job diffed against itself passes clean.
	code, payload = httpPost(t, ts.URL+"/diff", diffRequest{BaselineID: "baseline", CurrentID: "baseline"})
	if code != http.StatusOK {
		t.Fatalf("self-diff: %d", code)
	}
	json.Unmarshal(payload, &dr)
	if !dr.Pass || len(dr.Findings) != 0 {
		t.Fatalf("self-diff should pass clean: %+v", dr)
	}

	// Unknown job IDs 404.
	if code, _ := httpPost(t, ts.URL+"/diff", diffRequest{BaselineID: "baseline", CurrentID: "ghost"}); code != http.StatusNotFound {
		t.Fatalf("diff against ghost: %d, want 404", code)
	}
}

func TestServerErrorsAndHealth(t *testing.T) {
	ts, _, _ := newTestServer(t, 1, 4)

	if code, _ := httpGet(t, ts.URL+"/jobs/ghost"); code != http.StatusNotFound {
		t.Fatal("unknown job should 404")
	}
	if code, _ := httpGet(t, ts.URL+"/jobs/ghost/archive"); code != http.StatusNotFound {
		t.Fatal("unknown archive should 404")
	}
	code, payload := httpPost(t, ts.URL+"/jobs", JobRequest{Platform: "Giraph"})
	if code != http.StatusBadRequest {
		t.Fatalf("invalid submit: %d: %s", code, payload)
	}
	// Unknown fields are rejected (catches client typos).
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"platform":"Giraph","algorithm":"BFS","wat":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d, want 400", resp.StatusCode)
	}

	// An archive requested before completion is a 409, not a 404.
	slow := JobRequest{Platform: "Giraph", Algorithm: "PageRank", Vertices: 60_000, Edges: 300_000, ID: "slow"}
	if code, payload := httpPost(t, ts.URL+"/jobs", slow); code != http.StatusAccepted {
		t.Fatalf("submit slow: %d: %s", code, payload)
	}
	if code, _ := httpGet(t, ts.URL+"/jobs/slow/archive"); code != http.StatusConflict {
		t.Fatal("archive of unfinished job should 409")
	}

	code, payload = httpGet(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var h healthResponse
	if err := json.Unmarshal(payload, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Jobs == 0 {
		t.Fatalf("bad health: %+v", h)
	}
}

func TestServerMetrics(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 8)
	submitAndWait(t, ts.URL, smallRequest("OpenG", "BFS"))

	code, payload := httpGet(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	// One submitted job moved its route's histogram (whose +Inf bucket
	// is its count), the job counters and the sampled gauges. (The format
	// is pinned by TestMetricsGolden.)
	wantSamples(t, payload,
		`granula_http_request_duration_seconds_bucket{route="POST /jobs",le="+Inf"} 1`,
		`granula_http_request_duration_seconds_count{route="POST /jobs"} 1`,
		`granula_executor_jobs_total{state="started"} 1`,
		`granula_executor_jobs_total{state="done"} 1`,
		`granula_executor_queue_depth 0`,
		`granula_store_jobs 1`,
	)
	// A route has a histogram only once a request was observed on it.
	if !bytes.Contains(payload, []byte(`granula_http_request_duration_seconds_count{route="GET /jobs/{id}"} `)) {
		t.Errorf("metrics lack the status polls' histogram:\n%s", payload)
	}
}

func TestServerCancelEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, 1, 8)
	// Hold the worker, then cancel a queued job over HTTP.
	if code, payload := httpPost(t, ts.URL+"/jobs",
		JobRequest{Platform: "Giraph", Algorithm: "PageRank", Vertices: 60_000, Edges: 300_000, ID: "holder"}); code != http.StatusAccepted {
		t.Fatalf("submit holder: %d: %s", code, payload)
	}
	if code, payload := httpPost(t, ts.URL+"/jobs", smallRequest("Giraph", "BFS")); code != http.StatusAccepted {
		t.Fatalf("submit victim: %d: %s", code, payload)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/job-0002", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d: %s", resp.StatusCode, payload)
	}
	var st JobState
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusCanceled {
		t.Fatalf("status %s, want canceled", st.Status)
	}
	// Canceling an unknown job 404s.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/jobs/ghost", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel ghost: %d, want 404", resp.StatusCode)
	}
}
