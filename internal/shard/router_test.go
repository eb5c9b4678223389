package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeJob is one record on a fake shard.
type fakeJob struct {
	body    string
	etag    string
	version uint64
}

// fakeShard is a minimal granula-serve stand-in: just enough of the
// public API plus the cluster-internal endpoints for the router to talk
// to, with switchable failure and full visibility into what arrived.
type fakeShard struct {
	id      string
	srv     *httptest.Server
	failing atomic.Bool  // every request answers 500
	delay   atomic.Int64 // per-request latency in nanoseconds
	hits    atomic.Int64 // API requests received (probes excluded)

	mu        sync.Mutex
	jobs      map[string]fakeJob
	submits   []string        // job IDs POSTed to /jobs
	applied   []ReplicaRecord // records POSTed to /internal/replicate
	deadlines []string        // X-Granula-Deadline values seen on reads
}

func (fs *fakeShard) setJob(id string, j fakeJob) {
	fs.mu.Lock()
	fs.jobs[id] = j
	fs.mu.Unlock()
}

func (fs *fakeShard) appliedRecords() []ReplicaRecord {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]ReplicaRecord(nil), fs.applied...)
}

func (fs *fakeShard) submittedIDs() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]string(nil), fs.submits...)
}

func newFakeShard(id string) *fakeShard {
	fs := &fakeShard{id: id, jobs: map[string]fakeJob{}}
	mux := http.NewServeMux()
	fail := func(w http.ResponseWriter) bool {
		fs.hits.Add(1)
		if d := fs.delay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if fs.failing.Load() {
			http.Error(w, "injected shard failure", http.StatusInternalServerError)
			return true
		}
		return false
	}
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		if fail(w) {
			return
		}
		body, _ := io.ReadAll(r.Body)
		var req struct {
			ID string `json:"id"`
		}
		json.Unmarshal(body, &req)
		fs.mu.Lock()
		fs.submits = append(fs.submits, req.ID)
		fs.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, "{\n  \"id\": %q,\n  \"status\": \"queued\"\n}\n", req.ID)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		if fail(w) {
			return
		}
		fs.mu.Lock()
		ids := make([]string, 0, len(fs.jobs))
		for id := range fs.jobs {
			ids = append(ids, id)
		}
		fs.mu.Unlock()
		entries := make([]string, 0, len(ids))
		for _, id := range ids {
			entries = append(entries, fmt.Sprintf("{\"id\": %q, \"status\": \"done\"}", id))
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"count\": %d, \"jobs\": [%s]}\n", len(entries), strings.Join(entries, ", "))
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if h := r.Header.Get(DeadlineHeader); h != "" {
			fs.mu.Lock()
			fs.deadlines = append(fs.deadlines, h)
			fs.mu.Unlock()
		}
		if fail(w) {
			return
		}
		id := r.PathValue("id")
		fs.mu.Lock()
		_, ok := fs.jobs[id]
		fs.mu.Unlock()
		if !ok {
			http.Error(w, fmt.Sprintf("{\"error\": \"no job %q\"}", id), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"id\": %q, \"status\": \"done\"}\n", id)
	})
	mux.HandleFunc("GET /jobs/{id}/archive", func(w http.ResponseWriter, r *http.Request) {
		if fail(w) {
			return
		}
		id := r.PathValue("id")
		fs.mu.Lock()
		j, ok := fs.jobs[id]
		fs.mu.Unlock()
		if !ok {
			http.Error(w, fmt.Sprintf("{\"error\": \"no job %q\"}", id), http.StatusNotFound)
			return
		}
		if j.etag != "" {
			w.Header().Set("ETag", j.etag)
			if r.Header.Get("If-None-Match") == j.etag {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, j.body)
	})
	mux.HandleFunc("POST "+ReplicatePath, func(w http.ResponseWriter, r *http.Request) {
		if fail(w) {
			return
		}
		var rec ReplicaRecord
		if err := json.NewDecoder(r.Body).Decode(&rec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fs.mu.Lock()
		fs.applied = append(fs.applied, rec)
		if cur, ok := fs.jobs[rec.ID]; !ok || rec.Version > cur.version {
			fs.jobs[rec.ID] = fakeJob{body: string(rec.Payload), etag: fmt.Sprintf("%q", fmt.Sprintf("v%d", rec.Version)), version: rec.Version}
		}
		fs.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"id\": %q, \"version\": %d}\n", rec.ID, rec.Version)
	})
	mux.HandleFunc("GET "+ExportPathPrefix+"{id}", func(w http.ResponseWriter, r *http.Request) {
		if fail(w) {
			return
		}
		id := r.PathValue("id")
		fs.mu.Lock()
		j, ok := fs.jobs[id]
		fs.mu.Unlock()
		if !ok {
			http.Error(w, fmt.Sprintf("{\"error\": \"no job %q\"}", id), http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(ReplicaRecord{ID: id, Version: j.version, Payload: json.RawMessage(j.body)})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if fail(w) {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{\"status\": \"ok\"}\n")
	})
	mux.HandleFunc("GET "+HealthPath, func(w http.ResponseWriter, r *http.Request) {
		// The probe target answers instantly even when the shard is
		// "slow" (delay simulates overload, not death), but a failing
		// shard misses probes — that is how tests kill a node.
		if fs.failing.Load() {
			http.Error(w, "injected shard failure", http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "{\"shardId\":%q,\"status\":\"ok\"}\n", fs.id)
	})
	mux.HandleFunc("GET "+DigestPath, func(w http.ResponseWriter, r *http.Request) {
		if fail(w) {
			return
		}
		fs.mu.Lock()
		entries := make([]DigestEntry, 0, len(fs.jobs))
		for id, j := range fs.jobs {
			v := j.version
			if v == 0 {
				v = 1
			}
			entries = append(entries, DigestEntry{ID: id, Version: v})
		}
		fs.mu.Unlock()
		sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
		buf, err := EncodeDigest(entries)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf)
	})
	fs.srv = httptest.NewServer(mux)
	return fs
}

// newFakeCluster starts n fake shards and a router over them.
func newFakeCluster(t *testing.T, n, repl, quorum, repairEvery int) ([]*fakeShard, *Map, *Router) {
	t.Helper()
	shards := make([]*fakeShard, n)
	nodes := make([]Node, n)
	for i := range shards {
		fs := newFakeShard(fmt.Sprintf("s%d", i+1))
		t.Cleanup(fs.srv.Close)
		shards[i] = fs
		nodes[i] = Node{ID: fs.id, URL: fs.srv.URL}
	}
	m, err := NewMap(1, nodes, repl, quorum, 0)
	if err != nil {
		t.Fatal(err)
	}
	return shards, m, NewRouter(m, RouterOptions{RepairEvery: repairEvery})
}

func byID(shards []*fakeShard, id string) *fakeShard {
	for _, fs := range shards {
		if fs.id == id {
			return fs
		}
	}
	return nil
}

func routerGet(t *testing.T, rt *Router, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	return w
}

func TestRouterSubmitRoutesToPrimary(t *testing.T) {
	shards, m, rt := newFakeCluster(t, 3, 1, 1, 0)
	const id = "job-routing-check"
	primary := m.ring.Owners(id, 1)[0]

	body := fmt.Sprintf(`{"platform":"Giraph","algorithm":"BFS","id":%q}`, id)
	req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader([]byte(body)))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)

	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get(ShardHeader); got != primary {
		t.Fatalf("served by %q, want primary %q", got, primary)
	}
	if got := byID(shards, primary).submittedIDs(); len(got) != 1 || got[0] != id {
		t.Fatalf("primary %s saw submits %v, want [%s]", primary, got, id)
	}
	for _, fs := range shards {
		if fs.id != primary && len(fs.submittedIDs()) != 0 {
			t.Fatalf("non-primary %s saw submits %v", fs.id, fs.submittedIDs())
		}
	}
}

func TestRouterSubmitAssignsID(t *testing.T) {
	shards, m, rt := newFakeCluster(t, 3, 1, 1, 0)
	req := httptest.NewRequest(http.MethodPost, "/jobs",
		bytes.NewReader([]byte(`{"platform":"Giraph","algorithm":"BFS"}`)))
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID == "" {
		t.Fatal("router did not assign a job ID")
	}
	primary := m.ring.Owners(resp.ID, 1)[0]
	if got := byID(shards, primary).submittedIDs(); len(got) != 1 || got[0] != resp.ID {
		t.Fatalf("assigned ID %q did not land on its primary %s (saw %v)", resp.ID, primary, got)
	}
}

func TestRouterReadPassesBytesAndETag(t *testing.T) {
	shards, m, rt := newFakeCluster(t, 3, 2, 1, 0)
	const id, body, etag = "job-etag", "{\n  \"jobs\": [1]\n}\n", `"abc123"`
	for _, n := range m.owners(id) {
		byID(shards, n.ID).setJob(id, fakeJob{body: body, etag: etag, version: 1})
	}

	w := routerGet(t, rt, "/jobs/"+id+"/archive", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("read = %d: %s", w.Code, w.Body)
	}
	if got := w.Body.String(); got != body {
		t.Fatalf("proxied body %q != shard body %q", got, body)
	}
	if got := w.Header().Get("ETag"); got != etag {
		t.Fatalf("ETag %q not passed through (want %q)", got, etag)
	}
	if w.Header().Get(ShardHeader) == "" {
		t.Fatal("response missing the serving-shard header")
	}

	// Conditional revalidation passes through as a 304.
	w = routerGet(t, rt, "/jobs/"+id+"/archive", map[string]string{"If-None-Match": etag})
	if w.Code != http.StatusNotModified {
		t.Fatalf("conditional read = %d, want 304", w.Code)
	}
	if w.Body.Len() != 0 {
		t.Fatalf("304 carried a body: %q", w.Body)
	}
}

func TestRouterFailoverOnDownShard(t *testing.T) {
	shards, m, rt := newFakeCluster(t, 3, 2, 1, 0)
	const id, body = "job-failover", "archive-bytes\n"
	owners := m.owners(id)
	for _, n := range owners {
		byID(shards, n.ID).setJob(id, fakeJob{body: body, etag: `"e1"`, version: 1})
	}
	byID(shards, owners[0].ID).failing.Store(true)

	// Reads rotate, so hit the endpoint a few times: every response must
	// come from the healthy replica with the right bytes.
	for i := 0; i < 4; i++ {
		w := routerGet(t, rt, "/jobs/"+id+"/archive", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("read %d = %d: %s", i, w.Code, w.Body)
		}
		if got := w.Header().Get(ShardHeader); got != owners[1].ID {
			t.Fatalf("read %d served by %q, want healthy replica %q", i, got, owners[1].ID)
		}
		if w.Body.String() != body {
			t.Fatalf("read %d body %q", i, w.Body)
		}
	}
	if got := MetricSum(t, rt.metrics.writePrometheus, "granula_router_failovers_total"); got == 0 {
		t.Fatal("failovers counter did not move")
	}

	// Status also fails over (the replica's store fallback answers).
	w := routerGet(t, rt, "/jobs/"+id, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status through failover = %d: %s", w.Code, w.Body)
	}

	// With every owner down the request exhausts and reports 502+.
	byID(shards, owners[1].ID).failing.Store(true)
	w = routerGet(t, rt, "/jobs/"+id+"/archive", nil)
	if w.Code < 500 {
		t.Fatalf("read with all owners down = %d, want 5xx", w.Code)
	}
}

func TestRouterRepairsMissingReplica(t *testing.T) {
	shards, m, rt := newFakeCluster(t, 3, 2, 1, 0)
	const id, body = "job-repair", `{"summary":1}`
	owners := m.owners(id)
	has, missing := byID(shards, owners[0].ID), byID(shards, owners[1].ID)
	has.setJob(id, fakeJob{body: body, etag: `"e1"`, version: 3})

	// Drive reads until the rotation hits the empty replica first; its
	// 404 fails over to the full one and triggers a repair.
	for i := 0; i < 2; i++ {
		w := routerGet(t, rt, "/jobs/"+id+"/archive", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("read = %d: %s", w.Code, w.Body)
		}
		if w.Body.String() != body {
			t.Fatalf("read body %q", w.Body)
		}
	}
	rt.WaitRepairs()

	applied := missing.appliedRecords()
	if len(applied) == 0 {
		t.Fatal("missing replica received no repair push")
	}
	if applied[0].ID != id || applied[0].Version != 3 || string(applied[0].Payload) != body {
		t.Fatalf("repair pushed %+v, want id=%s v=3 payload=%s", applied[0], id, body)
	}
	if got := MetricSum(t, rt.metrics.writePrometheus, "granula_router_read_repairs_total"); got == 0 {
		t.Fatal("repairs counter did not move")
	}
	// The repaired replica now serves the record itself.
	missing.mu.Lock()
	_, installed := missing.jobs[id]
	missing.mu.Unlock()
	if !installed {
		t.Fatal("repair did not install the record")
	}
}

func TestRouterDivergenceProbeRepairsStaleReplica(t *testing.T) {
	shards, m, rt := newFakeCluster(t, 3, 2, 1, 1) // probe on every read
	const id = "job-diverge"
	owners := m.owners(id)
	fresh, stale := byID(shards, owners[0].ID), byID(shards, owners[1].ID)
	fresh.setJob(id, fakeJob{body: `{"v":2}`, etag: `"new"`, version: 2})
	stale.setJob(id, fakeJob{body: `{"v":1}`, etag: `"old"`, version: 1})

	// Keep reading until a probe catches the divergence; rotation means
	// either replica can serve, both directions detect the ETag mismatch.
	for i := 0; i < 4; i++ {
		if w := routerGet(t, rt, "/jobs/"+id+"/archive", nil); w.Code != http.StatusOK {
			t.Fatalf("read = %d: %s", w.Code, w.Body)
		}
	}
	rt.WaitRepairs()

	if divergent := MetricSum(t, rt.metrics.writePrometheus, "granula_router_divergence_probes_total", `outcome="divergent"`); divergent == 0 {
		t.Fatal("no divergence probe found the stale replica")
	}
	// The stale side must have been repaired up to version 2, and the
	// repair must never run backwards (fresh stays at 2).
	stale.mu.Lock()
	staleVer := stale.jobs[id].version
	stale.mu.Unlock()
	fresh.mu.Lock()
	freshVer := fresh.jobs[id].version
	fresh.mu.Unlock()
	if staleVer != 2 {
		t.Fatalf("stale replica at version %d after repair, want 2", staleVer)
	}
	if freshVer != 2 {
		t.Fatalf("fresh replica moved to version %d, want 2", freshVer)
	}
}

func TestRouterListMergesShards(t *testing.T) {
	shards, m, rt := newFakeCluster(t, 3, 1, 1, 0)
	// R=1: each job exists on exactly its primary, so the merged listing
	// is a disjoint union.
	perShard := map[string][]string{}
	for i := 0; i < 9; i++ {
		id := fmt.Sprintf("job-%04d", i)
		p := m.ring.Owners(id, 1)[0]
		byID(shards, p).setJob(id, fakeJob{body: "{}", version: 1})
		perShard[p] = append(perShard[p], id)
	}

	w := routerGet(t, rt, "/jobs", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("list = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Count int `json:"count"`
		Jobs  []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 9 || len(resp.Jobs) != 9 {
		t.Fatalf("merged %d jobs, want 9: %s", resp.Count, w.Body)
	}
	for i := 1; i < len(resp.Jobs); i++ {
		if resp.Jobs[i-1].ID >= resp.Jobs[i].ID {
			t.Fatalf("merged listing not sorted: %q >= %q", resp.Jobs[i-1].ID, resp.Jobs[i].ID)
		}
	}

	// A down shard is skipped and named in the down header.
	shards[0].failing.Store(true)
	w = routerGet(t, rt, "/jobs", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("list with down shard = %d", w.Code)
	}
	if got := w.Header().Get("X-Granula-Shards-Down"); !strings.Contains(got, shards[0].id) {
		t.Fatalf("down header %q does not name %s", got, shards[0].id)
	}
}

func TestRouterClusterAndHealth(t *testing.T) {
	shards, _, rt := newFakeCluster(t, 3, 2, 2, 0)
	w := routerGet(t, rt, "/cluster", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/cluster = %d", w.Code)
	}
	var view struct {
		Mode   string `json:"mode"`
		Shards []struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Mode != "router" || len(view.Shards) != 3 {
		t.Fatalf("cluster view wrong: %s", w.Body)
	}
	for _, s := range view.Shards {
		if s.Status != "up" {
			t.Fatalf("shard %s reported %q, want up", s.ID, s.Status)
		}
	}

	w = routerGet(t, rt, "/healthz", nil)
	var hz struct {
		Status    string `json:"status"`
		Reachable int    `json:"reachable"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Reachable != 3 {
		t.Fatalf("healthz = %s", w.Body)
	}

	shards[1].failing.Store(true)
	w = routerGet(t, rt, "/healthz", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" || hz.Reachable != 2 {
		t.Fatalf("healthz with a down shard = %s", w.Body)
	}
}

func TestRouterMetricsExposition(t *testing.T) {
	shards, m, rt := newFakeCluster(t, 3, 2, 1, 0)
	const id = "job-metrics"
	for _, n := range m.owners(id) {
		byID(shards, n.ID).setJob(id, fakeJob{body: "{}", etag: `"m"`, version: 1})
	}
	routerGet(t, rt, "/jobs/"+id+"/archive", nil)

	w := routerGet(t, rt, "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", w.Code)
	}
	// One proxied read moved one shard's counter and latency histogram,
	// whose +Inf bucket is its count; the map gauges read the live map.
	// (The format is pinned by TestMetricsGoldenRouter.)
	scrape := func(out io.Writer) { out.Write(w.Body.Bytes()) }
	for _, tc := range []struct {
		name, match string
		want        float64
	}{
		{"granula_router_shards", "", 3},
		{"granula_router_map_version", "", 1},
		{"granula_router_requests_total", "", 1},
		{"granula_router_request_seconds_bucket", `le="+Inf"`, 1},
		{"granula_router_request_seconds_count", "", 1},
	} {
		if got := MetricSum(t, scrape, tc.name, tc.match); got != tc.want {
			t.Errorf("%s{%s} = %v, want %v", tc.name, tc.match, got, tc.want)
		}
	}
}

func TestReplicatorQuorum(t *testing.T) {
	shards, m, _ := newFakeCluster(t, 3, 3, 2, 0)
	self := shards[0]
	rep, err := NewReplicator(self.id, m, ReplicatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a job whose primary IS shard 0 so the fan-out targets the
	// other two shards.
	jobID := "job-q"
	for i := 0; m.ring.Owners(jobID, 1)[0] != self.id; i++ {
		jobID = fmt.Sprintf("job-q%d", i)
	}
	if err := rep.ReplicateJob(context.Background(), jobID, 1, []byte(`{"p":1}`)); err != nil {
		t.Fatalf("quorum replicate: %v", err)
	}
	reached, missed := MetricSum(t, rep.Metrics().WritePrometheus, "granula_replication_quorum_total", `outcome="reached"`), MetricSum(t, rep.Metrics().WritePrometheus, "granula_replication_quorum_total", `outcome="missed"`)
	if reached != 1 || missed != 0 {
		t.Fatalf("quorum counters = (%v, %v), want (1, 0)", reached, missed)
	}

	// One follower down: 2/3 acks (local + one follower) still meets W=2.
	shards[1].failing.Store(true)
	shards[2].failing.Store(false)
	if err := rep.ReplicateJob(context.Background(), jobID, 2, []byte(`{"p":2}`)); err != nil {
		t.Fatalf("replicate with one follower down: %v", err)
	}

	// Both followers down: only the local ack remains, quorum fails.
	shards[1].failing.Store(true)
	shards[2].failing.Store(true)
	err = rep.ReplicateJob(context.Background(), jobID, 3, []byte(`{"p":3}`))
	qe, ok := err.(*quorumError)
	if !ok {
		t.Fatalf("replicate with all followers down = %v, want *QuorumError", err)
	}
	if qe.Acks != 1 || qe.Quorum != 2 || len(qe.Errs) != 2 {
		t.Fatalf("quorum error = %+v", qe)
	}
}

func TestReplicatorRejectsUnknownSelf(t *testing.T) {
	_, m, _ := newFakeCluster(t, 2, 2, 1, 0)
	if _, err := NewReplicator("ghost", m, ReplicatorOptions{}); err == nil {
		t.Fatal("NewReplicator accepted a self outside the map")
	}
}

func TestPartitionTransport(t *testing.T) {
	shards, m, _ := newFakeCluster(t, 2, 2, 2, 0)
	p := NewPartition()
	rep, err := NewReplicator(shards[0].id, m, ReplicatorOptions{Client: p.Client()})
	if err != nil {
		t.Fatal(err)
	}
	jobID := "job-p"
	for i := 0; m.ring.Owners(jobID, 1)[0] != shards[0].id; i++ {
		jobID = fmt.Sprintf("job-p%d", i)
	}

	p.Block(shards[1].srv.URL)
	if err := rep.ReplicateJob(context.Background(), jobID, 1, []byte("{}")); err == nil {
		t.Fatal("replication crossed a partition")
	}
	if p.Dropped() == 0 {
		t.Fatal("partition dropped no requests")
	}

	p.Unblock(shards[1].srv.URL)
	if err := rep.ReplicateJob(context.Background(), jobID, 2, []byte("{}")); err != nil {
		t.Fatalf("replication after heal: %v", err)
	}
}
