package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"repro/internal/archive"
	"repro/internal/archivedb"
	"repro/internal/query"
	"repro/internal/shard"
)

// aggTestJob builds a small deterministic operation tree plus a
// matching summary. Varying i shifts durations, missions, and
// platforms so aggregates have real spread across jobs.
func aggTestJob(i int) (*archive.Job, Summary) {
	id := fmt.Sprintf("agg-%03d", i)
	platforms := []string{"Giraph", "PowerGraph", "OpenG"}
	end := float64(20 + i%7)
	root := &archive.Operation{
		ID: id + "-r", Mission: "Job", Actor: "Client", Start: 0, End: end,
		Children: []*archive.Operation{
			{ID: id + "-l", Mission: "LoadGraph", Actor: "Master", Start: 0, End: float64(5 + i%3)},
			{ID: id + "-p", Mission: "ProcessGraph", Actor: "Master", Start: float64(5 + i%3), End: end - 1,
				Children: []*archive.Operation{
					{ID: id + "-s0", Mission: "Superstep", Actor: fmt.Sprintf("Worker-%d", i%4), Start: 6, End: float64(9 + i%5)},
					{ID: id + "-s1", Mission: "Superstep", Actor: fmt.Sprintf("Worker-%d", (i+1)%4), Start: float64(9 + i%5), End: end - 2},
				}},
			{ID: id + "-c", Mission: "Cleanup", Actor: "Master", Start: end - 1, End: end},
		},
	}
	// Operation details, as the harness attaches them: the superstep
	// number on each superstep and every operation's share of the job.
	for k, ss := range root.Children[1].Children {
		ss.Infos = map[string]string{"Superstep": strconv.Itoa(k)}
	}
	var derive func(op *archive.Operation)
	derive = func(op *archive.Operation) {
		op.Derived = map[string]string{
			"PercentOfJob": strconv.FormatFloat(100*(op.End-op.Start)/end, 'f', 2, 64),
			"CPUSeconds":   strconv.FormatFloat(float64(i%5)*(op.End-op.Start)/4, 'f', 3, 64),
		}
		for _, c := range op.Children {
			derive(c)
		}
	}
	derive(root)
	job := &archive.Job{ID: id, Platform: platforms[i%3], Root: root}
	sum := Summary{
		ID: id, Platform: platforms[i%3], Algorithm: []string{"BFS", "PageRank"}[i%2],
		Runtime: end, Supersteps: 2, Operations: 6,
	}
	return job, sum
}

func fillAggStore(t *testing.T, store *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		job, sum := aggTestJob(i)
		if err := store.Put(job, sum); err != nil {
			t.Fatal(err)
		}
	}
}

// oracleQuery2 computes the /query2 response the slow way: deserialize
// nothing, just tree-walk every in-memory job and fold partials in the
// canonical job-ID order. This is the byte-level contract the frame
// scan must reproduce.
func oracleQuery2(t *testing.T, store *Store, raw string) []byte {
	t.Helper()
	q, err := query.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	var partials []query.JobPartial
	for _, id := range store.ids() {
		sj, ok := store.get(id)
		if !ok {
			continue
		}
		jp, err := q.AggregateTree(sj.tree(), jobMeta(id, sj.Summary))
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, jp)
	}
	resp, err := q.MergePartials(raw, "jobs", "", partials)
	if err != nil {
		t.Fatal(err)
	}
	body, err := query.RenderAggResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func getQuery2(t *testing.T, base, raw string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(base + shard.Query2Path + "?q=" + url.QueryEscape(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// startAggServer wires a DB-backed store pre-filled with n jobs onto an
// httptest server.
func startAggServer(t *testing.T, dir string, n int) (*httptest.Server, *Store, *archivedb.DB) {
	t.Helper()
	db, err := archivedb.Open(dir, archivedb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStoreWithOptions(db, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fillAggStore(t, store, n)
	srv := NewServerWith(nil, store, nil, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		store.Close()
		db.Close()
	})
	return ts, store, db
}

// TestQuery2MatchesTreeWalkOracle: the frame scan must produce
// byte-identical bodies to the rebuild-and-tree-walk oracle, for every
// field a single-job query reads.
func TestQuery2MatchesTreeWalkOracle(t *testing.T) {
	ts, store, _ := startAggServer(t, t.TempDir(), 30)

	queries := []string{
		`from jobs group by mission`,
		`from jobs group by mission agg count, sum(duration), avg(duration), p95(duration)`,
		`from jobs where mission = Superstep group by actor agg count, max(duration)`,
		`from jobs where job.runtime > 22 group by job.platform agg count, max(job.runtime)`,
		`from jobs group by job.platform, job.algorithm agg count order by count desc`,
		`from jobs top 3 actor by sum(duration)`,
		`from jobs where depth >= 2 group by mission agg min(start), max(end)`,
		`from jobs where derived.PercentOfJob > 10 group by job.platform, mission agg count, max(derived.CPUSeconds)`,
		`from jobs group by info.Superstep agg max(duration)`,
		`from jobs where mission = LoadGraph group by job.platform agg max(derived.PercentOfJob), min(derived.PercentOfJob)`,
		`from jobs where info.Superstep = 1 or derived.CPUSeconds >= 2 group by actor, derived.PercentOfJob agg count`,
	}
	for _, raw := range queries {
		want := oracleQuery2(t, store, raw)
		code, got, hdr := getQuery2(t, ts.URL, raw)
		if code != http.StatusOK {
			t.Fatalf("%q: %d: %s", raw, code, got)
		}
		if string(got) != string(want) {
			t.Fatalf("%q: frame scan diverges from tree-walk oracle:\n%s\nvs\n%s", raw, got, want)
		}
		scanned, _ := strconv.Atoi(hdr.Get(shard.ScannedHeader))
		pruned, _ := strconv.Atoi(hdr.Get(shard.PrunedHeader))
		if scanned+pruned != 30 {
			t.Fatalf("%q: scanned %d + pruned %d != 30 jobs", raw, scanned, pruned)
		}
	}
}

// TestQuery2PrunedSegmentsNeverRead proves the zone maps do their job
// without I/O: a predicate no archived job can satisfy is answered from
// the stats the store holds in memory, so no segment file is touched —
// neither its tail nor its body.
func TestQuery2PrunedSegmentsNeverRead(t *testing.T) {
	ts, store, db := startAggServer(t, t.TempDir(), 20)

	before := db.Stats()
	raw := `from jobs where start > 1000000 group by mission`
	code, body, hdr := getQuery2(t, ts.URL, raw)
	if code != http.StatusOK {
		t.Fatalf("%d: %s", code, body)
	}
	if want := oracleQuery2(t, store, raw); string(body) != string(want) {
		t.Fatalf("pruned response diverges from oracle:\n%s\nvs\n%s", body, want)
	}
	if hdr.Get(shard.PrunedHeader) != "20" {
		t.Fatalf("pruned header = %q, want 20", hdr.Get(shard.PrunedHeader))
	}
	after := db.Stats()
	if after.ColSegFullReads != before.ColSegFullReads || after.ColSegTailReads != before.ColSegTailReads {
		t.Fatalf("pruned query touched segments: full reads %d -> %d, tail reads %d -> %d",
			before.ColSegFullReads, after.ColSegFullReads, before.ColSegTailReads, after.ColSegTailReads)
	}
}

// TestQuery2FanOutOrderAndLowestError pins the fan-out contract at any
// GOMAXPROCS (CI runs it at -cpu 1,4): partials come back in index
// order with skipped jobs left out, and of several failing jobs the
// lowest index's error is returned, as the serial loop would.
func TestQuery2FanOutOrderAndLowestError(t *testing.T) {
	const n = 200
	for run := 0; run < 20; run++ {
		got, err := inOrder(n, func(i int) (query.JobPartial, bool, error) {
			return query.JobPartial{Job: fmt.Sprintf("j%03d", i), Rows: i}, i%5 != 0, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n-n/5 {
			t.Fatalf("%d partials, want %d", len(got), n-n/5)
		}
		for k, jp := range got {
			if want := k + k/4 + 1; jp.Rows != want {
				t.Fatalf("partial %d is job %d, want %d", k, jp.Rows, want)
			}
		}

		_, err = inOrder(n, func(i int) (query.JobPartial, bool, error) {
			if i == 37 || i == 91 || i == 199 {
				return query.JobPartial{}, false, fmt.Errorf("job %d failed", i)
			}
			return query.JobPartial{Rows: i}, true, nil
		})
		if err == nil || err.Error() != "job 37 failed" {
			t.Fatalf("error %v, want the lowest failing job's", err)
		}
	}
}

// TestQuery2CachedResponseByteIdentical: the second identical request
// is served from the response cache without touching storage, and the
// body is the same bytes.
func TestQuery2CachedResponseByteIdentical(t *testing.T) {
	ts, _, db := startAggServer(t, t.TempDir(), 10)

	raw := `from jobs group by mission agg count, sum(duration)`
	code, first, _ := getQuery2(t, ts.URL, raw)
	if code != http.StatusOK {
		t.Fatalf("%d: %s", code, first)
	}
	mid := db.Stats()
	code, second, _ := getQuery2(t, ts.URL, raw)
	if code != http.StatusOK {
		t.Fatalf("%d: %s", code, second)
	}
	if string(first) != string(second) {
		t.Fatalf("cached body differs:\n%s\nvs\n%s", second, first)
	}
	after := db.Stats()
	if after.ColSegTailReads != mid.ColSegTailReads || after.ColSegFullReads != mid.ColSegFullReads {
		t.Fatalf("second request touched storage: %+v vs %+v", after, mid)
	}
}

// TestQuery2DeleteNoResurrect: a job deleted from the archive
// database stays out of cross-job aggregation after a process restart,
// and leaves no segment file behind.
func TestQuery2DeleteNoResurrect(t *testing.T) {
	dir := t.TempDir()
	ts, store, db := startAggServer(t, dir, 6)

	raw := `from jobs group by job.platform agg count`
	ts.Close()
	store.Close()
	if err := db.Delete("agg-001"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.GetSegment("agg-001"); ok {
		t.Fatal("deleted job's segment still on disk")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same directory: the job must stay gone.
	db2, err := archivedb.Open(dir, archivedb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	store2, err := NewStoreWithOptions(db2, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(NewServerWith(nil, store2, nil, ServerOptions{}).Handler())
	t.Cleanup(func() {
		ts2.Close()
		store2.Close()
		db2.Close()
	})
	code, body, _ := getQuery2(t, ts2.URL, raw)
	if code != http.StatusOK {
		t.Fatalf("after restart: %d: %s", code, body)
	}
	var resp query.AggResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Jobs != 5 {
		t.Fatalf("job resurrected after restart: %d jobs, want 5", resp.Jobs)
	}
	if _, ok, _ := db2.GetSegment("agg-001"); ok {
		t.Fatal("deleted job's segment reappeared after restart")
	}
}

// TestQuery2Validation: the endpoint serves every cross-job aggregate,
// details included, and answers the oracle's bytes; everything else
// gets a specific 400.
func TestQuery2Validation(t *testing.T) {
	ts, store, _ := startAggServer(t, t.TempDir(), 2)

	for _, tc := range []struct {
		raw  string
		code int
	}{
		{``, http.StatusBadRequest},                                      // missing q
		{`mission = Compute`, http.StatusBadRequest},                     // not an aggregate
		{`group by mission`, http.StatusBadRequest},                      // single-job scope
		{`from jobs where (`, http.StatusBadRequest},                     // parse error
		{`from jobs where info.K = 1 group by mission`, http.StatusOK},   // no row has the key
		{`from jobs group by mission agg max(derived.D)`, http.StatusOK}, // every row lacks the key
		{`from jobs group by mission`, http.StatusOK},
	} {
		code, body, _ := getQuery2(t, ts.URL, tc.raw)
		if code != tc.code {
			t.Errorf("%q: %d (want %d): %s", tc.raw, code, tc.code, body)
			continue
		}
		if code == http.StatusOK {
			if want := oracleQuery2(t, store, tc.raw); string(body) != string(want) {
				t.Errorf("%q diverges from the oracle:\n%s\nvs\n%s", tc.raw, body, want)
			}
		}
	}
}

// TestSingleJobAggregateEndpoint: aggregate queries on /jobs/{id}/query
// run over that one job.
func TestSingleJobAggregateEndpoint(t *testing.T) {
	store := newStore()
	fillAggStore(t, store, 3)
	ts := httptest.NewServer(NewServerWith(nil, store, nil, ServerOptions{}).Handler())
	t.Cleanup(ts.Close)

	raw := `group by mission agg count, sum(duration) order by sum(duration) desc`
	q, err := query.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	sj, _ := store.get("agg-001")
	jp, err := q.AggregateTree(sj.tree(), jobMeta("agg-001", sj.Summary))
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.RenderAggregate(raw, "job", "agg-001", []query.JobPartial{jp})
	if err != nil {
		t.Fatal(err)
	}
	code, got := httpGet(t, ts.URL+"/jobs/agg-001/query?q="+url.QueryEscape(raw))
	if code != http.StatusOK {
		t.Fatalf("%d: %s", code, got)
	}
	if string(got) != string(want) {
		t.Fatalf("single-job aggregate diverges:\n%s\nvs\n%s", got, want)
	}

	// Cross-job scope is redirected to /query2.
	code, body := httpGet(t, ts.URL+"/jobs/agg-001/query?q="+url.QueryEscape(`from jobs group by mission`))
	if code != http.StatusBadRequest {
		t.Fatalf("from-jobs on single-job endpoint: %d: %s", code, body)
	}
}

// TestInternalQuery2Shape: the scatter-gather endpoint returns one
// partial per local job so the router can fold them canonically.
func TestInternalQuery2Shape(t *testing.T) {
	ts, _, _ := startAggServer(t, t.TempDir(), 4)

	raw := `from jobs group by mission agg count`
	resp, err := http.Get(ts.URL + shard.InternalQuery2Path + "?q=" + url.QueryEscape(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%d: %s", resp.StatusCode, body)
	}
	var out struct {
		Partials []query.JobPartial `json:"partials"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Partials) != 4 {
		t.Fatalf("%d partials, want 4", len(out.Partials))
	}
	for i, jp := range out.Partials {
		if jp.Job != fmt.Sprintf("agg-%03d", i) {
			t.Fatalf("partial %d is for %q", i, jp.Job)
		}
	}
}
