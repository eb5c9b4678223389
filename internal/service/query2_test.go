package service

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
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
// canonical job-ID order. This is the byte-level contract the segment
// path must reproduce.
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
		jp, err := q.AggregateTree(sj.Job, jobMeta(id, sj.Summary))
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

// TestQuery2MatchesTreeWalkOracle: the segment fast path must produce
// byte-identical bodies to the deserialize-and-tree-walk oracle.
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
	}
	for _, raw := range queries {
		want := oracleQuery2(t, store, raw)
		code, got, hdr := getQuery2(t, ts.URL, raw)
		if code != http.StatusOK {
			t.Fatalf("%q: %d: %s", raw, code, got)
		}
		if string(got) != string(want) {
			t.Fatalf("%q: segment path diverges from tree-walk oracle:\n%s\nvs\n%s", raw, got, want)
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

// TestQuery2ScanReadsEachSegmentOnce: a query that prunes nothing costs
// exactly one full read per job and no tail read, and current segments
// are not rewritten.
func TestQuery2ScanReadsEachSegmentOnce(t *testing.T) {
	const n = 20
	ts, store, db := startAggServer(t, t.TempDir(), n)

	before := db.Stats()
	raw := `from jobs group by mission agg count, sum(duration)`
	code, body, hdr := getQuery2(t, ts.URL, raw)
	if code != http.StatusOK {
		t.Fatalf("%d: %s", code, body)
	}
	if want := oracleQuery2(t, store, raw); string(body) != string(want) {
		t.Fatalf("scan diverges from oracle:\n%s\nvs\n%s", body, want)
	}
	if hdr.Get(shard.ScannedHeader) != strconv.Itoa(n) {
		t.Fatalf("scanned header = %q, want %d", hdr.Get(shard.ScannedHeader), n)
	}
	after := db.Stats()
	if got := after.ColSegFullReads - before.ColSegFullReads; got != n {
		t.Fatalf("scan of %d jobs made %d full segment reads", n, got)
	}
	if after.ColSegTailReads != before.ColSegTailReads {
		t.Fatalf("scan made %d tail reads", after.ColSegTailReads-before.ColSegTailReads)
	}
	if after.ColSegWrites != before.ColSegWrites {
		t.Fatalf("scan rewrote %d current segments", after.ColSegWrites-before.ColSegWrites)
	}
}

// v1Segment re-encodes a segment in the layout written before the
// binary stats footer: the same body frame under magic "GRNLCOL1",
// then a CRC-framed JSON stats frame and the trailer "GCT1".
func v1Segment(t *testing.T, blob []byte) []byte {
	t.Helper()
	_, st, err := query.DecodeSegment(blob)
	if err != nil {
		t.Fatal(err)
	}
	type numRange struct {
		Min    float64 `json:"min"`
		Max    float64 `json:"max"`
		Finite bool    `json:"finite"`
	}
	type symRange struct {
		Min string `json:"min"`
		Max string `json:"max"`
	}
	stats, err := json.Marshal(struct {
		FormatVersion int           `json:"format"`
		JobVersion    uint64        `json:"jobVersion"`
		Meta          query.JobMeta `json:"meta"`
		Rows          int           `json:"rows"`
		Depth         numRange      `json:"depth"`
		Start         numRange      `json:"start"`
		End           numRange      `json:"end"`
		Dur           numRange      `json:"dur"`
		Mission       symRange      `json:"mission"`
		Actor         symRange      `json:"actor"`
		ID            symRange      `json:"id"`
	}{
		1, st.JobVersion, st.Meta, st.Rows,
		numRange(st.Depth), numRange(st.Start), numRange(st.End), numRange(st.Dur),
		symRange(st.Mission), symRange(st.Actor), symRange(st.ID),
	})
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	bodyFrameEnd := 16 + le.Uint32(blob[8:12])
	out := append([]byte("GRNLCOL1"), blob[8:bodyFrameEnd]...)
	out = le.AppendUint32(out, uint32(len(stats)))
	out = le.AppendUint32(out, crc32.Checksum(stats, crc32.MakeTable(crc32.Castagnoli)))
	out = append(out, stats...)
	out = le.AppendUint32(out, uint32(8+len(stats)))
	return append(out, "GCT1"...)
}

// TestQuery2UpgradesV1Segments: sidecars in the v1 layout do not
// decode, so /query2 answers from the in-memory columns — byte for byte
// the oracle — and rewrites each scanned sidecar in the current layout.
func TestQuery2UpgradesV1Segments(t *testing.T) {
	const n = 12
	ts, store, db := startAggServer(t, t.TempDir(), n)
	for _, id := range store.ids() {
		blob, ok, err := db.GetSegment(id)
		if err != nil || !ok {
			t.Fatalf("segment %s: ok=%v err=%v", id, ok, err)
		}
		old := v1Segment(t, blob)
		if _, _, err := query.DecodeSegment(old); err == nil {
			t.Fatalf("v1 segment of %s decodes as current", id)
		}
		if err := db.PutSegment(id, old); err != nil {
			t.Fatal(err)
		}
	}

	for _, raw := range []string{
		`from jobs group by mission agg count, sum(duration), p50(duration)`,
		`from jobs where job.runtime > 22 group by job.platform agg count, max(job.runtime)`,
		`from jobs where start > 1000000 group by mission`,
	} {
		want := oracleQuery2(t, store, raw)
		code, got, _ := getQuery2(t, ts.URL, raw)
		if code != http.StatusOK {
			t.Fatalf("%q: %d: %s", raw, code, got)
		}
		if string(got) != string(want) {
			t.Fatalf("%q over v1 segments diverges from oracle:\n%s\nvs\n%s", raw, got, want)
		}
	}
	for _, id := range store.ids() {
		blob, _, err := db.GetSegment(id)
		if err != nil {
			t.Fatal(err)
		}
		// Only the current layout decodes, so success means rewritten.
		_, st, err := query.DecodeSegment(blob)
		if err != nil {
			t.Fatalf("segment %s not rewritten: %v", id, err)
		}
		if st.JobVersion != store.version(id) {
			t.Fatalf("segment %s rewritten at version %d, want %d", id, st.JobVersion, store.version(id))
		}
	}
}

// TestQuery2FanOutOrderAndLowestError pins the fan-out contract at any
// GOMAXPROCS (CI runs it at -cpu 1,4): partials come back in index
// order with skipped jobs left out, and of several failing jobs the
// lowest index's error is returned, as the serial loop would.
func TestQuery2FanOutOrderAndLowestError(t *testing.T) {
	const n = 200
	for run := 0; run < 20; run++ {
		got, err := partialsInOrder(n, func(i int) (query.JobPartial, bool, error) {
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

		_, err = partialsInOrder(n, func(i int) (query.JobPartial, bool, error) {
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

// TestQuery2LazyRebuild: a missing or corrupt segment falls back to the
// in-memory columns, answers correctly, and rewrites the sidecar.
func TestQuery2LazyRebuild(t *testing.T) {
	dir := t.TempDir()
	ts, store, db := startAggServer(t, dir, 8)

	// One segment vanishes (pre-v2 archive); one is corrupted in place.
	if err := os.Remove(filepath.Join(dir, "cols", hex.EncodeToString([]byte("agg-002"))+".gcol")); err != nil {
		t.Fatal(err)
	}
	if err := db.PutSegment("agg-005", []byte("not a segment")); err != nil {
		t.Fatal(err)
	}
	raw := `from jobs group by mission agg count, sum(duration), p50(duration)`
	want := oracleQuery2(t, store, raw)
	code, got, _ := getQuery2(t, ts.URL, raw)
	if code != http.StatusOK {
		t.Fatalf("%d: %s", code, got)
	}
	if string(got) != string(want) {
		t.Fatalf("rebuild path diverges from oracle:\n%s\nvs\n%s", got, want)
	}
	for _, id := range []string{"agg-002", "agg-005"} {
		blob, ok, err := db.GetSegment(id)
		if err != nil || !ok {
			t.Fatalf("segment %s not rebuilt: ok=%v err=%v", id, ok, err)
		}
		if _, _, err := query.DecodeSegment(blob); err != nil {
			t.Fatalf("rebuilt segment %s does not decode: %v", id, err)
		}
	}
}

// TestQuery2DeleteNoResurrect pins the ride-along bugfix: deleting a
// job from the archive database drops its segment, so cross-job
// aggregation excludes it after a process restart (no resurrection
// from a stale sidecar file).
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

// TestQuery2Validation: the endpoint only serves cross-job aggregates
// over summary fields; everything else gets a specific 400.
func TestQuery2Validation(t *testing.T) {
	ts, _, _ := startAggServer(t, t.TempDir(), 2)

	for _, tc := range []struct {
		raw  string
		code int
	}{
		{``, http.StatusBadRequest},                                              // missing q
		{`mission = Compute`, http.StatusBadRequest},                             // not an aggregate
		{`group by mission`, http.StatusBadRequest},                              // single-job scope
		{`from jobs where (`, http.StatusBadRequest},                             // parse error
		{`from jobs where info.K = 1 group by mission`, http.StatusBadRequest},   // needs ops
		{`from jobs group by mission agg max(derived.D)`, http.StatusBadRequest}, // needs ops
		{`from jobs group by mission`, http.StatusOK},
	} {
		code, body, _ := getQuery2(t, ts.URL, tc.raw)
		if code != tc.code {
			t.Errorf("%q: %d (want %d): %s", tc.raw, code, tc.code, body)
		}
	}
}

// TestSingleJobAggregateEndpoint: aggregate queries on /jobs/{id}/query
// run over that one job (and, unlike /query2, may use info./derived.
// because the in-memory columns carry operations).
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
	jp, err := q.AggregateTree(sj.Job, jobMeta("agg-001", sj.Summary))
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
