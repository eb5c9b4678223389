package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"testing"

	"repro/internal/archive"
	"repro/internal/shard"
)

// goldenQueries are the aggregates whose wire bytes the golden pins:
// sum and avg, min and max over string and number fields, percentiles,
// info. and derived. fields and a group key too wide to pack densely.
// The corpus holds one job whose root spans ±1e308, so its duration
// is +Inf and every query meets a non-finite value.
var goldenQueries = []struct{ where, agg string }{
	{"", `group by mission agg count, sum(duration), avg(duration)`},
	{"", `group by job.platform agg min(actor), max(mission), min(duration), max(end)`},
	{`depth >= 1`, `group by actor agg p95(duration), p50(start), count`},
	{"", `group by info.Superstep agg count, max(derived.PercentOfJob), min(derived.CPUSeconds) order by count desc`},
	{`duration > 2`, `group by mission, actor, id agg sum(duration), max(duration) limit 4`},
	{"", `top 2 actor by sum(duration)`},
}

// goldenCorpus stores three aggregate test jobs and the non-finite one.
func goldenCorpus(t *testing.T, store *Store) {
	t.Helper()
	fillAggStore(t, store, 3)
	huge := &archive.Job{ID: "agg-inf", Platform: "Giraph", Root: &archive.Operation{
		ID: "agg-inf-r", Mission: "Job", Actor: "Client", Start: -1e308, End: 1e308,
		Infos: map[string]string{"Superstep": "x"},
		Children: []*archive.Operation{
			{ID: "agg-inf-s", Mission: "Superstep", Actor: "Worker-9", Start: 0, End: 3.25,
				Derived: map[string]string{"PercentOfJob": "NaN", "CPUSeconds": "-1"}},
		},
	}}
	if err := store.Put(huge, Summary{ID: "agg-inf", Platform: "Giraph", Algorithm: "BFS", Runtime: 7, Supersteps: 1, Operations: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestQuery2WireGolden pins the body bytes of GET /internal/query2 (the
// per-job partials the router merges) and of the single-job aggregate
// endpoint, GET /jobs/{id}/query?q=, for a fixed corpus and queries.
// testdata/query2_wire.golden is a reference, not an output: when the
// bytes move on purpose, paste the printed body in and review the diff.
func TestQuery2WireGolden(t *testing.T) {
	store := tempStore(t)
	goldenCorpus(t, store)
	ts := httptest.NewServer(NewServerWith(nil, store, nil, ServerOptions{}).Handler())
	t.Cleanup(ts.Close)

	var got bytes.Buffer
	get := func(path string) {
		code, body := httpGet(t, ts.URL+path)
		if code != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, code, body)
		}
		fmt.Fprintf(&got, "== GET %s\n%s", path, body)
	}
	for _, gq := range goldenQueries {
		raw := "from jobs " + gq.agg
		if gq.where != "" {
			raw = "from jobs where " + gq.where + " " + gq.agg
		}
		get(shard.InternalQuery2Path + "?q=" + url.QueryEscape(raw))
	}
	for _, id := range []string{"agg-001", "agg-inf"} {
		for _, gq := range goldenQueries {
			raw := gq.agg
			if gq.where != "" {
				raw = gq.where + " " + gq.agg
			}
			get("/jobs/" + id + "/query?q=" + url.QueryEscape(raw))
		}
	}
	want, err := os.ReadFile("testdata/query2_wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("query2 wire bytes moved from testdata/query2_wire.golden; got:\n%s", got.Bytes())
	}
}
