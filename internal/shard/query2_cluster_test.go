package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/shard"
)

// TestClusterQuery2ByteEquivalence extends the determinism contract to
// cross-job aggregation: for the same jobs, /query2 bytes served by the
// router's scatter-gather (R=2, so every partial arrives twice and must
// be deduped) equal the bytes a single granula-serve node renders.
// Sharding, replication, and shard arrival order must be invisible in
// the body.
func TestClusterQuery2ByteEquivalence(t *testing.T) {
	metrics := service.NewMetrics()
	store := nodeStore(t)
	exec := service.NewExecutorWith(2, 64, store, metrics, service.ExecutorOptions{HostParallelism: 1})
	defer exec.Shutdown(context.Background())
	single := httptest.NewServer(service.NewServerWith(exec, store, metrics, service.ServerOptions{}).Handler())
	defer single.Close()

	c := startCluster(t, clusterConfig{shards: 3, replication: 2, quorum: 2, nosync: true})

	reqs := []service.JobRequest{
		{ID: "q2-001", Platform: "Giraph", Algorithm: "BFS", Vertices: 150, Edges: 600, Seed: 1},
		{ID: "q2-002", Platform: "PowerGraph", Algorithm: "PageRank", Vertices: 150, Edges: 600, Seed: 2, Iterations: 4},
		{ID: "q2-003", Platform: "OpenG", Algorithm: "BFS", Vertices: 150, Edges: 600, Seed: 3},
		{ID: "q2-004", Platform: "Giraph", Algorithm: "SSSP", Vertices: 150, Edges: 600, Seed: 4},
		{ID: "q2-005", Platform: "PowerGraph", Algorithm: "WCC", Vertices: 150, Edges: 600, Seed: 5},
		{ID: "q2-006", Platform: "Giraph", Algorithm: "PageRank", Vertices: 150, Edges: 600, Seed: 6, Iterations: 4},
	}
	primaries := map[string]bool{}
	for _, req := range reqs {
		primaries[c.m.Owners(req.ID)[0].ID] = true
		if !postJob(single.URL, req) {
			t.Fatalf("single node rejected %s", req.ID)
		}
		if !postJob(c.rts.URL, req) {
			t.Fatalf("router rejected %s", req.ID)
		}
	}
	if len(primaries) < 2 {
		t.Fatalf("all jobs hash to one shard (%v); pick different IDs", primaries)
	}
	for _, req := range reqs {
		if !pollDone(single.URL, req.ID, 60*time.Second) {
			t.Fatalf("single node did not finish %s", req.ID)
		}
		if !pollDone(c.rts.URL, req.ID, 60*time.Second) {
			t.Fatalf("cluster did not finish %s", req.ID)
		}
	}

	queries := []string{
		`from jobs group by mission agg count, sum(duration), avg(duration), p95(duration)`,
		`from jobs where job.platform = Giraph group by job.algorithm agg count, max(job.runtime)`,
		`from jobs where mission = Superstep group by actor agg count, sum(duration) order by sum(duration) desc limit 5`,
		`from jobs top 3 job.platform by count`,
		`from jobs where start > 1000000000 group by mission`, // prunable everywhere
		`from jobs where derived.PercentOfJob > 10 group by job.platform, mission agg count, max(derived.CPUSeconds)`,
		`from jobs group by info.Superstep agg max(duration)`,
		`from jobs where mission = LoadGraph group by job.platform agg max(derived.PercentOfJob), min(derived.PercentOfJob)`,
	}
	for _, raw := range queries {
		path := shard.Query2Path + "?" + url.Values{"q": {raw}}.Encode()
		wantCode, want, _ := mustGet(t, single.URL+path)
		gotCode, got, hdr := mustGet(t, c.rts.URL+path)
		if wantCode != http.StatusOK || gotCode != http.StatusOK {
			t.Fatalf("%q: single %d, routed %d: %s", raw, wantCode, gotCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%q: routed bytes differ from single-node bytes:\n%s\nvs\n%s", raw, got, want)
		}
		if down := hdr.Get("X-Granula-Shards-Down"); down != "" {
			t.Fatalf("%q: shards down: %s", raw, down)
		}
		// Post-dedupe accounting: R=2 delivers ~2N partials, but the
		// merged counts must describe the N distinct jobs, same as the
		// single node would report.
		scanned, _ := strconv.Atoi(hdr.Get(shard.ScannedHeader))
		pruned, _ := strconv.Atoi(hdr.Get(shard.PrunedHeader))
		if scanned+pruned != len(reqs) {
			t.Fatalf("%q: scanned %d + pruned %d != %d distinct jobs", raw, scanned, pruned, len(reqs))
		}
	}

	// Validation parity: the router rejects what a shard would reject,
	// without fanning out garbage.
	for _, raw := range []string{``, `mission = X`, `group by mission`, `from jobs where (`} {
		path := shard.Query2Path + "?" + url.Values{"q": {raw}}.Encode()
		code, body, _ := mustGet(t, c.rts.URL+path)
		if code != http.StatusBadRequest {
			t.Fatalf("%q through router: %d: %s", raw, code, body)
		}
	}
}

// TestQuery2ErrorBodyMatchesNode pins that the router refuses a bad
// /query2 with the bytes a node writes — valid JSON even when the
// message holds invalid UTF-8, and HTML characters escaped the same
// way.
func TestQuery2ErrorBodyMatchesNode(t *testing.T) {
	metrics := service.NewMetrics()
	store := nodeStore(t)
	exec := service.NewExecutorWith(1, 4, store, metrics, service.ExecutorOptions{HostParallelism: 1})
	defer exec.Shutdown(context.Background())
	node := httptest.NewServer(service.NewServerWith(exec, store, metrics, service.ServerOptions{}).Handler())
	defer node.Close()
	m, err := shard.NewMap(1, []shard.Node{{ID: "s1", URL: node.URL}}, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(shard.NewRouter(m, shard.RouterOptions{}).Handler())
	defer router.Close()

	for _, raw := range []string{
		"from jobs group by mission agg sum(\xff x",
		`from jobs group by mission agg sum(< x`,
		`from jobs group by <&>`,
		``, `mission = X`, `from jobs group by mission agg avg(actor)`,
	} {
		path := shard.Query2Path + "?" + url.Values{"q": {raw}}.Encode()
		wantCode, want, _ := mustGet(t, node.URL+path)
		gotCode, got, _ := mustGet(t, router.URL+path)
		if wantCode != http.StatusBadRequest || gotCode != http.StatusBadRequest {
			t.Fatalf("%q: node %d, router %d", raw, wantCode, gotCode)
		}
		if !bytes.Equal(got, want) || !json.Valid(got) {
			t.Fatalf("%q: router body %q, node body %q (valid JSON: %v)", raw, got, want, json.Valid(got))
		}
	}
}

// TestQuery2RelaysShardRefusal: a shard that refuses a query the router
// accepted (say, one running an older query language) is not down. The
// router answers with the shard's status and body instead of an empty
// 200 that names the shard in X-Granula-Shards-Down.
func TestQuery2RelaysShardRefusal(t *testing.T) {
	const refusal = `{"error":"query2 is not served here"}`
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(refusal))
	}))
	defer node.Close()
	m, err := shard.NewMap(1, []shard.Node{{ID: "s1", URL: node.URL}}, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(shard.NewRouter(m, shard.RouterOptions{}).Handler())
	defer router.Close()

	path := shard.Query2Path + "?" + url.Values{"q": {`from jobs group by mission`}}.Encode()
	code, body, hdr := mustGet(t, router.URL+path)
	if code != http.StatusBadRequest || string(body) != refusal {
		t.Fatalf("router answered %d %s, want the shard's 400 %s", code, body, refusal)
	}
	if down := hdr.Get("X-Granula-Shards-Down"); down != "" {
		t.Fatalf("refusing shard reported down: %s", down)
	}
}
