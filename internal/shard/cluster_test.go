// Cluster end-to-end tests: real granula-serve stacks — archivedb WAL,
// store, executor with replication fan-out, HTTP server — behind a real
// router, in one process. The external test package keeps the
// dependency direction honest (shard itself must not import service)
// while exercising the same wiring cmd/granula-serve and
// cmd/granula-router perform.
package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"context"

	"repro/internal/archivedb"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/stream"
)

// clusterShard is one in-process granula-serve shard: its own WAL
// directory, store, executor, and HTTP server on a real listener whose
// address stays stable across kill and restart — the shard map names
// that address, so a restarted shard must come back on it.
type clusterShard struct {
	id        string
	url       string
	addr      string
	dir       string
	m         *shard.Map
	workers   int
	nosync    bool
	commitWin time.Duration

	// Self-healing wiring (when the cluster runs with selfHeal): the
	// shard-side detector, hint drainer, and anti-entropy sweep, all
	// sharing the partition-aware client so network faults injected at
	// the transport affect shard-to-shard traffic too.
	selfHeal   bool
	client     *http.Client
	probeEvery time.Duration
	drainEvery time.Duration
	sweepEvery time.Duration
	downAfter  int

	httpSrv *http.Server
	db      *archivedb.DB
	store   *service.Store
	exec    *service.Executor
	det     *shard.Detector
	drainer *shard.Drainer
	ae      *shard.AntiEntropy
	heal    *shard.SelfHealMetrics
	up      bool
}

func (cs *clusterShard) start(t *testing.T, ln net.Listener) {
	t.Helper()
	db, err := archivedb.Open(cs.dir, archivedb.Options{NoSync: cs.nosync, GroupCommitWindow: cs.commitWin})
	if err != nil {
		t.Fatal(err)
	}
	metrics := service.NewMetrics()
	store, err := service.NewStoreWithOptions(db, service.StoreOptions{Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	repOpts := shard.ReplicatorOptions{Client: cs.client}
	if cs.selfHeal {
		cs.heal = shard.NewSelfHealMetrics()
		cs.det = shard.NewDetector(cs.m, cs.id, shard.DetectorOptions{
			Client: cs.client, Interval: cs.probeEvery, DownAfter: cs.downAfter, Metrics: cs.heal,
		})
		cs.heal.SetDetector(cs.det)
		cs.heal.SetHintGauge(store.HintCount)
		repOpts.Hints = store
		repOpts.Detector = cs.det
		repOpts.SelfHeal = cs.heal
	}
	rep, err := shard.NewReplicator(cs.id, cs.m, repOpts)
	if err != nil {
		t.Fatal(err)
	}
	exec := service.NewExecutorWith(cs.workers, 64, store, metrics, service.ExecutorOptions{
		Replicator:      rep,
		HostParallelism: 1, // parallelism never changes bytes; 1 keeps N shards from oversubscribing the host
	})
	srv := service.NewServerWith(exec, store, metrics, service.ServerOptions{
		ShardID:      cs.id,
		Cluster:      cs.m,
		ExtraMetrics: rep.Metrics().WritePrometheus,
	})
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	cs.httpSrv, cs.db, cs.store, cs.exec = hs, db, store, exec
	if cs.selfHeal {
		cs.drainer = shard.NewDrainer(cs.m, store, shard.DrainerOptions{
			Client: cs.client, Interval: cs.drainEvery, Detector: cs.det, Metrics: cs.heal,
		})
		cs.ae, err = shard.NewAntiEntropy(cs.id, cs.m, store, shard.AntiEntropyOptions{
			Client: cs.client, Interval: cs.sweepEvery, Detector: cs.det, Metrics: cs.heal,
		})
		if err != nil {
			t.Fatal(err)
		}
		cs.det.Start()
		cs.drainer.Start()
		cs.ae.Start()
	}
	cs.up = true
}

// kill tears the shard down: HTTP first (the address goes dark), then
// the executor with a short deadline so in-flight jobs abort rather
// than drain, then storage. Safe to call from non-test goroutines.
func (cs *clusterShard) kill() {
	if !cs.up {
		return
	}
	cs.up = false
	cs.httpSrv.Close()
	if cs.selfHeal {
		cs.det.Close()
		cs.drainer.Close()
		cs.ae.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	cs.exec.Shutdown(ctx)
	cancel()
	cs.store.Close()
	cs.db.Close()
}

// restart brings the shard back on its original address, recovering
// its state from the WAL like a restarted process would.
func (cs *clusterShard) restart(t *testing.T) {
	t.Helper()
	var ln net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", cs.addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", cs.addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cs.start(t, ln)
}

type cluster struct {
	m      *shard.Map
	shards []*clusterShard
	part   *shard.Partition
	router *shard.Router
	rts    *httptest.Server
	det    *shard.Detector        // router-side failure detector (selfHeal)
	heal   *shard.SelfHealMetrics // router-side detector counters (selfHeal)
}

type clusterConfig struct {
	shards      int
	replication int
	quorum      int
	repairEvery int
	workers     int
	nosync      bool
	commitWin   time.Duration // WAL group-commit window per shard

	// selfHeal wires the full self-healing stack: per-shard detector +
	// hint journal + drainer + anti-entropy, and a detector on the
	// router. All heartbeat/drain/sweep traffic goes through the same
	// partition transport as the router's, so injected network faults
	// hit every path.
	selfHeal    bool
	probeEvery  time.Duration // detector probe period; 0 selects 20ms
	drainEvery  time.Duration // hint drain period; 0 selects 50ms
	sweepEvery  time.Duration // anti-entropy period; 0 selects 100ms
	downAfter   int           // detector DownAfter override
	retryBudget int           // router retry budget (0 = default)
}

func startCluster(t *testing.T, cfg clusterConfig) *cluster {
	t.Helper()
	if cfg.workers == 0 {
		cfg.workers = 2
	}
	lns := make([]net.Listener, cfg.shards)
	nodes := make([]shard.Node, cfg.shards)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		nodes[i] = shard.Node{
			ID:  fmt.Sprintf("s%d", i+1),
			URL: "http://" + ln.Addr().String(),
		}
	}
	m, err := shard.NewMap(1, nodes, cfg.replication, cfg.quorum, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{m: m, part: shard.NewPartition()}
	if cfg.probeEvery == 0 {
		cfg.probeEvery = 20 * time.Millisecond
	}
	if cfg.drainEvery == 0 {
		cfg.drainEvery = 50 * time.Millisecond
	}
	if cfg.sweepEvery == 0 {
		cfg.sweepEvery = 100 * time.Millisecond
	}
	for i, node := range nodes {
		cs := &clusterShard{
			id: node.ID, url: node.URL, addr: lns[i].Addr().String(),
			dir: t.TempDir(), m: m, workers: cfg.workers, nosync: cfg.nosync,
			commitWin: cfg.commitWin,
			selfHeal:  cfg.selfHeal, client: c.part.Client(),
			probeEvery: cfg.probeEvery, drainEvery: cfg.drainEvery,
			sweepEvery: cfg.sweepEvery, downAfter: cfg.downAfter,
		}
		cs.start(t, lns[i])
		c.shards = append(c.shards, cs)
	}
	if cfg.selfHeal {
		c.heal = shard.NewSelfHealMetrics()
		c.det = shard.NewDetector(m, "", shard.DetectorOptions{
			Client: c.part.Client(), Interval: cfg.probeEvery,
			DownAfter: cfg.downAfter, Metrics: c.heal,
		})
		c.heal.SetDetector(c.det)
		c.det.Start()
	}
	c.router = shard.NewRouter(m, shard.RouterOptions{
		Client:        c.part.Client(),
		RepairEvery:   cfg.repairEvery,
		HealthTimeout: 500 * time.Millisecond,
		Detector:      c.det,
		RetryBudget:   cfg.retryBudget,
	})
	c.rts = httptest.NewServer(c.router.Handler())
	t.Cleanup(func() {
		c.rts.Close()
		if c.det != nil {
			c.det.Close()
		}
		c.router.WaitRepairs()
		for _, cs := range c.shards {
			cs.kill()
		}
	})
	return c
}

func clusterJob(id string, seed int64) service.JobRequest {
	return service.JobRequest{
		ID: id, Platform: "Giraph", Algorithm: "BFS",
		Vertices: 120, Edges: 480, Seed: seed,
	}
}

// postJob submits without failing the test, so storms can ride out a
// dying shard; the bool reports acceptance.
func postJob(base string, req service.JobRequest) bool {
	buf, err := json.Marshal(req)
	if err != nil {
		return false
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusAccepted
}

// pollDone polls a job through the router until it reaches done (true)
// or fails, vanishes with its shard, or times out (false). Transport
// and 5xx errors are tolerated: polling rides through failovers.
func pollDone(base, id string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				var st service.JobState
				if json.Unmarshal(body, &st) == nil {
					switch st.Status {
					case service.StatusDone:
						return true
					case service.StatusFailed, service.StatusCanceled:
						return false
					}
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// mustGet fetches a router URL and fails the test on any 5xx — the
// no-client-visible-5xx-on-reads contract of the chaos scenarios.
func mustGet(t *testing.T, rawurl string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(rawurl)
	if err != nil {
		t.Fatalf("GET %s: %v", rawurl, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 500 {
		t.Fatalf("GET %s: %s: %s", rawurl, resp.Status, body)
	}
	return resp.StatusCode, body, resp.Header
}

// TestClusterRouterByteEquivalence pins the determinism contract of the
// whole cluster: for a fixed shard map, /archive and /query bytes
// served through the router equal the bytes a single granula-serve
// node produces for the same jobs. Clients must not be able to tell
// sharding happened.
func TestClusterRouterByteEquivalence(t *testing.T) {
	metrics := service.NewMetrics()
	store, err := service.NewStoreWithOptions(nil, service.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exec := service.NewExecutorWith(2, 64, store, metrics, service.ExecutorOptions{HostParallelism: 1})
	defer exec.Shutdown(context.Background())
	single := httptest.NewServer(service.NewServerWith(exec, store, metrics, service.ServerOptions{}).Handler())
	defer single.Close()

	c := startCluster(t, clusterConfig{shards: 3, replication: 3, quorum: 2, repairEvery: 4, nosync: true})

	reqs := []service.JobRequest{
		{ID: "eq-001", Platform: "Giraph", Algorithm: "BFS", Vertices: 150, Edges: 600, Seed: 1},
		{ID: "eq-002", Platform: "PowerGraph", Algorithm: "PageRank", Vertices: 150, Edges: 600, Seed: 2, Iterations: 4},
		{ID: "eq-003", Platform: "OpenG", Algorithm: "BFS", Vertices: 150, Edges: 600, Seed: 3},
		{ID: "eq-004", Platform: "Giraph", Algorithm: "SSSP", Vertices: 150, Edges: 600, Seed: 4},
		{ID: "eq-005", Platform: "PowerGraph", Algorithm: "WCC", Vertices: 150, Edges: 600, Seed: 5},
		{ID: "eq-006", Platform: "Giraph", Algorithm: "PageRank", Vertices: 150, Edges: 600, Seed: 6, Iterations: 4},
	}
	// The explicit IDs must not all land on one shard, or the test
	// would not exercise routing at all.
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
		t.Fatalf("all equivalence jobs hash to one shard (%v); pick different IDs", primaries)
	}
	for _, req := range reqs {
		if !pollDone(single.URL, req.ID, 60*time.Second) {
			t.Fatalf("single node did not finish %s", req.ID)
		}
		if !pollDone(c.rts.URL, req.ID, 60*time.Second) {
			t.Fatalf("cluster did not finish %s", req.ID)
		}
	}

	q := url.Values{"q": {`actor ~ "Worker" and duration > 0.0001 order by duration desc limit 10`}}.Encode()
	for _, req := range reqs {
		for _, path := range []string{
			"/jobs/" + req.ID + "/archive",
			"/jobs/" + req.ID + "/query?" + q,
		} {
			wantCode, want, wantHdr := mustGet(t, single.URL+path)
			gotCode, got, gotHdr := mustGet(t, c.rts.URL+path)
			if wantCode != http.StatusOK || gotCode != http.StatusOK {
				t.Fatalf("%s: single %d, routed %d", path, wantCode, gotCode)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: routed bytes differ from single-node bytes (%d vs %d bytes)",
					path, len(got), len(want))
			}
			if g, w := gotHdr.Get("ETag"), wantHdr.Get("ETag"); g != w {
				t.Fatalf("%s: ETag %q through the router, %q single-node", path, g, w)
			}
			if gotHdr.Get(shard.ShardHeader) == "" {
				t.Errorf("%s: routed response is missing %s", path, shard.ShardHeader)
			}
		}
	}
}

// TestClusterChaos is the cluster durability scenario the subsystem
// exists for: a 3-shard cluster (R=3, W=2) takes a concurrent write
// storm through the router while one shard is killed mid-storm. Every
// job the client saw reach done must stay readable with the shard
// down, with no client-visible 5xx; after the shard restarts from its
// WAL, reads repair it back to convergence; a network partition of a
// second shard must also leave every acked job readable.
func TestClusterChaos(t *testing.T) {
	c := startCluster(t, clusterConfig{shards: 3, replication: 3, quorum: 2, repairEvery: 1, nosync: true})
	base := c.rts.URL
	victim := c.shards[1]

	const clients, perClient = 3, 8
	killAt := make(chan struct{})
	var killOnce sync.Once
	killed := make(chan struct{})
	go func() {
		<-killAt
		victim.kill()
		close(killed)
	}()

	var mu sync.Mutex
	var acked []string
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				id := fmt.Sprintf("chaos-%d-%02d", cl, j)
				if !postJob(base, clusterJob(id, int64(cl*100+j))) {
					continue
				}
				if cl == 0 && j == 2 {
					killOnce.Do(func() { close(killAt) })
				}
				if pollDone(base, id, 30*time.Second) {
					mu.Lock()
					acked = append(acked, id)
					mu.Unlock()
				}
			}
		}(cl)
	}
	wg.Wait()
	killOnce.Do(func() { close(killAt) }) // storm too fast for the trigger? kill anyway
	<-killed

	// The cluster must have made real progress through the kill: jobs
	// whose primary died fail over, jobs running on the victim may be
	// lost (the client never saw done for those).
	if len(acked) < clients*perClient/2 {
		t.Fatalf("only %d/%d jobs reached done through the kill", len(acked), clients*perClient)
	}

	// One shard down: every acked job must still be readable through
	// the router. W=2 of 3 guarantees at least one live replica holds
	// each acked job; mustGet fails the test on any 5xx.
	for _, id := range acked {
		if code, body, _ := mustGet(t, base+"/jobs/"+id+"/archive"); code != http.StatusOK {
			t.Fatalf("acked %s unreadable with one shard down: %d %s", id, code, body)
		}
	}
	if shard.MetricSum(t, c.router.WriteMetrics, "granula_router_failovers_total") == 0 {
		t.Fatal("a killed shard produced no failovers")
	}

	// Aggregate health must degrade, not die.
	_, body, _ := mustGet(t, base+"/healthz")
	var health struct {
		Status    string `json:"status"`
		Reachable int    `json:"reachable"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.Reachable != 2 {
		t.Fatalf("healthz with one shard down = %s", body)
	}

	// Restart the victim from its WAL and let reads repair it: with
	// RepairEvery=1 every read probes a replica, and 404 failovers push
	// the newest copy back. Convergence = the victim exports every
	// acked job.
	victim.restart(t)
	waitShardHealthy(t, victim.url)
	deadline := time.Now().Add(30 * time.Second)
	for {
		// Read each job once per replica: the follower-read rotation
		// advances per request, so three consecutive reads of one job
		// cover every rotation start, including the one that hits the
		// restarted shard's 404 (which is what triggers its repair).
		for _, id := range acked {
			for range c.shards {
				mustGet(t, base+"/jobs/"+id+"/archive")
			}
		}
		c.router.WaitRepairs()
		if missing := missingOn(victim, acked); len(missing) == 0 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("victim still missing %d jobs after repair sweeps: %v", len(missing), missing)
		}
	}
	if readRepairs(t, c) == 0 {
		t.Fatal("restart convergence happened without a single read-repair")
	}

	// Partition a different shard at the router (transport-level, the
	// shard itself stays healthy): reads must fail over around it.
	c.part.Block(c.shards[0].url)
	defer c.part.Heal()
	for _, id := range acked {
		if code, body, _ := mustGet(t, base+"/jobs/"+id+"/archive"); code != http.StatusOK {
			t.Fatalf("acked %s unreadable during partition: %d %s", id, code, body)
		}
	}
	if c.part.Dropped() == 0 {
		t.Fatal("partition dropped no requests — reads never touched the blocked shard")
	}
}

// waitShardHealthy polls a shard's own /healthz until it answers.
func waitShardHealthy(t *testing.T, shardURL string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(shardURL + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("shard %s did not come back", shardURL)
}

// missingOn lists the acked jobs a shard cannot export locally.
func missingOn(cs *clusterShard, ids []string) []string {
	var missing []string
	for _, id := range ids {
		resp, err := http.Get(cs.url + shard.ExportPathPrefix + id)
		if err != nil {
			missing = append(missing, id)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			missing = append(missing, id)
		}
	}
	return missing
}

// clusterStreamEvents is a tiny well-formed live stream: a root with
// one child operation and an env sample, sealed done at t=4.
func clusterStreamEvents() []stream.Event {
	return []stream.Event{
		{Seq: 1, Type: "start", Time: 0, Op: "op-1", Actor: "Client", Mission: "Job"},
		{Seq: 2, Type: "start", Time: 1, Op: "op-2", Parent: "op-1", Actor: "Worker-0", Mission: "Load"},
		{Seq: 3, Type: "info", Time: 1.5, Op: "op-2", Key: "Bytes", Value: "4096"},
		{Seq: 4, Type: "env", Time: 2, Node: "node-0", Kind: "cpu", Used: 0.8},
		{Seq: 5, Type: "end", Time: 3, Op: "op-2"},
		{Seq: 6, Type: "end", Time: 4, Op: "op-1"},
		{Seq: 7, Type: stream.TypeSeal, Time: 4, Platform: "Giraph", Algorithm: "BFS", State: stream.StateDone},
	}
}

// ingestVia POSTs an event batch through the given base URL and returns
// the status, decoded ack, and response headers.
func ingestVia(t *testing.T, base, id string, events []stream.Event) (int, map[string]any, http.Header) {
	t.Helper()
	body, err := stream.EncodeEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/ingest/"+id, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	ack := map[string]any{}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(payload, &ack); err != nil {
			t.Fatalf("bad ack: %v: %s", err, payload)
		}
	}
	return resp.StatusCode, ack, resp.Header
}

// TestClusterStreamTailThroughRouter pins satellite coverage for the
// router's SSE pass-through: a live job ingested through the router is
// tailed through the router, frames arrive incrementally with the
// owning shard stamped, and the sealed archive is readable afterwards.
func TestClusterStreamTailThroughRouter(t *testing.T) {
	c := startCluster(t, clusterConfig{shards: 3, replication: 2, quorum: 1, nosync: true})
	events := clusterStreamEvents()
	const id = "live-tail"

	code, ack, _ := ingestVia(t, c.rts.URL, id, events[:4])
	if code != http.StatusOK || ack["state"] != "streaming" {
		t.Fatalf("open stream via router: %d %v", code, ack)
	}
	if st, _, _ := mustGet(t, c.rts.URL+"/jobs/"+id); st != http.StatusOK {
		t.Fatalf("status via router: %d", st)
	}

	go func() {
		time.Sleep(150 * time.Millisecond)
		body, _ := stream.EncodeEvents(events)
		resp, err := http.Post(c.rts.URL+"/ingest/"+id, "application/x-ndjson", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	req, err := http.NewRequest(http.MethodGet, c.rts.URL+"/watch/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := &http.Client{} // no timeout: the tail closes at the seal frame
	resp, err := tc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("watch via router: %d %v: %s", resp.StatusCode, err, text)
	}
	if resp.Header.Get(shard.ShardHeader) == "" {
		t.Fatal("watch response lacks owning-shard header")
	}
	for _, want := range []string{"id: 1\nevent: op\n", "id: 4\nevent: env\n", "id: 7\nevent: seal\n"} {
		if !bytes.Contains(text, []byte(want)) {
			t.Fatalf("router tail missing %q:\n%s", want, text)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, _, _ := mustGet(t, c.rts.URL+"/jobs/"+id+"/archive"); st == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sealed archive never became readable through the router")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterStreamFailoverReplay pins the mid-stream failover
// contract: when the primary dies with a half-streamed job, the next
// batch lands on a follower that answers 409 with expected seq 1, and
// the client's idempotent replay from the start rebuilds the stream
// there — no acked event is lost to the client's view.
func TestClusterStreamFailoverReplay(t *testing.T) {
	c := startCluster(t, clusterConfig{shards: 3, replication: 2, quorum: 1, nosync: true})
	events := clusterStreamEvents()
	const id = "live-failover"

	if code, _, _ := ingestVia(t, c.rts.URL, id, events[:4]); code != http.StatusOK {
		t.Fatalf("open stream: %d", code)
	}
	primary := c.m.Owners(id)[0].ID
	for _, cs := range c.shards {
		if cs.id == primary {
			cs.kill()
		}
	}

	// The router fails over the next batch to a follower with no stream
	// state; the 409 names the sequence the client must rewind to.
	code, _, hdr := ingestVia(t, c.rts.URL, id, events[4:])
	if code != http.StatusConflict {
		t.Fatalf("post-kill batch: %d, want 409", code)
	}
	if got := hdr.Get("X-Granula-Expected-Seq"); got != "1" {
		t.Fatalf("expected-seq after failover = %q, want 1", got)
	}

	code, ack, _ := ingestVia(t, c.rts.URL, id, events)
	if code != http.StatusOK || ack["state"] != "archived" {
		t.Fatalf("replay after failover: %d %v", code, ack)
	}
	if st, body, _ := mustGet(t, c.rts.URL+"/jobs/"+id+"/archive"); st != http.StatusOK || !bytes.Contains(body, []byte("op-2")) {
		t.Fatalf("archive after failover replay: %d: %s", st, body)
	}
}
