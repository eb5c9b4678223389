package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// maxProxyBytes caps proxied request bodies, matching the shards' own
// submit cap so the router rejects oversized bodies before buffering
// them toward a shard that would 413 anyway.
const maxProxyBytes = 1 << 20

// maxIngestProxyBytes caps proxied /ingest batches, matching the
// shards' own ingest cap (larger than submit bodies — a batch carries
// many events).
const maxIngestProxyBytes = 4 << 20

// DeadlineHeader carries the client's absolute deadline (Unix
// milliseconds) from the router to the shards: the router stamps it on
// every forwarded request so a shard stops working on an answer nobody
// is waiting for, and clients may set it themselves to bound a whole
// routed request including failover. See Router.boundCtx.
const DeadlineHeader = "X-Granula-Deadline"

// defaultRetryBudget bounds failover attempts per routed request when
// RouterOptions.RetryBudget is 0: the first attempt plus this many
// retries. It caps retry storms — with every owner slow, a request
// costs at most 1+budget shard timeouts, not R of them.
const defaultRetryBudget = 3

// RouterOptions tunes NewRouter; zero values select defaults.
type RouterOptions struct {
	// Client issues the proxied requests; nil selects a 60 s timeout
	// client. Tests swap in partitioned transports here.
	Client *http.Client
	// Metrics receives the granula_router_* counters; nil creates a
	// private set (still reachable via Metrics()).
	Metrics *RouterMetrics
	// RepairEvery issues a background replica-divergence probe on every
	// Nth successful job read: the served ETag is revalidated against
	// another replica and divergent or missing records are repaired from
	// the newer side. 0 disables probing (failover-triggered repair
	// still runs).
	RepairEvery int
	// HealthTimeout bounds the per-shard /healthz probes behind /cluster
	// and /healthz; 0 selects 1 s.
	HealthTimeout time.Duration
	// Detector, when set, makes routing failure-aware: owners the
	// detector marks Down are demoted to the tail of every replica set
	// (writes promote the next ring owner, reads route around the
	// corpse), and transport errors seen by the proxy feed the detector
	// passively. The router does not start or stop the detector.
	Detector *Detector
	// RetryBudget caps failover retries per routed request: the first
	// attempt is free, each further owner costs one retry. 0 selects
	// defaultRetryBudget; < 0 removes the cap (every owner is tried, the
	// pre-budget behavior).
	RetryBudget int
}

// Router is the thin stateless front of a granula-serve cluster: it
// consistent-hashes job IDs onto the shard map's replica sets, proxies
// submits to the primary (failing over down the replica list), spreads
// job reads across replicas (follower reads), and repairs replicas that
// miss records or diverge. All routing state is derived from the static
// map — the router holds no per-job state and any number of router
// instances can front the same shards.
type Router struct {
	m      *Map
	client *http.Client
	// peer speaks the cluster-internal protocol for read-repair, over
	// the same client.
	peer peerClient
	// streamClient carries the long-lived /watch pass-throughs: same
	// transport as client, but no overall timeout — a healthy SSE tail
	// legitimately outlives any request deadline.
	streamClient *http.Client
	metrics      *RouterMetrics
	repairN      int
	healthT      time.Duration
	repairT      time.Duration // background probe/repair deadline
	det          *Detector
	budget       int // failover retries per request; < 0 = unlimited
	handler      http.Handler

	rr    atomic.Uint64 // follower-read rotation
	seq   atomic.Uint64 // router-assigned job IDs
	reads atomic.Uint64 // successful job reads, for RepairEvery

	repairWG sync.WaitGroup
}

// NewRouter builds a router over a validated shard map.
func NewRouter(m *Map, opts RouterOptions) *Router {
	c := opts.Client
	if c == nil {
		c = &http.Client{Timeout: 60 * time.Second}
	}
	mt := opts.Metrics
	if mt == nil {
		mt = newRouterMetrics()
	}
	mt.shardMap.Bind(func(e *metrics.Emitter) { writeShardMap(e, m) })
	ht := opts.HealthTimeout
	if ht <= 0 {
		ht = time.Second
	}
	// Background probes and repairs run without a request context, so
	// they need their own deadline. The client's Timeout is the natural
	// bound, but a caller-supplied client may leave it 0 (unbounded) —
	// which must not become a zero-length repair deadline.
	repairT := c.Timeout
	if repairT <= 0 {
		repairT = 60 * time.Second
	}
	budget := opts.RetryBudget
	if budget == 0 {
		budget = defaultRetryBudget
	}
	rt := &Router{
		m: m, client: c, peer: peerClient{client: c},
		streamClient: &http.Client{Transport: c.Transport},
		metrics:      mt, repairN: opts.RepairEvery, healthT: ht, repairT: repairT,
		det: opts.Detector, budget: budget,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", rt.handleSubmit)
	mux.HandleFunc("GET /jobs", rt.handleList)
	mux.HandleFunc("GET /jobs/{id}", rt.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", rt.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/archive", rt.handleRead)
	mux.HandleFunc("GET /jobs/{id}/query", rt.handleRead)
	mux.HandleFunc("GET /jobs/{id}/viz/{kind}", rt.handleRead)
	mux.HandleFunc("GET "+Query2Path, rt.handleQuery2)
	mux.HandleFunc("POST /ingest/{id}", rt.handleIngest)
	mux.HandleFunc("GET /watch/{id}", rt.handleWatch)
	mux.HandleFunc("POST /diff", rt.handleDiff)
	mux.HandleFunc("GET "+ClusterPath, rt.handleCluster)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.handler = mux
	return rt
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.handler }

// WaitRepairs blocks until every dispatched background repair and
// divergence probe has finished; tests use it to assert repair effects
// deterministically.
func (rt *Router) WaitRepairs() { rt.repairWG.Wait() }

// writeRouterError emits the JSON error envelope a node writes, byte
// for byte: encoding/json's indented form, which escapes HTML
// characters and replaces invalid UTF-8.
func writeRouterError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// proxyResult is one shard's answer to a forwarded request.
type proxyResult struct {
	node   Node
	status int
	header http.Header
	body   []byte
	// stream is a streamed request's open 200 body, left for
	// writeProxied to relay; body is unset then.
	stream io.ReadCloser
	err    error // transport-level failure; status/header/body are unset
}

// forward sends one routed request to one shard: it is the only code
// that reaches a shard's public API. It passes the client's negotiation
// headers and the deadline the router works under, so the shard stops
// serving an answer the client has already given up on; it times and
// counts the request against the shard; and it feeds the failure
// detector, passively. Only a transport failure counts as a miss — a
// shard answering any HTTP status, even 5xx, is alive (it may be
// degraded read-only, which is not death and must not trigger
// promotion). The response is buffered, except a streamed request's
// 200: that body stays open, sent on the no-timeout streamClient.
func (rt *Router) forward(ctx context.Context, n Node, method, pathq string, body []byte, hdr http.Header, stream bool) (res proxyResult) {
	start := time.Now()
	defer func() {
		rt.metrics.requests.With(n.ID).Inc()
		rt.metrics.latency.With(n.ID).Observe(time.Since(start).Seconds())
		if rt.det != nil {
			rt.det.observe(n.ID, res.err == nil)
		}
	}()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, n.URL+pathq, rd)
	if err != nil {
		return proxyResult{node: n, err: err}
	}
	for _, k := range []string{"Content-Type", "If-None-Match", "Accept", "Last-Event-ID"} {
		if v := hdr.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(DeadlineHeader, strconv.FormatInt(dl.UnixMilli(), 10))
	}
	client := rt.client
	if stream {
		client = rt.streamClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return proxyResult{node: n, err: err}
	}
	res = proxyResult{node: n, status: resp.StatusCode, header: resp.Header}
	if stream && resp.StatusCode == http.StatusOK {
		res.stream = resp.Body
		return res
	}
	defer resp.Body.Close()
	size := resp.ContentLength
	if method == http.MethodHead {
		size = -1 // the length of the body a GET would have had
	}
	if res.body, err = readSized(resp.Body, size); err != nil {
		return proxyResult{node: n, err: err}
	}
	return res
}

// writeProxied relays one shard response to the client, stamping the
// serving shard. Bodies pass through untouched — the cluster's
// byte-determinism contract is that these are exactly the bytes a
// single-node granula-serve would have written. An open stream is
// relayed chunk by chunk, each flushed so a frame reaches the client
// the moment the shard emits it, until either side closes.
func (rt *Router) writeProxied(w http.ResponseWriter, res proxyResult) {
	for _, k := range []string{"Content-Type", "ETag", "Retry-After", "X-Granula-Expected-Seq"} {
		if v := res.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.Header().Set(ShardHeader, res.node.ID)
	if res.stream == nil {
		w.WriteHeader(res.status)
		w.Write(res.body)
		return
	}
	defer res.stream.Close()
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(res.status)
	rc := http.NewResponseController(w)
	rc.Flush()
	buf := make([]byte, 4096)
	for {
		nr, rerr := res.stream.Read(buf)
		if nr > 0 {
			if _, werr := w.Write(buf[:nr]); werr != nil {
				return
			}
			rc.Flush()
		}
		if rerr != nil {
			return
		}
	}
}

// boundCtx derives the request context the whole routed attempt chain
// runs under. A client-supplied X-Granula-Deadline (absolute Unix
// milliseconds) becomes a real context deadline, so failover attempts
// stop the moment the client's budget is spent — a slow shard cannot
// make the router exceed the client's timeout by retrying elsewhere.
func (rt *Router) boundCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if h := r.Header.Get(DeadlineHeader); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			return context.WithDeadline(r.Context(), time.UnixMilli(ms))
		}
	}
	return context.WithCancel(r.Context())
}

// routeOrder applies the failure detector's verdicts to a replica set:
// owners marked Down are demoted to the tail (kept as last resorts —
// the detector can be wrong), everything else keeps its ring order.
// For writes this is automatic promotion — with the primary down, the
// next ring owner becomes the first (and under hinted handoff,
// quorum-satisfying) target. Suspect nodes keep their position: a
// latency spike must not reorder routing, only confirmed death does.
// countPromotions, when true, counts a demoted former head.
func (rt *Router) routeOrder(owners []Node, countPromotions bool) []Node {
	if rt.det == nil || len(owners) < 2 {
		return owners
	}
	live := make([]Node, 0, len(owners))
	var dead []Node
	for _, n := range owners {
		if rt.det.isDown(n.ID) {
			dead = append(dead, n)
		} else {
			live = append(live, n)
		}
	}
	if len(dead) == 0 || len(live) == 0 {
		return owners
	}
	if countPromotions && dead[0].ID == owners[0].ID {
		rt.metrics.promotions.Inc()
	}
	return append(live, dead...)
}

// tryOwners forwards the request to owners in order until one returns a
// non-retriable response, and is the router's only owner loop.
// Retriable results (transport errors, 5xx, and — when failoverMisses —
// 404/409 from replicas that may simply not hold the record yet) fail
// over to the next owner and are counted against the shard that
// failed, bounded by the per-request retry budget and the request
// deadline (see boundCtx). When a later owner serves a 2xx after an
// earlier one answered 404, the missing replica is queued for
// read-repair. If every attempted owner fails, the least-bad response
// is returned: a definitive client error beats a 5xx beats a transport
// error; a spent deadline answers 504. stream is forward's: a served
// 200 is relayed as it arrives. The served result, if any, is returned.
func (rt *Router) tryOwners(w http.ResponseWriter, r *http.Request, owners []Node, method, pathq string, body []byte, failoverMisses, stream bool) *proxyResult {
	ctx, cancel := rt.boundCtx(r)
	defer cancel()
	var (
		best      *proxyResult // least-bad failed answer
		missed404 []Node       // owners that answered 404, repair targets
	)
	rank := func(res proxyResult) int {
		switch {
		case res.err != nil:
			return 0
		case res.status >= 500:
			return 1
		default:
			return 2 // definitive HTTP answer (e.g. 404 everywhere)
		}
	}
	for i, n := range owners {
		if rt.budget >= 0 && i > rt.budget {
			break // retry budget spent; answer with the least-bad result
		}
		if ctx.Err() != nil {
			rt.metrics.exhausted.Inc()
			writeRouterError(w, http.StatusGatewayTimeout,
				"deadline exceeded after %d attempts for %s %s", i, method, pathq)
			return nil
		}
		res := rt.forward(ctx, n, method, pathq, body, r.Header, stream)
		miss := res.status == http.StatusNotFound || res.status == http.StatusConflict
		retry := res.err != nil || res.status >= 500 || (failoverMisses && miss)
		if retry && res.err != nil && ctx.Err() != nil {
			// The transport error is (or masks) the deadline expiring;
			// report the timeout rather than a misleading 502.
			rt.metrics.failovers.With(n.ID).Inc()
			rt.metrics.exhausted.Inc()
			writeRouterError(w, http.StatusGatewayTimeout,
				"deadline exceeded after %d attempts for %s %s", i+1, method, pathq)
			return nil
		}
		if !retry {
			if res.status < 300 && len(missed404) > 0 {
				rt.scheduleRepairs(r.PathValue("id"), res.node, missed404)
			}
			rt.writeProxied(w, res)
			return &res
		}
		if res.err == nil && res.status == http.StatusNotFound {
			missed404 = append(missed404, n)
		}
		rt.metrics.failovers.With(n.ID).Inc()
		if best == nil || rank(res) > rank(*best) {
			best = &res
		}
	}
	rt.metrics.exhausted.Inc()
	if best == nil || best.err != nil {
		writeRouterError(w, http.StatusBadGateway, "no shard reachable for %s %s", method, pathq)
		return nil
	}
	rt.writeProxied(w, *best)
	return nil
}

// readBody reads a routed request's body up to limit, answering the way
// a node does when it cannot: 413 for an oversized body, 400 otherwise.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeRouterError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	case err != nil:
		writeRouterError(w, http.StatusBadRequest, "read request: %v", err)
	default:
		return body, true
	}
	return nil, false
}

// handleSubmit routes POST /jobs to the job's primary, failing over
// down the replica set when the primary is unreachable or degraded. A
// request without an ID gets a router-assigned one first — placement
// needs the ID before any shard sees the request.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxProxyBytes)
	if !ok {
		return
	}
	var peek struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &peek); err != nil {
		writeRouterError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if peek.ID == "" {
		// Rewrite the body with an assigned ID. The roundtrip through a
		// generic map keeps every client field; the shards re-validate.
		var fields map[string]any
		if err := json.Unmarshal(body, &fields); err != nil {
			writeRouterError(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		peek.ID = fmt.Sprintf("job-r%06d", rt.seq.Add(1))
		fields["id"] = peek.ID
		var err error
		if body, err = json.Marshal(fields); err != nil {
			writeRouterError(w, http.StatusInternalServerError, "rewrite request: %v", err)
			return
		}
	}
	owners := rt.routeOrder(rt.m.owners(peek.ID), true)
	rt.tryOwners(w, r, owners, http.MethodPost, "/jobs", body, false, false)
}

// handleStatus routes GET /jobs/{id} primary-first: the primary's
// executor holds the authoritative lifecycle state; replicas answer
// from their store fallback when the primary is down.
func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.tryOwners(w, r, rt.routeOrder(rt.m.owners(id), false), http.MethodGet, "/jobs/"+id, nil, true, false)
}

// handleCancel routes DELETE /jobs/{id} primary-first; only the shard
// whose executor queued the job can cancel it.
func (rt *Router) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.tryOwners(w, r, rt.routeOrder(rt.m.owners(id), false), http.MethodDelete, "/jobs/"+id, nil, true, false)
}

// handleRead serves the job-scoped read endpoints (/archive, /query,
// /viz/*) with follower reads: the replica set is rotated per request
// so read throughput scales with R, with failover (and repair of 404 replicas) when the
// chosen follower misses. Every RepairEvery-th successful read also
// revalidates the served ETag against another replica in the
// background, catching divergence that failover alone would not
// surface.
func (rt *Router) handleRead(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	owners := rt.m.owners(id)
	if len(owners) > 1 {
		start := int(rt.rr.Add(1)) % len(owners)
		rotated := make([]Node, 0, len(owners))
		rotated = append(rotated, owners[start:]...)
		rotated = append(rotated, owners[:start]...)
		owners = rotated
	}
	// Detector demotion applies after rotation: follower reads still
	// spread across the live replicas, but a Down node never takes the
	// first attempt.
	owners = rt.routeOrder(owners, false)
	pathq := r.URL.RequestURI()

	// Divergence probe bookkeeping happens before the response is
	// written so the probe sees exactly what was served.
	probe := rt.repairN > 0 && len(owners) > 1 && rt.reads.Add(1)%uint64(rt.repairN) == 0

	served := rt.tryOwners(w, r, owners, http.MethodGet, pathq, nil, true, false)
	if probe && served != nil && served.status == http.StatusOK {
		etag := served.header.Get("ETag")
		if etag != "" {
			other := rt.otherOwner(owners, served.node)
			if other.ID != "" {
				rt.repairWG.Add(1)
				go rt.probeDivergence(id, pathq, etag, served.node, other)
			}
		}
	}
}

// otherOwner picks the replica after served in the set, for probing.
func (rt *Router) otherOwner(owners []Node, served Node) Node {
	for i, n := range owners {
		if n.ID == served.ID {
			return owners[(i+1)%len(owners)]
		}
	}
	if len(owners) > 0 {
		return owners[0]
	}
	return Node{}
}

// probeDivergence revalidates a served ETag against another replica. A
// 304 means the replicas agree byte-for-byte. A 200 with a different
// ETag, or a 404, means the replica diverged (stale version or missing
// record) and a version-directed repair is dispatched.
func (rt *Router) probeDivergence(id, pathq, etag string, served, other Node) {
	defer rt.repairWG.Done()
	ctx, cancel := context.WithTimeout(context.Background(), rt.repairT)
	defer cancel()
	hdr := http.Header{}
	hdr.Set("If-None-Match", etag)
	res := rt.forward(ctx, other, http.MethodGet, pathq, nil, hdr, false)
	if res.err != nil {
		rt.metrics.probesClean.Inc()
		return
	}
	divergent := res.status == http.StatusNotFound ||
		(res.status == http.StatusOK && res.header.Get("ETag") != etag)
	pick(divergent, rt.metrics.probesDivergent, rt.metrics.probesClean).Inc()
	if divergent {
		rt.repairPair(id, served, other)
	}
}

// scheduleRepairs queues background repairs pushing id's record from
// the shard that served it to every replica that answered 404.
func (rt *Router) scheduleRepairs(id string, from Node, missing []Node) {
	if id == "" {
		return
	}
	for _, n := range missing {
		rt.repairWG.Add(1)
		go func(n Node) {
			defer rt.repairWG.Done()
			rt.repairPair(id, from, n)
		}(n)
	}
}

// repairPair converges two replicas on a job record: it exports the
// record from both sides and pushes the newer version to the older (or
// the only copy to the empty side). The replicate endpoint is
// idempotent by (ID, version), so racing repairs and replication
// retries are harmless.
func (rt *Router) repairPair(id string, a, b Node) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.repairT)
	defer cancel()
	exA, okA := rt.peer.export(ctx, a, id)
	exB, okB := rt.peer.export(ctx, b, id)
	switch {
	case okA && (!okB || exA.Version > exB.Version):
		rt.pushRepair(ctx, b, exA)
	case okB && (!okA || exB.Version > exA.Version):
		rt.pushRepair(ctx, a, exB)
	}
}

// pushRepair replicates a record onto a shard and counts the repair.
func (rt *Router) pushRepair(ctx context.Context, n Node, rec ReplicaRecord) {
	if _, err := rt.peer.replicate(ctx, n, rec); err == nil {
		rt.metrics.repairs.Inc()
	}
}

// scatter sends GET pathq to every shard concurrently and returns the
// answers in map order: the router's only fan-out.
func (rt *Router) scatter(ctx context.Context, pathq string, hdr http.Header) []proxyResult {
	out := make([]proxyResult, len(rt.m.Shards))
	var wg sync.WaitGroup
	for i, n := range rt.m.Shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = rt.forward(ctx, n, http.MethodGet, pathq, nil, hdr, false)
		}()
	}
	wg.Wait()
	return out
}

// setShardsDown names the shards a fan-out skipped.
func setShardsDown(w http.ResponseWriter, down []string) {
	if len(down) > 0 {
		sort.Strings(down)
		w.Header()["X-Granula-Shards-Down"] = []string{fmt.Sprint(down)}
	}
}

// handleList fans GET /jobs out to every shard and merges the states
// sorted by job ID. Unreachable shards are skipped — the merged listing
// is the union of the live shards' views and carries a header naming
// any shard that did not answer.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := rt.boundCtx(r)
	defer cancel()
	type keyed struct {
		id  string
		raw json.RawMessage
	}
	var all []keyed
	var down []string
	for _, res := range rt.scatter(ctx, "/jobs", r.Header) {
		var lr struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		if res.err != nil || res.status != http.StatusOK || json.Unmarshal(res.body, &lr) != nil {
			down = append(down, res.node.ID)
			continue
		}
		for _, raw := range lr.Jobs {
			var peek struct {
				ID string `json:"id"`
			}
			json.Unmarshal(raw, &peek)
			all = append(all, keyed{id: peek.ID, raw: raw})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	jobs := make([]json.RawMessage, 0, len(all))
	for _, k := range all {
		jobs = append(jobs, k.raw)
	}
	setShardsDown(w, down)
	out := struct {
		Count int               `json:"count"`
		Jobs  []json.RawMessage `json:"jobs"`
	}{Count: len(jobs), Jobs: jobs}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		writeRouterError(w, http.StatusInternalServerError, "merge listings: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(buf, '\n'))
}

// handleIngest routes POST /ingest/{id} to the job's primary, failing
// over only on transport errors and 5xx — a live stream is stateful on
// whichever shard accepted its first batch, so 404/409 answers are
// definitive, not misses to retry elsewhere. If the primary dies
// mid-stream a failed-over batch lands on a replica with no stream
// state and answers 409 with the expected sequence 1; the client's
// replay from the start is idempotent and rebuilds the stream there.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, ok := readBody(w, r, maxIngestProxyBytes)
	if !ok {
		return
	}
	rt.tryOwners(w, r, rt.routeOrder(rt.m.owners(id), true), http.MethodPost, "/ingest/"+id, body, false, false)
}

// handleWatch routes GET /watch/{id}, the SSE tail and its ?poll=1
// long-poll fallback alike, the way reads are routed: primary-first,
// with a 404/409 from a shard that does not hold the stream failing
// over to the next owner. Failover is connect-time only — an open tail
// is relayed as it arrives, because switching shards mid-stream could
// replay or skip frames. A dropped tail is resumed by the client
// reconnecting with Last-Event-ID, which is forwarded.
func (rt *Router) handleWatch(w http.ResponseWriter, r *http.Request) {
	stream := r.URL.Query().Get("poll") != "1"
	rt.tryOwners(w, r, rt.routeOrder(rt.m.owners(r.PathValue("id")), false), http.MethodGet, r.URL.RequestURI(), nil, true, stream)
}

// handleDiff routes POST /diff to the baseline job's primary. Both jobs
// must live on that shard's replica set — with R >= 2 most pairs do;
// cross-shard pairs answer 404 from the owning shard and are documented
// as a router limitation.
func (rt *Router) handleDiff(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxProxyBytes)
	if !ok {
		return
	}
	var peek struct {
		BaselineID string `json:"baselineId"`
	}
	if err := json.Unmarshal(body, &peek); err != nil {
		writeRouterError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if peek.BaselineID == "" {
		writeRouterError(w, http.StatusBadRequest, "diff request needs a baselineId")
		return
	}
	rt.tryOwners(w, r, rt.routeOrder(rt.m.owners(peek.BaselineID), false), http.MethodPost, "/diff", body, false, false)
}

// shardHealth is one shard's row in the router's /cluster view.
type shardHealth struct {
	ID       string          `json:"id"`
	URL      string          `json:"url"`
	Status   string          `json:"status"`             // up | down (this probe)
	Detector string          `json:"detector,omitempty"` // up | suspect | down (hysteresis verdict)
	Health   json.RawMessage `json:"health,omitempty"`
}

// clusterView is the router's /cluster response: the full map plus live
// per-shard health.
type clusterView struct {
	Mode   string        `json:"mode"`
	Map    *Map          `json:"map"`
	Shards []shardHealth `json:"shards"`
}

// probeShards polls every shard's /healthz concurrently.
func (rt *Router) probeShards(ctx context.Context) []shardHealth {
	ctx, cancel := context.WithTimeout(ctx, rt.healthT)
	defer cancel()
	out := make([]shardHealth, len(rt.m.Shards))
	for i, res := range rt.scatter(ctx, "/healthz", nil) {
		sh := shardHealth{ID: res.node.ID, URL: res.node.URL, Status: "down"}
		if rt.det != nil {
			sh.Detector = rt.det.stateOf(res.node.ID).String()
		}
		if res.err == nil && res.status == http.StatusOK && json.Valid(res.body) {
			sh.Status, sh.Health = "up", res.body
		}
		out[i] = sh
	}
	return out
}

func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	view := clusterView{Mode: "router", Map: rt.m, Shards: rt.probeShards(r.Context())}
	buf, err := json.MarshalIndent(view, "", "  ")
	if err != nil {
		writeRouterError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(buf, '\n'))
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	shards := rt.probeShards(r.Context())
	up := 0
	for _, s := range shards {
		if s.Status == "up" {
			up++
		}
	}
	status := "ok"
	if up < len(shards) {
		status = "degraded"
	}
	if up == 0 {
		status = "down"
	}
	out := struct {
		Status     string `json:"status"`
		Shards     int    `json:"shards"`
		Reachable  int    `json:"reachable"`
		MapVersion uint64 `json:"mapVersion"`
	}{Status: status, Shards: len(shards), Reachable: up, MapVersion: rt.m.Version}
	buf, _ := json.MarshalIndent(out, "", "  ")
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(buf, '\n'))
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.metrics.writePrometheus(w)
}
