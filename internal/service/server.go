package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/regression"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/viz"
)

// maxSubmitBytes caps the POST /jobs and POST /diff request bodies; an
// oversized body is rejected with 413 before it is buffered.
const maxSubmitBytes = 1 << 20

// Fault-injection points on the HTTP layer.
const (
	// siteSubmit is hit at the top of POST /jobs.
	siteSubmit = "http.submit"
	// siteQuery is hit at the top of GET /jobs/{id}/query.
	siteQuery = "http.query"
)

// Server is the HTTP face of the service: it routes the JSON API over
// one executor, one store, and one metrics registry.
type Server struct {
	exec    *Executor
	store   *Store
	metrics *Metrics
	faults  *faults.Injector
	resp    *respCache
	handler http.Handler

	shardID string
	cluster *shard.Map
	extra   func(io.Writer)

	// streams holds live (in-flight) jobs: externally ingested streams
	// and in-process jobs mirrored by the executor's sinks.
	streams   *stream.Manager
	heartbeat time.Duration
	// watchRace, when set, runs between a watch handler's two reads of a
	// live job (its state, then its log), so a test can land a seal in
	// exactly that window. Always nil outside tests.
	watchRace func()
	// closing is closed by EndTails; the /watch loops select on it.
	closing     chan struct{}
	closingOnce sync.Once

	// durableMu guards durable, the per-live-job high-water sequence
	// already persisted as stream batches; an ingest ack implies the
	// batch is at or below this mark.
	durableMu sync.Mutex
	durable   map[string]uint64

	// jitterMu guards jitter, the source behind Retry-After values.
	// Randomizing the hint spreads retries from shed clients over a
	// window instead of synchronizing them into a thundering herd one
	// second later.
	jitterMu sync.Mutex
	jitter   *rand.Rand
}

// ServerOptions tunes the server's robustness and caching behavior.
type ServerOptions struct {
	// Faults is the chaos injector threaded through the handlers; nil
	// injects nothing.
	Faults *faults.Injector
	// RespCacheSize bounds the HTTP response cache: 0 selects the
	// default capacity, < 0 serves every request from the handler (used
	// by equivalence tests).
	RespCacheSize int
	// ShardID names this node in a cluster; empty means single-node.
	// It is echoed in /healthz and /cluster.
	ShardID string
	// Cluster is the shard map this node serves under; nil means
	// single-node. /cluster echoes it so operators can confirm every
	// node converged on the same map version.
	Cluster *shard.Map
	// ExtraMetrics, when set, is appended to the /metrics exposition
	// after the core families; the replication metrics ride here.
	ExtraMetrics func(io.Writer)
	// Streams is the live-job manager shared with the executor (so
	// in-process jobs stream their own supersteps); nil creates a
	// private manager with default bounds.
	Streams *stream.Manager
	// WatchHeartbeat is the /watch SSE keep-alive comment interval;
	// 0 selects 15 s.
	WatchHeartbeat time.Duration
}

// NewServerWith wires the API routes. Metrics may be nil, in which case
// a fresh registry is created.
func NewServerWith(exec *Executor, store *Store, m *Metrics, opts ServerOptions) *Server {
	if m == nil {
		m = NewMetrics()
	}
	s := &Server{
		exec: exec, store: store, metrics: m, faults: opts.Faults,
		shardID: opts.ShardID, cluster: opts.Cluster, extra: opts.ExtraMetrics,
		streams: opts.Streams, heartbeat: opts.WatchHeartbeat,
		closing: make(chan struct{}),
		durable: map[string]uint64{},
		jitter:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if s.streams == nil {
		s.streams = stream.NewManager(stream.Config{})
	}
	if s.heartbeat <= 0 {
		s.heartbeat = 15 * time.Second
	}
	if opts.RespCacheSize >= 0 {
		s.resp = newRespCache(opts.RespCacheSize)
	}
	m.gauges.Bind(func(e *metrics.Emitter) {
		writeGauges(e, exec.QueueDepth(), store.Len(), store.breakerStatus())
	})
	m.tail.Bind(func(e *metrics.Emitter) {
		writeCaches(e, s.cacheStats())
		writeStorage(e, store.storageStats())
		writeLiveJobs(e, s.streams.Live())
	})
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, h))
	}
	route("POST /jobs", s.handleSubmit)
	route("GET /jobs", s.handleList)
	route("GET /jobs/{id}", s.handleStatus)
	route("DELETE /jobs/{id}", s.handleCancel)
	route("GET /jobs/{id}/archive", s.cached(s.handleArchive))
	route("GET /jobs/{id}/query", s.cached(s.handleQuery))
	route("GET "+shard.Query2Path, s.cached(s.handleQuery2))
	route("GET "+shard.InternalQuery2Path, s.handleInternalQuery2)
	route("GET /jobs/{id}/viz/{kind}", s.cached(s.handleViz))
	route("POST /ingest/{id}", s.handleIngest)
	route("GET /watch/{id}", s.handleWatch)
	route("POST /diff", s.handleDiff)
	route("GET /healthz", s.handleHealthz)
	route("GET /metrics", s.handleMetrics)
	route("POST "+shard.ReplicatePath, s.handleReplicate)
	route("GET "+shard.ExportPathPrefix+"{id}", s.handleExport)
	route("GET "+shard.ClusterPath, s.handleCluster)
	route("GET "+shard.HealthPath, s.handleInternalHealth)
	route("GET "+shard.DigestPath, s.handleDigest)
	s.handler = mux
	s.recoverStreams()
	return s
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// EndTails ends every open /watch tail, SSE and long-poll, and makes a
// later one return after its first batch. http.Server.Shutdown waits
// for active connections without canceling their requests, so a tail
// of an unsealed job would otherwise hold the whole drain budget away
// from the executor; register EndTails with RegisterOnShutdown. A cut
// tail resumes with Last-Event-ID, as it does after a restart.
func (s *Server) EndTails() { s.closingOnce.Do(func() { close(s.closing) }) }

// instrument records request latency under the route pattern and
// isolates handler panics: a panicking handler (from a bug or an
// injected fault) answers 500 instead of tearing down the connection,
// and the panic is counted so chaos runs can assert isolation worked.
// It also honors X-Granula-Deadline: a router (or client) propagating
// its absolute deadline gets a handler context that expires with it,
// so the shard stops working on answers nobody is waiting for.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hd := r.Header.Get(shard.DeadlineHeader); hd != "" {
			if ms, err := strconv.ParseInt(hd, 10, 64); err == nil && ms > 0 {
				ctx, cancel := context.WithDeadline(r.Context(), time.UnixMilli(ms))
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.panics.Inc()
				// Best effort: if the handler already wrote headers this
				// write is a no-op on the status line, which is fine.
				writeError(w, http.StatusInternalServerError, "internal panic: %v", rec)
			}
			s.metrics.requests.With(pattern).Observe(time.Since(start).Seconds())
		}()
		h(w, r)
	})
}

// setRetryAfter stamps a jittered Retry-After of 1-3 seconds. A fixed
// "1" would synchronize every shed client into a retry storm exactly
// one second later; the spread drains the herd over a window.
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	s.jitterMu.Lock()
	secs := 1 + s.jitter.Intn(3)
	s.jitterMu.Unlock()
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON writes v as indented JSON. encoding/json emits struct
// fields in declaration order and map keys sorted, and every slice the
// API returns is explicitly ordered, so responses are byte-stable.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// submitResponse acknowledges a queued job.
type submitResponse struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
}

// decodeBody decodes a JSON request body capped at maxSubmitBytes,
// distinguishing an oversized body (413) from malformed JSON (400).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if err := s.faults.Fail(siteSubmit); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if s.store.readOnly() {
		// Degraded read-only mode: reads keep serving, submits are shed
		// until the breaker's probe confirms storage recovered.
		s.metrics.shed.Inc()
		s.setRetryAfter(w)
		writeError(w, http.StatusServiceUnavailable, "%v", errDegraded)
		return
	}
	var req JobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	id, err := s.exec.submit(req)
	if err == errQueueFull {
		s.setRetryAfter(w)
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{ID: id, Status: statusQueued})
}

// listResponse enumerates every submitted job in submission order.
type listResponse struct {
	Count int        `json:"count"`
	Jobs  []JobState `json:"jobs"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	states := s.exec.listStates()
	writeJSON(w, http.StatusOK, listResponse{Count: len(states), Jobs: states})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.exec.jobState(id)
	if !ok {
		// The executor never saw this job, but the store may hold its
		// archive anyway: jobs replicated from another shard, and jobs
		// restored from the archive database after a restart, exist only
		// as archives. Synthesize the terminal state from the summary so
		// status survives primary failover and process restarts.
		if sj, stored := s.store.get(id); stored {
			sum := sj.Summary
			writeJSON(w, http.StatusOK, JobState{
				ID:      id,
				Request: JobRequest{Platform: sum.Platform, Algorithm: sum.Algorithm, ID: id},
				Status:  StatusDone,
				Summary: &sum,
			})
			return
		}
		if lj, live := s.streams.Get(id); live {
			// An externally streamed job: no executor record, just the
			// growing stream. Expose its progress as a streaming state.
			events, completed, open := lj.Progress()
			platform, algorithm := lj.Meta()
			writeJSON(w, http.StatusOK, JobState{
				ID:      id,
				Request: JobRequest{Platform: platform, Algorithm: algorithm, ID: id},
				Status:  statusStreaming,
				Stream: &StreamProgress{
					Events: events, CompletedOps: completed, OpenOps: open,
					LastSeq: lj.LastSeq(),
				},
			})
			return
		}
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.exec.jobState(id); !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	if !s.exec.cancelJob(id) {
		writeError(w, http.StatusConflict, "job %q is no longer cancelable", id)
		return
	}
	st, _ := s.exec.jobState(id)
	writeJSON(w, http.StatusOK, st)
}

// storedJob resolves a job ID to its archived result, writing the
// appropriate error (404 for unknown, 409 for not-yet-done) otherwise.
func (s *Server) storedJob(w http.ResponseWriter, id string) (*storedJob, bool) {
	sj, ok := s.store.get(id)
	if ok {
		return sj, true
	}
	if st, known := s.exec.jobState(id); known {
		writeError(w, http.StatusConflict, "job %q is %s, no archive yet", id, st.Status)
	} else {
		writeError(w, http.StatusNotFound, "no job %q", id)
	}
	return nil, false
}

func (s *Server) handleArchive(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sj, ok := s.storedJob(w, id)
	if !ok {
		return
	}
	a := archive.New()
	a.Jobs = append(a.Jobs, sj.Job)
	w.Header().Set("Content-Type", "application/json")
	a.Save(w)
}

// operationView is the flat JSON projection of one operation.
type operationView struct {
	ID       string            `json:"id"`
	Actor    string            `json:"actor"`
	Mission  string            `json:"mission"`
	Path     string            `json:"path"`
	Start    float64           `json:"start"`
	End      float64           `json:"end"`
	Duration float64           `json:"duration"`
	Infos    map[string]string `json:"infos,omitempty"`
	Derived  map[string]string `json:"derived,omitempty"`
}

func viewOps(ops []*archive.Operation) []operationView {
	out := make([]operationView, 0, len(ops))
	for _, op := range ops {
		out = append(out, operationView{
			ID: op.ID, Actor: op.Actor, Mission: op.Mission, Path: pathKey(op),
			Start: op.Start, End: op.End, Duration: op.Duration(),
			Infos: op.Infos, Derived: op.Derived,
		})
	}
	return out
}

// queryResponse carries the operations matched by a query. The live
// fields are set only for queries answered from a still-streaming job
// (omitted on sealed archives, so archived responses are byte-stable
// across this feature).
type queryResponse struct {
	JobID      string          `json:"jobId"`
	Count      int             `json:"count"`
	Operations []operationView `json:"operations"`
	Live       bool            `json:"live,omitempty"`
	LastSeq    uint64          `json:"lastSeq,omitempty"`
}

// handleQuery serves GET /jobs/{id}/query. Exactly one selector is
// required: ?q= runs the internal/query language; ?mission=, ?actor=,
// and ?path= select the operations whose field equals the value
// exactly. All four are one scan of the job's columns. A job that is
// still streaming (no archive yet) answers from its incremental columns
// over completed operations, marked live so the response cache never
// files the moving bytes.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if err := s.faults.Fail(siteQuery); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	id := r.PathValue("id")
	sj, stored := s.store.get(id)
	var live *stream.Job
	if !stored {
		if lj, ok := s.streams.Get(id); ok {
			live = lj
		} else if st, known := s.exec.jobState(id); known {
			writeError(w, http.StatusConflict, "job %q is %s, no archive yet", id, st.Status)
			return
		} else {
			writeError(w, http.StatusNotFound, "no job %q", id)
			return
		}
	}
	params := r.URL.Query()
	selectors, selector := 0, ""
	for _, k := range []string{"q", "mission", "actor", "path"} {
		if params.Has(k) {
			selectors++
			selector = k
		}
	}
	if selectors != 1 {
		writeError(w, http.StatusBadRequest,
			"need exactly one of q=, mission=, actor=, path= (got %d)", selectors)
		return
	}
	// The live watermark is read before the data: the stream may grow
	// while the response renders, so LastSeq is a lower bound on what
	// the operations reflect.
	var lastSeq uint64
	if live != nil {
		lastSeq = live.LastSeq()
	}
	var q *query.Query
	if selector == "q" {
		var err error
		if q, err = query.Parse(params.Get("q")); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if q.IsAggregate() {
			s.handleJobAggregate(w, id, params.Get("q"), q, sj, live)
			return
		}
	} else {
		q = query.Exact(selector, params.Get(selector))
	}
	var cols *query.Columns
	if live != nil {
		// Snapshot of the incremental columns: completed operations in
		// completion order, race-free against concurrent ingest.
		cols = live.Columns()
	} else {
		// Built at Put time in depth-first order; SelectColumns returns
		// exactly what q.Select(sj.Job) would.
		cols = sj.Cols
	}
	ops := q.SelectColumns(cols)
	resp := queryResponse{JobID: id, Count: len(ops), Operations: viewOps(ops)}
	if live != nil {
		resp.Live = true
		resp.LastSeq = lastSeq
		w.Header().Set(liveHeader, "1")
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJobAggregate answers an aggregate ?q= on /jobs/{id}/query:
// the same v2 language scoped to one job. Runs over the job's
// in-memory columns — the operation details are at hand, so
// info./derived. group fields work here (unlike the segment-only
// /query2 path). Live jobs are refused: their summary (job.runtime
// and friends) does not exist until the job seals.
func (s *Server) handleJobAggregate(w http.ResponseWriter, id, raw string, q *query.Query, sj *storedJob, live *stream.Job) {
	if q.FromJobs() {
		writeError(w, http.StatusBadRequest,
			"cross-job queries ('from jobs') are served by /query2, not /jobs/{id}/query")
		return
	}
	if live != nil {
		writeError(w, http.StatusConflict,
			"job %q is still streaming; aggregate queries need a sealed archive", id)
		return
	}
	jp, err := q.AggregateFrame(sj.frame())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := q.RenderAggregate(raw, "job", id, []query.JobPartial{jp})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) handleViz(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sj, ok := s.storedJob(w, id)
	if !ok {
		return
	}
	switch kind := r.PathValue("kind"); kind {
	case "breakdown":
		w.Header().Set("Content-Type", "image/svg+xml")
		fmt.Fprint(w, viz.SVGBreakdown(sj.Job))
	case "cpu":
		w.Header().Set("Content-Type", "image/svg+xml")
		fmt.Fprint(w, viz.SVGCPUChart(sj.Job))
	case "gantt":
		w.Header().Set("Content-Type", "image/svg+xml")
		fmt.Fprint(w, viz.SVGWorkerGantt(sj.Job, 1, 0))
	case "tree":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, viz.OperationTree(sj.Job))
	case "report":
		a := archive.New()
		a.Jobs = append(a.Jobs, sj.Job)
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, viz.HTMLReport(a))
	default:
		writeError(w, http.StatusNotFound,
			"unknown viz kind %q (want breakdown, cpu, gantt, tree, report)", kind)
	}
}

// diffRequest asks for a regression comparison between two stored jobs.
type diffRequest struct {
	BaselineID string `json:"baselineId"`
	CurrentID  string `json:"currentId"`
	// Threshold is the relative duration change that counts as a
	// regression; 0 selects 0.10.
	Threshold float64 `json:"threshold,omitempty"`
	// MinSeconds ignores operations shorter than this in both runs;
	// 0 selects 0.05.
	MinSeconds float64 `json:"minSeconds,omitempty"`
}

// diffFinding mirrors regression.Finding with JSON names.
type diffFinding struct {
	Key      string  `json:"key"`
	Mission  string  `json:"mission"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	Change   float64 `json:"change"`
	Verdict  string  `json:"verdict"`
}

// diffResponse is the serialized regression report.
type diffResponse struct {
	JobID            string        `json:"jobId"`
	Pass             bool          `json:"pass"`
	BaselineMakespan float64       `json:"baselineMakespan"`
	CurrentMakespan  float64       `json:"currentMakespan"`
	MakespanChange   float64       `json:"makespanChange"`
	Findings         []diffFinding `json:"findings"`
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	var req diffRequest
	if !decodeBody(w, r, &req) {
		return
	}
	baseline, ok := s.storedJob(w, req.BaselineID)
	if !ok {
		return
	}
	current, ok := s.storedJob(w, req.CurrentID)
	if !ok {
		return
	}
	report, err := regression.Compare(baseline.Job, current.Job,
		regression.Thresholds{RelativeChange: req.Threshold, MinSeconds: req.MinSeconds})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := diffResponse{
		JobID:            report.JobID,
		Pass:             report.Pass(),
		BaselineMakespan: report.BaselineMakespan,
		CurrentMakespan:  report.CurrentMakespan,
		MakespanChange:   report.MakespanChange,
		Findings:         make([]diffFinding, 0, len(report.Findings)),
	}
	for _, f := range report.Findings {
		resp.Findings = append(resp.Findings, diffFinding{
			Key: f.Key, Mission: f.Mission, Baseline: f.Baseline,
			Current: f.Current, Change: f.Change, Verdict: string(f.Verdict),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// healthResponse reports liveness plus coarse load and the persistence
// breaker state, so orchestrators can distinguish healthy from
// degraded-but-serving. Generation is the store's publish counter — the
// response-cache key — exposed so operators (and the router's /cluster
// view) can watch replicas converge after writes. The shard fields are
// omitted outside cluster mode.
type healthResponse struct {
	Status     string `json:"status"`
	Breaker    string `json:"breaker"`
	Jobs       int    `json:"jobs"`
	QueueDepth int    `json:"queueDepth"`
	StoreJobs  int    `json:"storeJobs"`
	Generation uint64 `json:"generation"`
	ShardID    string `json:"shardId,omitempty"`
	MapVersion uint64 `json:"mapVersion,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	breaker := s.store.breakerStatus()
	status := "ok"
	if breaker != breakerClosed {
		status = "degraded"
	}
	resp := healthResponse{
		Status:     status,
		Breaker:    breaker.String(),
		Jobs:       len(s.exec.listStates()),
		QueueDepth: s.exec.QueueDepth(),
		StoreJobs:  s.store.Len(),
		Generation: s.store.gen(),
		ShardID:    s.shardID,
	}
	if s.cluster != nil {
		resp.MapVersion = s.cluster.Version
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.Write(w)
	if s.extra != nil {
		s.extra(w)
	}
}

// replicateResponse acks an applied (or replayed) replica record.
type replicateResponse struct {
	ID      string `json:"id"`
	Version uint64 `json:"version"`
}

// handleReplicate serves the cluster-internal write path: another shard
// (or the router's read-repair) pushes a job's persisted bytes here.
// Application is idempotent by (ID, version), so retries and racing
// repairs are safe; the ack echoes the version now stored locally.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	var rec shard.ReplicaRecord
	if !decodeBody(w, r, &rec) {
		return
	}
	if rec.ID == "" || len(rec.Payload) == 0 {
		writeError(w, http.StatusBadRequest, "replica record needs an id and a payload")
		return
	}
	if err := s.store.applyReplica(rec.ID, rec.Version, rec.Payload); err != nil {
		if errors.Is(err, errDegraded) {
			s.setRetryAfter(w)
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, replicateResponse{ID: rec.ID, Version: s.store.version(rec.ID)})
}

// handleExport serves the cluster-internal read side of replication:
// the exact persisted bytes plus version for one job, consumed by the
// router's read-repair to converge divergent replicas.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	payload, version, ok, err := s.store.export(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	// Marshal compactly instead of via writeJSON: its indenting would
	// reformat the embedded payload, and read-repair must ship the
	// exact bytes the primary fsynced so replicas stay byte-identical.
	blob, err := json.Marshal(shard.ReplicaRecord{ID: id, Version: version, Payload: payload})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(blob)
}

// handleInternalHealth serves the failure detector's probe target: a
// deliberately tiny, allocation-light answer so probing every 500 ms
// across a fleet costs nothing measurable. Any 2xx means alive — a
// degraded (read-only) shard still answers 200 here, because degraded
// is not dead and must not trigger promotion or hinted handoff.
func (s *Server) handleInternalHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.store.readOnly() {
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"shardId\":%q,\"status\":%q,\"generation\":%d}\n",
		s.shardID, status, s.store.gen())
}

// handleDigest serves the anti-entropy exchange: this shard's full
// (jobID, version) digest, sorted, so a peer can spot divergence with
// one request and ship bytes only for records that differ.
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	buf, err := shard.EncodeDigest(s.store.Digest())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(buf, '\n'))
}

// clusterInfo is the shard-side /cluster response; the router serves a
// richer view with live per-shard health on the same path.
type clusterInfo struct {
	Mode       string     `json:"mode"`
	ShardID    string     `json:"shardId,omitempty"`
	MapVersion uint64     `json:"mapVersion,omitempty"`
	Map        *shard.Map `json:"map,omitempty"`
	Generation uint64     `json:"generation"`
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	info := clusterInfo{Mode: "single", Generation: s.store.gen()}
	if s.cluster != nil {
		info.Mode = "shard"
		info.ShardID = s.shardID
		info.MapVersion = s.cluster.Version
		info.Map = s.cluster
	}
	writeJSON(w, http.StatusOK, info)
}

// cacheStats samples the response cache for /metrics; nil when it is
// disabled.
func (s *Server) cacheStats() *respCacheStats {
	if s.resp == nil {
		return nil
	}
	cs := s.resp.stats()
	return &cs
}
