package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/datagen"
	"repro/internal/envmon"
	"repro/internal/faults"
	"repro/internal/platforms"
	"repro/internal/stream"
	"repro/internal/trace"
)

// JobStatus is the lifecycle state of a submitted job.
type JobStatus string

// Job lifecycle states.
const (
	statusQueued   JobStatus = "queued"
	statusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
	// statusStreaming is reported for jobs the executor does not know:
	// externally run jobs whose events arrive through POST /ingest and
	// which have not sealed yet.
	statusStreaming JobStatus = "streaming"
)

// siteRun is the fault-injection point on the executor's run path,
// hit once per job before the simulation starts.
const siteRun = "executor.run"

// maxTimeoutSeconds bounds JobRequest.TimeoutSeconds (about 11 days).
const maxTimeoutSeconds = 1e6

// JobRequest describes one simulation to run. Zero fields select the
// documented defaults, which are filled in at submission time so the
// recorded request (and hence the status JSON) is self-describing.
type JobRequest struct {
	// Platform is Giraph, PowerGraph, or OpenG.
	Platform string `json:"platform"`
	// Algorithm is BFS, SSSP, PageRank, WCC, CDLP, or LCC (platform
	// permitting).
	Algorithm string `json:"algorithm"`
	// GraphKind is social, rmat, or uniform; default social.
	GraphKind string `json:"graphKind,omitempty"`
	// Vertices and Edges size the generated graph; defaults 2000/10000.
	Vertices int64 `json:"vertices,omitempty"`
	Edges    int64 `json:"edges,omitempty"`
	// Seed seeds dataset generation; default 42.
	Seed int64 `json:"seed,omitempty"`
	// Iterations bounds fixed-iteration algorithms; default 10.
	Iterations int `json:"iterations,omitempty"`
	// Nodes sizes the simulated cluster; default the 8-node DAS5 model.
	Nodes int `json:"nodes,omitempty"`
	// TimeoutSeconds bounds the job's wall-clock run time; past it the
	// simulation is interrupted and the job fails with a timeout
	// reason. 0 selects the executor's default (no limit unless the
	// executor was configured with one).
	TimeoutSeconds float64 `json:"timeoutSeconds,omitempty"`
	// ID names the job; default "job-<seq>".
	ID string `json:"id,omitempty"`
}

func (r *JobRequest) applyDefaults() {
	if r.GraphKind == "" {
		r.GraphKind = "social"
	}
	if r.Vertices == 0 {
		r.Vertices = 2000
	}
	if r.Edges == 0 {
		r.Edges = 10_000
	}
	if r.Seed == 0 {
		r.Seed = 42
	}
	if r.Iterations == 0 {
		r.Iterations = 10
	}
}

func (r *JobRequest) validate() error {
	if r.Platform == "" {
		return fmt.Errorf("service: job request needs a platform")
	}
	if r.Algorithm == "" {
		return fmt.Errorf("service: job request needs an algorithm")
	}
	if r.Vertices < 0 || r.Edges < 0 || r.Nodes < 0 || r.Iterations < 0 {
		return fmt.Errorf("service: job request sizes must be non-negative")
	}
	if math.IsNaN(r.TimeoutSeconds) || math.IsInf(r.TimeoutSeconds, 0) || r.TimeoutSeconds < 0 {
		return fmt.Errorf("service: job timeout must be a non-negative finite number of seconds")
	}
	if r.TimeoutSeconds > maxTimeoutSeconds {
		// Larger values would overflow time.Duration when the deadline is
		// armed; nothing legitimate runs for days anyway.
		return fmt.Errorf("service: job timeout must be at most %g seconds", float64(maxTimeoutSeconds))
	}
	switch r.GraphKind {
	case "", "social", "rmat", "uniform":
	default:
		return fmt.Errorf("service: unknown graph kind %q", r.GraphKind)
	}
	return nil
}

// JobState is the externally visible record of a submitted job.
type JobState struct {
	ID      string     `json:"id"`
	Request JobRequest `json:"request"`
	Status  JobStatus  `json:"status"`
	Error   string     `json:"error,omitempty"`
	// Stack holds the goroutine stack of a recovered panic when the job
	// failed by panicking, so a crashing simulation is debuggable from
	// the job state instead of taking the process down.
	Stack string `json:"stack,omitempty"`
	// Summary is present once the job is done.
	Summary *Summary `json:"summary,omitempty"`
	// Stream is present for live streamed jobs (status "streaming").
	Stream *StreamProgress `json:"stream,omitempty"`
}

// RetryPolicy bounds the executor's retries around archive persistence:
// Attempts total tries, with exponential backoff from Base capped at
// Max, plus jitter. The zero value selects 3 attempts, 25 ms base,
// 1 s cap.
type RetryPolicy struct {
	Attempts int
	Base     time.Duration
	Max      time.Duration
}

func (p RetryPolicy) normalized() RetryPolicy {
	if p.Attempts < 1 {
		p.Attempts = 3
	}
	if p.Base <= 0 {
		p.Base = 25 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = time.Second
	}
	return p
}

// ExecutorOptions tunes the executor's robustness behavior; the zero
// value selects the defaults.
type ExecutorOptions struct {
	// Faults is the chaos injector threaded through the run path; nil
	// injects nothing.
	Faults *faults.Injector
	// Retry bounds persistence retries.
	Retry RetryPolicy
	// DefaultTimeout applies to jobs that do not set TimeoutSeconds;
	// 0 leaves them unbounded.
	DefaultTimeout time.Duration
	// HostParallelism is the per-job host goroutine budget for the
	// simulation engines. 0 divides runtime.NumCPU() across the worker
	// pool (so concurrent jobs never oversubscribe the host); results
	// are byte-identical for every value.
	HostParallelism int
	// Replicator, when set, is the cluster write fan-out: after a job's
	// archive is durable locally, the executor blocks on it until the
	// write quorum acks, and only then marks the job done. A quorum
	// failure fails the job — the client never saw done, so the
	// durability contract ("done implies W copies") holds. nil means
	// single-node operation.
	Replicator JobReplicator
	// Streams, when set, receives every job's platform-log records and
	// environment samples live as the simulation emits them, so /watch
	// can tail in-process jobs the same way it tails external ones. The
	// manager should be shared with the server.
	Streams *stream.Manager
}

// JobReplicator is the executor's hook into cluster replication,
// implemented by shard.Replicator: push one durable job (its exact
// persisted bytes, tagged with its write version) to its replica set
// and return once the write quorum is met.
type JobReplicator interface {
	ReplicateJob(ctx context.Context, id string, version uint64, payload []byte) error
}

// Executor is the bounded job pool: a fixed number of workers drain a
// bounded queue of submitted requests, run them through the platforms
// harness, and publish results to the archive store. Workers are
// hardened: a panicking job fails with its stack recorded instead of
// crashing the process, a job past its deadline has its simulation
// interrupted and its worker freed, and persistence is retried with
// backoff before the job fails.
type Executor struct {
	store   *Store
	metrics *Metrics
	faults  *faults.Injector
	retry   RetryPolicy
	defTO   time.Duration
	jobPar  int // per-job engine host parallelism
	repl    JobReplicator
	streams *stream.Manager

	// ctx is canceled when a shutdown deadline expires, aborting every
	// in-flight simulation through its per-job context.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond // signaled when pending grows or intake closes
	pending  []string   // queued job IDs, FIFO; bounded by queueCap
	queueCap int
	states   map[string]*JobState
	order    []string
	seq      int
	closed   bool

	rngMu sync.Mutex
	rng   *rand.Rand // backoff jitter

	dsMu     sync.Mutex
	datasets map[datasetKey]*datagen.Dataset
}

type datasetKey struct {
	kind     string
	vertices int64
	edges    int64
	seed     int64
}

// NewExecutorWith starts a pool of workers over a queue of the given
// capacity. Metrics may be nil, in which case a private set is created.
func NewExecutorWith(workers, queueCap int, store *Store, m *Metrics, opts ExecutorOptions) *Executor {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	if m == nil {
		m = NewMetrics()
	}
	jobPar := opts.HostParallelism
	if jobPar <= 0 {
		// Cap workers × per-job pool at the host's cores so concurrent
		// jobs don't oversubscribe it. Parallelism never changes results,
		// only wall-clock speed.
		jobPar = runtime.NumCPU() / workers
		if jobPar < 1 {
			jobPar = 1
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Executor{
		store:    store,
		metrics:  m,
		faults:   opts.Faults,
		retry:    opts.Retry.normalized(),
		defTO:    opts.DefaultTimeout,
		jobPar:   jobPar,
		repl:     opts.Replicator,
		streams:  opts.Streams,
		ctx:      ctx,
		cancel:   cancel,
		queueCap: queueCap,
		states:   map[string]*JobState{},
		rng:      rand.New(rand.NewSource(1)),
		datasets: map[datasetKey]*datagen.Dataset{},
	}
	e.cond = sync.NewCond(&e.mu)
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// errQueueFull is returned by submit when the bounded queue is at
// capacity; HTTP maps it to 429.
var errQueueFull = fmt.Errorf("service: job queue is full")

// submit validates and enqueues a request, returning the assigned job
// ID. It never blocks: a full queue sheds the submission with
// errQueueFull so the caller stays responsive under overload.
func (e *Executor) submit(req JobRequest) (string, error) {
	if err := req.validate(); err != nil {
		return "", err
	}
	req.applyDefaults()
	if req.TimeoutSeconds == 0 && e.defTO > 0 {
		req.TimeoutSeconds = e.defTO.Seconds()
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return "", fmt.Errorf("service: executor is shut down")
	}
	if len(e.pending) >= e.queueCap {
		e.mu.Unlock()
		e.metrics.shed.Inc()
		return "", errQueueFull
	}
	e.seq++
	if req.ID == "" {
		req.ID = fmt.Sprintf("job-%04d", e.seq)
	}
	if _, dup := e.states[req.ID]; dup {
		e.mu.Unlock()
		return "", fmt.Errorf("service: duplicate job ID %q", req.ID)
	}
	st := &JobState{ID: req.ID, Request: req, Status: statusQueued}
	e.states[req.ID] = st
	e.order = append(e.order, req.ID)
	e.pending = append(e.pending, req.ID)
	e.cond.Signal()
	e.mu.Unlock()
	return req.ID, nil
}

// jobState returns a copy of one job's state.
func (e *Executor) jobState(id string) (JobState, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.states[id]
	if !ok {
		return JobState{}, false
	}
	return *st, true
}

// listStates returns copies of every job state in submission order.
func (e *Executor) listStates() []JobState {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]JobState, 0, len(e.order))
	for _, id := range e.order {
		out = append(out, *e.states[id])
	}
	return out
}

// QueueDepth reports the number of jobs waiting for a worker.
func (e *Executor) QueueDepth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

// cancelJob marks a queued job canceled and removes it from the queue, so
// its slot is free for new submissions immediately (not only once a
// worker reaches and skips it). Running jobs cannot be canceled through
// this path; cancelJob reports whether the job was still cancelable.
func (e *Executor) cancelJob(id string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.states[id]
	if !ok || st.Status != statusQueued {
		return false
	}
	st.Status = StatusCanceled
	for i, qid := range e.pending {
		if qid == id {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			break
		}
	}
	return true
}

// Shutdown stops intake and drains the queue: queued and in-flight jobs
// keep running until done or until ctx expires, at which point the
// remaining queued jobs are marked canceled, in-flight simulations are
// interrupted through their job contexts, and Shutdown returns
// ctx.Err() once the workers have exited. No job is ever left in the
// queued or running state after Shutdown returns.
func (e *Executor) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		e.mu.Lock()
		for _, id := range e.pending {
			if st := e.states[id]; st.Status == statusQueued {
				st.Status = StatusCanceled
				st.Error = "canceled: shutdown drain expired"
			}
		}
		e.pending = nil
		e.cond.Broadcast()
		e.mu.Unlock()
		e.cancel() // abort in-flight simulations
		<-done
		return ctx.Err()
	}
}

// next blocks until a job is available or intake is closed and drained.
func (e *Executor) next() (string, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.pending) == 0 && !e.closed {
		e.cond.Wait()
	}
	if len(e.pending) == 0 {
		return "", false
	}
	id := e.pending[0]
	e.pending = e.pending[1:]
	return id, true
}

func (e *Executor) worker() {
	defer e.wg.Done()
	for {
		id, ok := e.next()
		if !ok {
			return
		}
		if !e.setRunning(id) {
			continue // canceled between dequeue and start
		}
		e.process(id)
	}
}

// process runs one job end to end: simulation (with panic isolation and
// a deadline) then persistence (with retry). Terminal status mapping:
// deadline overrun or real failure → failed; shutdown abort → canceled.
func (e *Executor) process(id string) {
	e.mu.Lock()
	req := e.states[id].Request
	e.mu.Unlock()

	if e.streams != nil {
		// The live stream is retired whenever the job reaches a terminal
		// state: on success the archive is already published (watchers and
		// /query switch to it seamlessly), on failure the seal written by
		// run() is the last frame watchers drain from their held job.
		defer e.streams.Remove(id)
	}

	ctx := e.ctx
	var cancel context.CancelFunc
	if req.TimeoutSeconds > 0 {
		ctx, cancel = context.WithTimeout(e.ctx, time.Duration(req.TimeoutSeconds*float64(time.Second)))
	} else {
		ctx, cancel = context.WithCancel(e.ctx)
	}
	defer cancel()

	sum, job, stack, err := e.runIsolated(ctx, id, req)
	if err != nil {
		e.finishErr(id, req, stack, err)
		return
	}
	if err := e.persist(ctx, job, sum); err != nil {
		// A job is only "done" once its archive is durable: if the
		// write-through store cannot persist it even with retries, the
		// job fails rather than acking a result a restart would lose.
		e.finishErr(id, req, "", fmt.Errorf("persist archive: %w", err))
		return
	}
	if e.repl != nil {
		// Cluster mode: "done" additionally means the write quorum holds
		// the archive, so losing this shard cannot lose an acked job.
		if err := e.replicate(ctx, id); err != nil {
			e.finishErr(id, req, "", fmt.Errorf("replicate archive: %w", err))
			return
		}
	}
	e.setDone(id, sum)
}

// replicate pushes a freshly persisted job to its replica set and waits
// for the write quorum.
func (e *Executor) replicate(ctx context.Context, id string) error {
	payload, version, ok, err := e.store.export(id)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("service: job %q vanished before replication", id)
	}
	return e.repl.ReplicateJob(ctx, id, version, payload)
}

// runIsolated runs the simulation with panic isolation: a panicking job
// (or injected panic) becomes an error with the recovered stack instead
// of crashing the process.
func (e *Executor) runIsolated(ctx context.Context, id string, req JobRequest) (sum Summary, job *archive.Job, stack string, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack = string(debug.Stack())
			err = fmt.Errorf("service: job panicked: %v", r)
			e.metrics.panics.Inc()
		}
	}()
	if ferr := e.faults.FailCtx(ctx, siteRun); ferr != nil {
		return Summary{}, nil, "", ferr
	}
	sum, job, err = e.run(ctx, id, req)
	return sum, job, "", err
}

// finishErr records a terminal non-done state: shutdown aborts land as
// canceled, deadline overruns as failed with an explicit timeout
// reason, everything else as failed with the error.
func (e *Executor) finishErr(id string, req JobRequest, stack string, err error) {
	if e.ctx.Err() != nil {
		e.setAborted(id, fmt.Errorf("canceled: shutdown aborted the job: %v", err))
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("timeout: job exceeded its %gs deadline: %w", req.TimeoutSeconds, err)
	}
	e.setFailed(id, err, stack)
}

// backoff returns the sleep before retry attempt (1-based): exponential
// from the policy base, capped, plus uniform jitter of up to one base.
func (e *Executor) backoff(attempt int) time.Duration {
	d := e.retry.Base << (attempt - 1)
	if d > e.retry.Max || d <= 0 {
		d = e.retry.Max
	}
	e.rngMu.Lock()
	j := time.Duration(e.rng.Int63n(int64(e.retry.Base) + 1))
	e.rngMu.Unlock()
	return d + j
}

// persist stores the finished job, retrying transient failures with
// exponential backoff and jitter. It gives up early when the store
// reports degraded mode (the breaker is open; retrying cannot help) or
// when the job's context expires mid-backoff.
func (e *Executor) persist(ctx context.Context, job *archive.Job, sum Summary) error {
	var last error
	for attempt := 1; attempt <= e.retry.Attempts; attempt++ {
		if attempt > 1 {
			e.metrics.retries.Inc()
			select {
			case <-time.After(e.backoff(attempt - 1)):
			case <-ctx.Done():
				return fmt.Errorf("retry abandoned (%v): %w", ctx.Err(), last)
			}
		}
		err := e.store.Put(job, sum)
		if err == nil {
			return nil
		}
		last = err
		if errors.Is(err, errDegraded) {
			return err
		}
	}
	return fmt.Errorf("after %d attempts: %w", e.retry.Attempts, last)
}

func (e *Executor) setRunning(id string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.states[id]
	if st.Status != statusQueued {
		return false
	}
	st.Status = statusRunning
	e.metrics.jobsStarted.Inc()
	return true
}

// setAborted marks a running job canceled (shutdown abort).
func (e *Executor) setAborted(id string, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.states[id]
	st.Status = StatusCanceled
	st.Error = err.Error()
	e.metrics.jobsFailed.Inc()
}

func (e *Executor) setFailed(id string, err error, stack string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.states[id]
	st.Status = StatusFailed
	st.Error = err.Error()
	st.Stack = stack
	e.metrics.jobsFailed.Inc()
}

func (e *Executor) setDone(id string, sum Summary) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.states[id]
	st.Status = StatusDone
	s := sum
	st.Summary = &s
	e.metrics.jobsDone.Inc()
}

// dataset returns the generated dataset for a request, cached by
// (kind, vertices, edges, seed) so concurrent jobs over the same graph
// generate it once.
func (e *Executor) dataset(req JobRequest) (*datagen.Dataset, error) {
	key := datasetKey{kind: req.GraphKind, vertices: req.Vertices, edges: req.Edges, seed: req.Seed}
	e.dsMu.Lock()
	defer e.dsMu.Unlock()
	if ds, ok := e.datasets[key]; ok {
		return ds, nil
	}
	var kind datagen.Kind
	switch req.GraphKind {
	case "social":
		kind = datagen.SocialNetwork
	case "rmat":
		kind = datagen.RMAT
	case "uniform":
		kind = datagen.Uniform
	}
	ds, err := datagen.Generate(datagen.Config{
		Kind: kind, Vertices: req.Vertices, Edges: req.Edges,
		Seed: req.Seed, Directed: true,
	})
	if err != nil {
		return nil, err
	}
	e.datasets[key] = ds
	return ds, nil
}

func (e *Executor) run(ctx context.Context, id string, req JobRequest) (Summary, *archive.Job, error) {
	ds, err := e.dataset(req)
	if err != nil {
		return Summary{}, nil, err
	}
	spec := platforms.Spec{
		Platform:        req.Platform,
		Algorithm:       req.Algorithm,
		Source:          datagen.PeripheralSource(ds.Graph),
		Iterations:      req.Iterations,
		Dataset:         ds,
		JobID:           id,
		HostParallelism: e.jobPar,
	}
	if req.Nodes > 0 {
		cfg := platforms.DAS5Config()
		cfg.Nodes = req.Nodes
		spec.Cluster = cfg
	}
	var lj *stream.Job
	if e.streams != nil {
		// Mirror the simulation into a live stream so /watch can tail the
		// job while it runs. Failure to open (slot exhaustion, or an
		// external stream squatting on the ID) only loses liveness, never
		// the job itself.
		if j, jerr := e.streams.OpenInternal(id); jerr == nil {
			lj = j
			spec.RecordSink = func(r trace.Record) { lj.PublishRecord(r) }  //nolint:errcheck
			spec.SampleSink = func(s envmon.Sample) { lj.PublishSample(s) } //nolint:errcheck
		}
	}
	out, err := platforms.RunContext(ctx, spec)
	if err != nil {
		if lj != nil {
			state := stream.StateFailed
			if e.ctx.Err() != nil {
				state = stream.StateCanceled
			}
			lj.Seal(req.Platform, req.Algorithm, state, 0) //nolint:errcheck
		}
		return Summary{}, nil, err
	}
	if lj != nil {
		lj.Seal(out.Job.Platform, req.Algorithm, stream.StateDone, out.Runtime) //nolint:errcheck
	}
	return summarize(req, out), out.Job, nil
}

func summarize(req JobRequest, out *platforms.Output) Summary {
	ops := 0
	if out.Job.Root != nil {
		out.Job.Root.Walk(func(*archive.Operation) { ops++ })
	}
	sum := Summary{
		ID:                out.Job.ID,
		Platform:          out.Job.Platform,
		Algorithm:         req.Algorithm,
		Runtime:           out.Runtime,
		Supersteps:        out.Supersteps,
		Operations:        ops,
		SetupPercent:      out.Breakdown.SetupPercent(),
		IOPercent:         out.Breakdown.IOPercent(),
		ProcessingPercent: out.Breakdown.ProcessingPercent(),
		ReplicationFactor: out.ReplicationFactor,
	}
	for _, me := range out.ModelErrors {
		sum.ModelErrors = append(sum.ModelErrors, fmt.Sprintf("%v", me))
	}
	return sum
}
