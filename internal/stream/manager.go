package stream

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/archive"
	"repro/internal/envmon"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/query"
	"repro/internal/trace"
)

// Ingest failure modes. Gap errors carry the expected sequence number
// so clients can resynchronize.
var (
	// ErrSealed rejects events for a job whose seal event was already
	// accepted.
	ErrSealed = errors.New("stream: job already sealed")
	// ErrOverflow is backpressure: the per-job live buffer is full.
	// Callers map it to 429 + Retry-After.
	ErrOverflow = errors.New("stream: per-job event buffer full")
	// ErrTooManyJobs is backpressure on the number of concurrently live
	// jobs.
	ErrTooManyJobs = errors.New("stream: too many live jobs")
)

// GapError reports a batch that is not contiguous with the accepted
// stream.
type GapError struct {
	Expected, Got uint64
}

func (e *GapError) Error() string {
	return fmt.Sprintf("stream: sequence gap: expected %d, got %d", e.Expected, e.Got)
}

// Config bounds a Manager.
type Config struct {
	// MaxEventsPerJob caps one live job's buffered events (externally
	// ingested jobs only); 0 selects 1<<18.
	MaxEventsPerJob int
	// MaxLiveJobs caps concurrently live jobs; 0 selects 256.
	MaxLiveJobs int
}

func (c *Config) defaults() {
	if c.MaxEventsPerJob <= 0 {
		c.MaxEventsPerJob = 1 << 18
	}
	if c.MaxLiveJobs <= 0 {
		c.MaxLiveJobs = 256
	}
}

// Manager holds every live (in-flight) job's stream state.
type Manager struct {
	cfg  Config
	mu   sync.Mutex
	jobs map[string]*Job
}

// NewManager returns an empty manager.
func NewManager(cfg Config) *Manager {
	cfg.defaults()
	return &Manager{cfg: cfg, jobs: map[string]*Job{}}
}

// Get returns the live job, if any.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Live returns the number of live jobs.
func (m *Manager) Live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// Remove drops a job's live state (after its sealed archive has been
// published, or to abandon it).
func (m *Manager) Remove(id string) {
	m.mu.Lock()
	j := m.jobs[id]
	delete(m.jobs, id)
	m.mu.Unlock()
	if j != nil {
		j.mu.Lock()
		j.notifyLocked()
		j.mu.Unlock()
	}
}

func (m *Manager) open(id string, internal bool) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		if j.internal != internal {
			return nil, fmt.Errorf("stream: job %q already live", id)
		}
		return j, nil
	}
	if len(m.jobs) >= m.cfg.MaxLiveJobs {
		return nil, ErrTooManyJobs
	}
	j := &Job{
		id:       id,
		internal: internal,
		ops:      map[string]*liveOp{},
		cols:     query.NewAppendColumns(),
		subs:     map[chan struct{}]struct{}{},
	}
	m.jobs[id] = j
	return j, nil
}

// OpenInternal registers a live job fed by the in-process engines via
// PublishRecord/PublishSample rather than external ingest.
func (m *Manager) OpenInternal(id string) (*Job, error) {
	return m.open(id, true)
}

// Result summarizes one accepted ingest batch.
type Result struct {
	// Accepted counts newly applied events; Duplicates counts events at
	// or below the already-accepted sequence, skipped idempotently.
	Accepted   int
	Duplicates int
	// LastSeq is the job's high-water sequence after the batch.
	LastSeq uint64
	// Sealed reports whether the batch contained the accepted seal.
	Sealed bool
	// NewEvents are the applied events, in order — what a caller must
	// persist before acknowledging the batch.
	NewEvents []Event
}

// Ingest applies one externally submitted batch to a job, creating the
// live job on its first batch (which must start at seq 1). Batches are
// all-or-nothing: the whole batch is checked for sequence continuity
// and tree validity before any event is applied, so a failed batch
// leaves the job state untouched.
func (m *Manager) Ingest(id string, events []Event) (Result, error) {
	j, err := m.open(id, false)
	if err != nil {
		return Result{}, err
	}
	res, err := j.ingest(events, m.cfg.MaxEventsPerJob)
	if res.LastSeq == 0 {
		// A job that never accepted anything (failed or empty first
		// batch) should not hold a live slot.
		m.mu.Lock()
		if cur, ok := m.jobs[id]; ok && cur == j && j.LastSeq() == 0 {
			delete(m.jobs, id)
		}
		m.mu.Unlock()
	}
	return res, err
}

// liveOp is the in-flight state of one operation.
type liveOp struct {
	op    *archive.Operation // staging copy, mutated until end
	depth int
	path  string // mission path from the root, "A/B/C": the path column's value
	ended bool
}

// Job is one live job's stream state: the dense event log, the
// incrementally assembled operation tree, the append-mode columnar
// index over completed operations, and the subscriber set for /watch
// tails.
type Job struct {
	id       string
	internal bool

	mu      sync.Mutex
	events  []Event
	lastSeq uint64

	ops  map[string]*liveOp
	root *liveOp
	open int // started, not yet ended
	cols *query.AppendColumns

	sealed    bool
	sealState string
	platform  string
	algorithm string

	subs map[chan struct{}]struct{}
}

// LastSeq returns the accepted high-water sequence number.
func (j *Job) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastSeq
}

// Sealed returns whether the seal event was accepted, and the terminal
// state it carried.
func (j *Job) Sealed() (bool, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sealed, j.sealState
}

// Meta returns the platform and algorithm labels from the seal event
// (empty before seal for external jobs).
func (j *Job) Meta() (platform, algorithm string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.platform, j.algorithm
}

// Progress returns counts for status reporting: accepted events,
// completed operations, operations still open.
func (j *Job) Progress() (events, completedOps, openOps int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events), j.cols.Rows(), j.open
}

func (j *Job) ingest(events []Event, maxEvents int) (Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var res Result
	res.LastSeq = j.lastSeq

	// Skip the idempotent-replay prefix.
	i := 0
	for i < len(events) && events[i].Seq <= j.lastSeq {
		i++
	}
	res.Duplicates = i
	fresh := events[i:]
	if len(fresh) == 0 {
		return res, nil
	}
	if j.sealed {
		return res, ErrSealed
	}
	for k := range fresh {
		want := j.lastSeq + 1 + uint64(k)
		if fresh[k].Seq != want {
			return res, &GapError{Expected: want, Got: fresh[k].Seq}
		}
	}
	if maxEvents > 0 && len(j.events)+len(fresh) > maxEvents {
		return res, ErrOverflow
	}
	if err := j.dryRun(fresh); err != nil {
		return res, err
	}
	for _, e := range fresh {
		j.apply(e)
	}
	res.Accepted = len(fresh)
	res.LastSeq = j.lastSeq
	res.Sealed = j.sealed
	res.NewEvents = fresh
	j.notifyLocked()
	return res, nil
}

// dryRun validates a contiguous batch against the current tree without
// mutating it, so a rejected batch has no effect.
func (j *Job) dryRun(events []Event) error {
	type opState struct {
		exists, ended bool
	}
	overlay := map[string]opState{}
	state := func(id string) (opState, bool) {
		if s, ok := overlay[id]; ok {
			return s, true
		}
		if lo, ok := j.ops[id]; ok {
			return opState{exists: true, ended: lo.ended}, true
		}
		return opState{}, false
	}
	rootSeen := j.root != nil
	open := j.open
	for _, e := range events {
		switch e.Type {
		case typeStart:
			if _, ok := state(e.Op); ok {
				return fmt.Errorf("stream: event %d: duplicate start for op %q", e.Seq, e.Op)
			}
			if e.Parent == "" {
				if rootSeen {
					return fmt.Errorf("stream: event %d: multiple root operations", e.Seq)
				}
				rootSeen = true
			} else if _, ok := state(e.Parent); !ok {
				return fmt.Errorf("stream: event %d: unknown parent %q", e.Seq, e.Parent)
			}
			overlay[e.Op] = opState{exists: true}
			open++
		case typeEnd:
			s, ok := state(e.Op)
			if !ok {
				return fmt.Errorf("stream: event %d: end before start for op %q", e.Seq, e.Op)
			}
			if s.ended {
				return fmt.Errorf("stream: event %d: duplicate end for op %q", e.Seq, e.Op)
			}
			overlay[e.Op] = opState{exists: true, ended: true}
			open--
		case typeInfo:
			if _, ok := state(e.Op); !ok {
				return fmt.Errorf("stream: event %d: info before start for op %q", e.Seq, e.Op)
			}
		case typeEnv:
			// No tree state.
		case TypeSeal:
			if !rootSeen {
				return fmt.Errorf("stream: event %d: seal before any root operation", e.Seq)
			}
			if open != 0 {
				return fmt.Errorf("stream: event %d: seal with %d operations still open", e.Seq, open)
			}
		}
	}
	return nil
}

// apply installs one pre-validated event. Called with j.mu held; cannot
// fail after dryRun.
func (j *Job) apply(e Event) {
	j.events = append(j.events, e)
	j.lastSeq = e.Seq
	switch e.Type {
	case typeStart:
		lo := &liveOp{op: &archive.Operation{
			ID: e.Op, Actor: e.Actor, Mission: e.Mission, Start: e.Time,
		}}
		if e.Parent == "" {
			lo.path = e.Mission
			j.root = lo
		} else {
			p := j.ops[e.Parent]
			lo.depth = p.depth + 1
			lo.path = p.path + "/" + e.Mission
		}
		j.ops[e.Op] = lo
		j.open++
	case typeEnd:
		lo := j.ops[e.Op]
		lo.op.End = e.Time
		lo.ended = true
		j.open--
		// Freeze an immutable view for the live columns: info events may
		// still arrive for an ended op (the archive assembly sees them),
		// but live readers must never race a map write.
		view := *lo.op
		if lo.op.Infos != nil {
			view.Infos = make(map[string]string, len(lo.op.Infos))
			for k, v := range lo.op.Infos {
				view.Infos[k] = v
			}
		}
		j.cols.Append(&view, lo.depth, lo.path)
	case typeInfo:
		lo := j.ops[e.Op]
		if lo.op.Infos == nil {
			lo.op.Infos = map[string]string{}
		}
		lo.op.Infos[e.Key] = e.Value
	case TypeSeal:
		j.sealed = true
		j.sealState = e.State
		j.platform = e.Platform
		j.algorithm = e.Algorithm
	}
}

// publish appends one event from a trusted in-process source, assigning
// the next sequence number.
func (j *Job) publish(e Event) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sealed {
		return ErrSealed
	}
	e.Seq = j.lastSeq + 1
	if err := j.dryRun([]Event{e}); err != nil {
		return err
	}
	j.apply(e)
	j.notifyLocked()
	return nil
}

// PublishRecord streams one platform-log record from an in-process
// engine (wired through trace.Log's sink).
func (j *Job) PublishRecord(r trace.Record) error {
	return j.publish(Event{
		Type: string(r.Event), Time: r.Time,
		Op: r.Op, Parent: r.Parent, Actor: r.Actor, Mission: r.Mission,
		Key: r.Key, Value: r.Value,
	})
}

// PublishSample streams one environment sample from the in-process
// monitor.
func (j *Job) PublishSample(s envmon.Sample) error {
	return j.publish(Event{
		Type: typeEnv, Time: s.Time,
		Node: s.Node, Kind: s.Kind, Used: s.Used,
	})
}

// Seal appends the terminal seal event for an in-process job. For
// non-done states the open-operation check is waived — a failed or
// canceled run legitimately leaves operations unfinished.
func (j *Job) Seal(platform, algorithm, state string, at float64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sealed {
		return ErrSealed
	}
	e := Event{
		Seq: j.lastSeq + 1, Type: TypeSeal, Time: at,
		Platform: platform, Algorithm: algorithm, State: state,
	}
	if state == StateDone {
		if err := j.dryRun([]Event{e}); err != nil {
			return err
		}
	}
	j.apply(e)
	j.notifyLocked()
	return nil
}

// EventsAfter returns accepted events with sequence numbers greater
// than seq. The returned slice is immutable (events are dense and
// append-only); callers must not modify it.
func (j *Job) EventsAfter(seq uint64) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq >= j.lastSeq {
		return nil
	}
	return j.events[seq:len(j.events):len(j.events)]
}

// Subscribe registers a notification channel signaled (non-blocking,
// capacity 1) whenever the job accepts events, seals, or is removed.
func (j *Job) Subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

// Unsubscribe removes a channel registered with Subscribe.
func (j *Job) Unsubscribe(ch chan struct{}) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

func (j *Job) notifyLocked() {
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// Columns returns a point-in-time snapshot of the incremental columnar
// index over completed operations (completion order).
func (j *Job) Columns() *query.Columns {
	return j.cols.Snapshot()
}

// BuildArchive assembles the sealed stream into a finished archive job
// through the exact pipeline the batch path uses — monitor.Assemble
// over the trace records, the standard derivation rules, the domain
// breakdown, and validation — so a streamed-then-sealed job is
// byte-identical to the same job run batch-mode.
func (j *Job) BuildArchive() (*archive.Job, error) {
	j.mu.Lock()
	if !j.sealed {
		j.mu.Unlock()
		return nil, fmt.Errorf("stream: job %q not sealed", j.id)
	}
	events := j.events[:len(j.events):len(j.events)]
	platform := j.platform
	j.mu.Unlock()

	var records []trace.Record
	var samples []envmon.Sample
	for _, e := range events {
		switch e.Type {
		case typeStart, typeEnd, typeInfo:
			records = append(records, trace.Record{
				Time: e.Time, Job: j.id, Op: e.Op, Parent: e.Parent,
				Actor: e.Actor, Mission: e.Mission,
				Event: trace.EventType(e.Type), Key: e.Key, Value: e.Value,
			})
		case typeEnv:
			samples = append(samples, envmon.Sample{
				Time: e.Time, Node: e.Node, Kind: e.Kind, Used: e.Used,
			})
		}
	}
	job, err := monitor.Assemble(j.id, platform, records, samples)
	if err != nil {
		return nil, err
	}
	metrics.StandardRules().Apply(job)
	// The domain breakdown needs a model-conforming tree (Startup /
	// load / processing domains). Batch-pipeline jobs always have one,
	// and annotating them here is what makes the sealed bytes identical
	// to the batch path; external jobs with free-form trees simply skip
	// the annotation (DomainBreakdown mutates nothing on failure).
	metrics.AnnotateDomainBreakdown(job) //nolint:errcheck
	if err := job.Validate(); err != nil {
		return nil, err
	}
	return job, nil
}
