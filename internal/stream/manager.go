package stream

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/archive"
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
		asm:      monitor.NewAssembler(id),
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
// all-or-nothing: the whole batch is checked for sequence continuity,
// for a seal that is not its last event, and for tree validity before
// any event is applied, so a failed batch leaves the job state
// untouched.
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

// Job is one live job's stream state: the dense event log, the
// operation tree its assembler has built so far, and the subscriber set
// for /watch tails. The log is held in two parts ordered by sequence
// number: the environment samples as columns, and every other event
// as itself. An env event carries nothing but its sample (validate
// refuses any other field), so the columns read back exactly what was
// accepted.
type Job struct {
	id       string
	internal bool

	mu      sync.Mutex
	events  []Event
	env     archive.EnvColumns
	lastSeq uint64

	asm *monitor.Assembler

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
	return int(j.lastSeq), j.asm.Ended(), j.asm.Open()
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
		if fresh[k].Type == TypeSeal && k < len(fresh)-1 {
			return res, fmt.Errorf("%w: event %d follows the seal at %d", ErrSealed, fresh[k+1].Seq, fresh[k].Seq)
		}
	}
	if maxEvents > 0 && int(j.lastSeq)+len(fresh) > maxEvents {
		return res, ErrOverflow
	}
	var recs []trace.Record
	for k := range fresh {
		if r, ok := fresh[k].record(); ok {
			recs = append(recs, r)
		}
	}
	if err := j.asm.AddBatch(recs, fresh[len(fresh)-1].Type == TypeSeal); err != nil {
		return res, fmt.Errorf("stream: events %d-%d: %w", fresh[0].Seq, fresh[len(fresh)-1].Seq, err)
	}
	for _, e := range fresh {
		j.log(e)
	}
	res.Accepted = len(fresh)
	res.LastSeq = j.lastSeq
	res.Sealed = j.sealed
	res.NewEvents = fresh
	j.notifyLocked()
	return res, nil
}

// log appends one event whose operation record, if any, the assembler
// has already taken. Called with j.mu held.
func (j *Job) log(e Event) {
	j.lastSeq = e.Seq
	switch e.Type {
	case typeEnv:
		j.env.Append(archive.EnvSample{Time: e.Time, Node: e.Node, Kind: e.Kind, Used: e.Used})
		return
	case TypeSeal:
		j.sealed = true
		j.sealState = e.State
		j.platform = e.Platform
		j.algorithm = e.Algorithm
	}
	j.events = append(j.events, e)
}

// envEvent returns the env event at seq that carries s and nothing else.
func envEvent(seq uint64, s archive.EnvSample) Event {
	return Event{Seq: seq, Type: typeEnv, Time: s.Time, Node: s.Node, Kind: s.Kind, Used: s.Used}
}

// PublishRecord streams one platform-log record from an in-process
// engine (wired through platforms.Spec.RecordSink).
func (j *Job) PublishRecord(r trace.Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sealed {
		return ErrSealed
	}
	if err := j.asm.Add(r); err != nil {
		return err
	}
	j.log(Event{
		Seq: j.lastSeq + 1, Type: string(r.Event), Time: r.Time,
		Op: r.Op, Parent: r.Parent, Actor: r.Actor, Mission: r.Mission,
		Key: r.Key, Value: r.Value,
	})
	j.notifyLocked()
	return nil
}

// PublishSample streams one environment sample from the in-process
// monitor; it goes straight to the job's sample columns.
func (j *Job) PublishSample(s archive.EnvSample) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sealed {
		return ErrSealed
	}
	j.env.Append(s)
	j.lastSeq++
	j.notifyLocked()
	return nil
}

// Seal appends the terminal seal event for an in-process job. A done
// seal needs a complete tree; for other states the check is waived — a
// failed or canceled run legitimately leaves operations unfinished.
func (j *Job) Seal(platform, algorithm, state string, at float64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sealed {
		return ErrSealed
	}
	if state == StateDone {
		if err := j.asm.AddBatch(nil, true); err != nil {
			return err
		}
	}
	j.log(Event{
		Seq: j.lastSeq + 1, Type: TypeSeal, Time: at,
		Platform: platform, Algorithm: algorithm, State: state,
	})
	j.notifyLocked()
	return nil
}

// EventsAfter returns accepted events with sequence numbers greater
// than seq, in order, nil for none. Each call builds its window into a
// new slice, merging the sample columns back into events; the caller
// owns it.
func (j *Job) EventsAfter(seq uint64) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq >= j.lastSeq {
		return nil
	}
	out := make([]Event, 0, j.lastSeq-seq)
	// r events and so seq-r samples sit at or below seq.
	r := sort.Search(len(j.events), func(i int) bool { return j.events[i].Seq > seq })
	next := seq + 1
	j.env.Each(int(seq)-r, func(s archive.EnvSample) {
		for ; r < len(j.events) && j.events[r].Seq == next; r++ {
			out = append(out, j.events[r])
			next++
		}
		out = append(out, envEvent(next, s))
		next++
	})
	return append(out, j.events[r:]...)
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

// Columns returns the columns of the operations completed so far, in
// completion order. They are built on each call from the assembler's
// ended operations, infos as they stand now, and share nothing with the
// live tree.
func (j *Job) Columns() *query.Columns {
	j.mu.Lock()
	defer j.mu.Unlock()
	return query.ColumnsFrom(j.asm.EachEnded)
}

// opStart returns the start time and mission of a started operation.
func (j *Job) opStart(id string) (start float64, mission string, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if op := j.asm.Op(id); op != nil {
		return op.Start, op.Mission, true
	}
	return 0, "", false
}

// BuildArchive finishes the sealed job's operation tree — the one its
// assembler built as the events arrived, not a second assembly — with
// the environment samples from its sample columns, then derives it as
// the batch path does: the standard rules, the domain breakdown, and
// validation. A streamed-then-sealed job is therefore byte-identical to
// the same job run batch-mode. Each call returns its own copy of the
// operations: a store links (re-sorts) the tree it is given, and two
// publishes of one sealed job may run at once.
func (j *Job) BuildArchive() (*archive.Job, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.sealed {
		return nil, fmt.Errorf("stream: job %q not sealed", j.id)
	}
	job, err := j.asm.Finish(j.platform, j.env.Samples())
	if err != nil {
		return nil, err
	}
	job.Root = copyOp(job.Root)
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

// copyOp copies op's subtree. Infos maps stay shared: nothing writes
// them once the job is sealed.
func copyOp(op *archive.Operation) *archive.Operation {
	c := *op
	c.Children = append([]*archive.Operation(nil), op.Children...)
	for i, ch := range c.Children {
		c.Children[i] = copyOp(ch)
	}
	return &c
}
