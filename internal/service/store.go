// Package service implements granula-serve: the long-running serving
// layer over the Granula pipeline. It owns a bounded job executor pool
// that runs (platform, algorithm, graph) simulations concurrently, an
// in-memory archive store in which the frame is the stored job — every
// query scans it (DESIGN.md ablation item 6), and the operation tree is
// rebuilt from it only for a reader that needs one — and a JSON HTTP
// API that exposes submission, status, archive retrieval, the query
// language, visualization, and regression diffs.
//
// The store and executor are safe for concurrent use; every JSON
// response is deterministic (sorted keys and slices) so serve output is
// diff-stable across runs, matching the repo's determinism guarantee.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/archivedb"
	"repro/internal/query"
	"repro/internal/shard"
)

// Summary is the condensed result of one analyzed job, suitable for a
// status response without shipping the whole operation tree.
type Summary struct {
	ID                string   `json:"id"`
	Platform          string   `json:"platform"`
	Algorithm         string   `json:"algorithm"`
	Runtime           float64  `json:"runtime"`
	Supersteps        int      `json:"supersteps"`
	Operations        int      `json:"operations"`
	SetupPercent      float64  `json:"setupPercent"`
	IOPercent         float64  `json:"ioPercent"`
	ProcessingPercent float64  `json:"processingPercent"`
	ReplicationFactor float64  `json:"replicationFactor,omitempty"`
	ModelErrors       []string `json:"modelErrors,omitempty"`
}

// storedJob is one published version of an archived job. The frame is
// the stored job: Cols holds every operation row — fields, mission
// paths, infos and derived infos — that the queries on the job (?q= row
// queries, aggregates, the ?mission=/?actor=/?path= lookups) evaluate
// against and render from. ID, Platform and EnvSamples are the rest of
// the archive; no operation tree is kept, and tree rebuilds one from
// the frame for the readers that need it. Stats is the zone map of
// Cols, which /query2 prunes with before it scans the frame; Version
// orders replicated writes of the job. All of it is built once
// when the job enters the store and is immutable after, so one get sees
// one consistent publish.
type storedJob struct {
	ID, Platform string
	EnvSamples   []archive.EnvSample
	Summary      Summary
	Cols         *query.Columns
	Stats        *query.SegStats
	Version      uint64
}

// indexJob builds the stored form of version of a job kept under key
// id. It first links job — parent pointers and canonical child order —
// so rows are depth-first over the sorted tree, whatever its source.
func indexJob(id string, job *archive.Job, sum Summary, version uint64) *storedJob {
	archive.New().Add(job)
	cols := query.BuildColumns(job)
	return &storedJob{
		ID: job.ID, Platform: job.Platform, EnvSamples: job.EnvSamples,
		Summary: sum, Cols: cols, Version: version,
		Stats: query.FrameStats(cols.Frame(jobMeta(id, sum)), version),
	}
}

// frame returns the job's columns as a frame tagged with its job.*
// fields.
func (sj *storedJob) frame() *query.Frame { return sj.Cols.Frame(sj.Stats.Meta) }

// tree rebuilds the job's archive tree from its frame: what /archive,
// /viz and /diff read, and export without a database. Each call builds
// a fresh operation tree; EnvSamples is the stored slice, read-only.
func (sj *storedJob) tree() *archive.Job {
	job := &archive.Job{ID: sj.ID, Platform: sj.Platform, Root: sj.frame().Tree(), EnvSamples: sj.EnvSamples}
	archive.New().Add(job)
	return job
}

// encodeRecord renders the archivedb payload of one job version: the
// compact JSON object {"summary":…,"job":…,"version":…} of the serving
// summary, the job's full performance archive and its write version,
// fields in that order and map keys sorted, so the bytes are
// deterministic for a given job. Only the summary goes through
// encoding/json; archive.AppendRecord writes the rest in one pass.
// Version orders replicated writes of the same ID: a replica at
// version >= v treats an incoming v as a replay and acks without
// rewriting.
func encodeRecord(sum Summary, job *archive.Job, version uint64) ([]byte, error) {
	raw, err := json.Marshal(sum)
	if err != nil {
		return nil, err
	}
	return archive.AppendRecord(nil, raw, job, version)
}

// decodeRecord inverts encodeRecord in one pass over payload. Records
// persisted before versions existed carry none and are read back as
// version 1; a record without a job is an error.
func decodeRecord(payload []byte) (*archive.Job, Summary, uint64, error) {
	var sum Summary
	job, version, err := archive.DecodeRecord(payload, func(raw []byte) error {
		return json.Unmarshal(raw, &sum)
	})
	if err != nil {
		return nil, Summary{}, 0, err
	}
	if job == nil {
		return nil, Summary{}, 0, errors.New("record holds no archive")
	}
	return job, sum, max(version, 1), nil
}

// errDegraded is returned by Put while the persistence circuit breaker
// is open: the store is in degraded read-only mode — reads and queries
// keep serving from the in-memory cache, but nothing new is accepted
// until a probe confirms storage has recovered. HTTP maps it to 503.
var errDegraded = errors.New("service: archive storage degraded (circuit breaker open), store is read-only")

// StoreOptions tunes the durability circuit breaker of a store with a
// backing database; the zero value selects the defaults. Stores without
// a database have no breaker (there is no storage to fail).
type StoreOptions struct {
	// BreakerThreshold is the consecutive persist failures that trip
	// the store into degraded read-only mode; < 1 selects 5.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before a
	// trial is allowed; <= 0 selects 5 s.
	BreakerCooldown time.Duration
	// ProbeInterval is the background recovery-probe period; <= 0
	// selects 500 ms.
	ProbeInterval time.Duration
	// Metrics observes breaker transitions; nil creates a private set.
	Metrics *Metrics
}

// Store is the performance-archive store: completed jobs keyed by job
// ID, each kept as its frame. Without a database it is purely
// in-memory (a restart loses everything); with one it is a
// write-through cache — Put persists to the WAL before publishing to
// readers, and opening a store over an existing database restores
// every archived job. A circuit breaker guards persistence: after
// repeated failures the store trips to degraded read-only mode and a
// background probe re-closes the breaker once storage recovers. It is
// safe for concurrent readers and writers.
type Store struct {
	mu   sync.RWMutex
	jobs map[string]*storedJob
	db   *archivedb.DB

	// streamKeys tracks, per live streamed job, the archivedb keys of
	// its acked ingest batches so sealing can delete them in one sweep.
	streamKeys map[string][]string
	// hints is the in-memory view of the hinted-handoff journal
	// (target -> job ID -> newest hint), mirrored to archivedb under
	// hintKeyPrefix when there is one; see store_hints.go.
	hints map[string]map[string]shard.HintRecord
	// recoveredStream holds the stream batches found during warm-up,
	// sorted by (job, lastSeq); the server replays them at startup.
	recoveredStream []streamBatch

	// generation counts publishes. It is bumped inside the same critical
	// section that makes a job visible, before the Put acks, so a
	// response computed before a write can only ever be cached under a
	// generation no post-ack reader observes — that is the entire
	// invalidation story of the HTTP response cache.
	generation uint64

	breaker   *breaker
	probeStop chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once
}

// newStore returns an empty in-memory store with no durability.
func newStore() *Store {
	return &Store{
		jobs:       map[string]*storedJob{},
		streamKeys: map[string][]string{},
		hints:      map[string]map[string]shard.HintRecord{},
	}
}

// NewStoreWithOptions returns a store backed by db, warmed with every
// job already persisted in it. A nil db gives an in-memory store.
func NewStoreWithOptions(db *archivedb.DB, opts StoreOptions) (*Store, error) {
	s := newStore()
	s.db = db
	if db == nil {
		return s, nil
	}
	m := opts.Metrics
	if m == nil {
		m = NewMetrics()
	}
	s.breaker = newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, func(to breakerState) {
		m.transitions.With(to.String()).Inc()
	})
	interval := opts.ProbeInterval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	// The probe starts only once the store exists: a failed open has
	// nothing to stop.
	s.probeStop = make(chan struct{})
	s.probeDone = make(chan struct{})
	go s.probeLoop(interval)
	return s, nil
}

// loaded is one record of the database a store opens over, read and
// decoded: a stored job, a journaled hint, or an acked ingest batch.
type loaded struct {
	id    string
	job   *storedJob
	hint  *shard.HintRecord
	batch *streamBatch
}

// load warms the store with every record in its database. Reading,
// checksumming and decoding a record is most of a reopen, so workers
// do it over GOMAXPROCS, each holding one undecoded payload at a time;
// the records are then applied in ID order, and the error returned is
// the lowest ID's — what a serial loop over the IDs would return.
func (s *Store) load() error {
	ids := s.db.IDs()
	recs, err := inOrder(len(ids), func(i int) (loaded, bool, error) {
		return s.loadRecord(ids[i])
	})
	if err != nil {
		return err
	}
	for _, r := range recs {
		switch {
		case r.job != nil:
			s.jobs[r.id] = r.job
		case r.hint != nil:
			if s.hints[r.hint.Target] == nil {
				s.hints[r.hint.Target] = map[string]shard.HintRecord{}
			}
			s.hints[r.hint.Target][r.hint.ID] = *r.hint
		default:
			s.streamKeys[r.batch.JobID] = append(s.streamKeys[r.batch.JobID], r.id)
			s.recoveredStream = append(s.recoveredStream, *r.batch)
		}
	}
	sort.Slice(s.recoveredStream, func(i, j int) bool {
		a, b := s.recoveredStream[i], s.recoveredStream[j]
		if a.JobID != b.JobID {
			return a.JobID < b.JobID
		}
		return a.LastSeq < b.LastSeq
	})
	return nil
}

// loadRecord reads and decodes the record stored under id; ok is false
// when there is nothing to restore from it.
func (s *Store) loadRecord(id string) (r loaded, ok bool, err error) {
	payload, ok, err := s.db.Get(id)
	if err != nil {
		return loaded{}, false, fmt.Errorf("service: load job %q: %w", id, err)
	}
	if !ok {
		return loaded{}, false, nil
	}
	if target, hintID, isHint := parseHintKey(id); isHint {
		// Journaled hinted-handoff records from before the last
		// shutdown: restore them for the drainer. A hint that fails
		// validation is dropped — the anti-entropy sweep converges the
		// replica it would have repaired.
		rec, err := shard.DecodeHintRecord(payload)
		if err != nil || rec.Target != target || rec.ID != hintID {
			return loaded{}, false, nil
		}
		return loaded{id: id, hint: &rec}, true, nil
	}
	if jobID, lastSeq, isStream := parseStreamKey(id); isStream {
		// Acked ingest batches of jobs that were still streaming at
		// the last shutdown. They are not archives; surface them for
		// the serving layer to replay (or discard, if the job was
		// sealed) instead of decoding them as jobs.
		return loaded{id: id, batch: &streamBatch{JobID: jobID, LastSeq: lastSeq, Payload: payload}}, true, nil
	}
	job, sum, version, err := decodeRecord(payload)
	if err != nil {
		return loaded{}, false, fmt.Errorf("service: decode job %q: %w", id, err)
	}
	return loaded{id: id, job: indexJob(id, job, sum, version)}, true, nil
}

// probeLoop is the breaker's recovery path: while the store is
// degraded, it periodically appends a real probe record to the engine —
// the same write path a Put takes — half-opening the breaker and
// closing it on the first success. Without traffic the store would
// otherwise stay read-only forever (submits are shed while degraded, so
// no Put would ever arrive to act as the trial).
func (s *Store) probeLoop(interval time.Duration) {
	defer close(s.probeDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.probeStop:
			return
		case <-t.C:
			if !s.breaker.tryProbe() {
				continue
			}
			if err := s.db.Probe(); err != nil {
				s.breaker.failure()
			} else {
				s.breaker.success()
			}
		}
	}
}

// Close stops the background recovery probe. It does not close the
// backing database (the store does not own it). Safe to call multiple
// times; a store without a database has nothing to stop.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		if s.probeStop != nil {
			close(s.probeStop)
			<-s.probeDone
		}
	})
}

// breakerStatus returns the persistence breaker's state; stores without
// a database report closed.
func (s *Store) breakerStatus() breakerState {
	if s.breaker == nil {
		return breakerClosed
	}
	return s.breaker.current()
}

// readOnly reports whether the store is in degraded read-only mode
// (breaker open): reads serve from cache, submits should be shed.
func (s *Store) readOnly() bool { return s.breakerStatus() == breakerOpen }

// storageStats returns the backing engine's stats, or nil when the
// store is in-memory.
func (s *Store) storageStats() *archivedb.Stats {
	if s.db == nil {
		return nil
	}
	st := s.db.Stats()
	return &st
}

// jobMeta projects a stored job's summary into the job.* fields the v2
// query language exposes, keyed by the store key (which is also the
// partial's job ID).
func jobMeta(id string, sum Summary) query.JobMeta {
	return query.JobMeta{
		ID:         id,
		Platform:   sum.Platform,
		Algorithm:  sum.Algorithm,
		Runtime:    sum.Runtime,
		Supersteps: sum.Supersteps,
		Operations: sum.Operations,
	}
}

// Put indexes and stores a completed job under its summary ID. The
// store keeps the job's frame, not job: once Put returns, the caller's
// tree is the caller's again. Indexing links job first, so rows, path
// keys and the persisted bytes are canonical for jobs fresh out of the
// harness (Load-ed archives are already linked; relinking is
// idempotent).
//
// With a backing database the job is persisted before it becomes
// visible to readers; an error means the job is neither durable nor
// published. While the breaker is open Put fails fast with errDegraded
// without touching storage; every real persistence outcome feeds the
// breaker.
func (s *Store) Put(job *archive.Job, sum Summary) error {
	version := s.version(sum.ID) + 1
	sj := indexJob(sum.ID, job, sum, version)
	if s.db != nil {
		payload, err := encodeRecord(sum, job, version)
		if err != nil {
			return fmt.Errorf("service: encode job %q: %w", sum.ID, err)
		}
		if !s.breaker.allow() {
			return errDegraded
		}
		if err := s.db.Put(sum.ID, payload, archivedb.IndexMeta{}); err != nil {
			s.breaker.failure()
			return err
		}
		s.breaker.success()
	}
	s.mu.Lock()
	s.jobs[sum.ID] = sj
	s.generation++
	s.mu.Unlock()
	return nil
}

// version returns the stored job's write version (0 when unknown).
func (s *Store) version(id string) uint64 {
	if sj, ok := s.get(id); ok {
		return sj.Version
	}
	return 0
}

// export returns the replication payload for a stored job: the exact
// persistedJob bytes (from the backing database when there is one, so
// replicas receive what the primary fsynced) plus its version. It feeds
// both the write-path replication fan-out and the router's read-repair.
func (s *Store) export(id string) (payload []byte, version uint64, ok bool, err error) {
	sj, have := s.get(id)
	if !have {
		return nil, 0, false, nil
	}
	if s.db != nil {
		payload, have, err = s.db.Get(id)
		if err != nil {
			return nil, 0, false, fmt.Errorf("service: export job %q: %w", id, err)
		}
		if have {
			return payload, sj.Version, true, nil
		}
	}
	payload, err = encodeRecord(sj.Summary, sj.tree(), sj.Version)
	if err != nil {
		return nil, 0, false, fmt.Errorf("service: export job %q: %w", id, err)
	}
	return payload, sj.Version, true, nil
}

// applyReplica applies one replicated write: the exact payload bytes
// another shard persisted for this job, tagged with its version. It is
// idempotent — a version at or below the local one is a replay and
// succeeds without writing — so replication retries and read-repair can
// push the same record any number of times. The raw bytes go to the
// backing database unchanged, keeping every replica byte-identical to
// the primary; the decoded job is published to readers under the same
// generation rules as Put.
func (s *Store) applyReplica(id string, version uint64, payload []byte) error {
	if version == 0 {
		version = 1
	}
	if s.version(id) >= version {
		return nil
	}
	job, sum, _, err := decodeRecord(payload)
	if err != nil {
		return fmt.Errorf("service: decode replica %q: %w", id, err)
	}
	sj := indexJob(id, job, sum, version)
	if s.db != nil {
		if !s.breaker.allow() {
			return errDegraded
		}
		if err := s.db.Put(id, payload, archivedb.IndexMeta{}); err != nil {
			s.breaker.failure()
			return err
		}
		s.breaker.success()
	}
	s.mu.Lock()
	if cur, ok := s.jobs[id]; !ok || cur.Version < version {
		s.jobs[id] = sj
		s.generation++
	}
	s.mu.Unlock()
	return nil
}

// gen returns the store's publish counter. It changes on every
// write that becomes visible to readers; response caches key on it so a
// write invalidates every cached body in O(1).
func (s *Store) gen() uint64 {
	s.mu.RLock()
	g := s.generation
	s.mu.RUnlock()
	return g
}

// get returns the stored job with the given ID.
func (s *Store) get(id string) (*storedJob, bool) {
	s.mu.RLock()
	sj, ok := s.jobs[id]
	s.mu.RUnlock()
	return sj, ok
}

// Len returns the number of stored jobs.
func (s *Store) Len() int {
	s.mu.RLock()
	n := len(s.jobs)
	s.mu.RUnlock()
	return n
}

// ids returns the stored job IDs, sorted.
func (s *Store) ids() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		out = append(out, id)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// streamKeyPrefix namespaces the archivedb records that hold acked
// ingest batches of in-flight streamed jobs. '~' sorts after every
// printable job-ID character and the prefix never collides with a job
// ID the API accepts, so stream records and archives share one WAL
// without ambiguity; warm-up routes on the prefix.
const streamKeyPrefix = "~stream/"

// streamBatch is one durable acked ingest batch: the encoded events of
// a live streamed job up to LastSeq, recovered at startup so a restart
// never loses an acked batch.
type streamBatch struct {
	JobID   string
	LastSeq uint64
	Payload []byte
}

// streamBatchKey builds the archivedb key for one acked batch. The
// fixed-width sequence suffix makes lexicographic key order equal
// replay order.
func streamBatchKey(jobID string, lastSeq uint64) string {
	return fmt.Sprintf("%s%s/%020d", streamKeyPrefix, jobID, lastSeq)
}

// parseStreamKey inverts streamBatchKey. The job ID may itself contain
// slashes, so the sequence is split off at the last one.
func parseStreamKey(key string) (jobID string, lastSeq uint64, ok bool) {
	rest := strings.TrimPrefix(key, streamKeyPrefix)
	if rest == key {
		return "", 0, false
	}
	i := strings.LastIndex(rest, "/")
	if i < 0 {
		return "", 0, false
	}
	seq, err := strconv.ParseUint(rest[i+1:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return rest[:i], seq, true
}

// appendStreamBatch persists one acked ingest batch through the same
// WAL group-commit path archives take: the caller acks the batch to the
// client only after this returns, so "202 accepted" means the events
// survive a crash. In-memory stores (no database) ack immediately —
// they advertise no durability for archives either. The breaker guards
// the write exactly as it guards Put.
func (s *Store) appendStreamBatch(jobID string, lastSeq uint64, payload []byte) error {
	if s.db == nil {
		return nil
	}
	if !s.breaker.allow() {
		return errDegraded
	}
	key := streamBatchKey(jobID, lastSeq)
	if err := s.db.Put(key, payload, archivedb.IndexMeta{}); err != nil {
		s.breaker.failure()
		return err
	}
	s.breaker.success()
	s.mu.Lock()
	s.streamKeys[jobID] = append(s.streamKeys[jobID], key)
	s.mu.Unlock()
	return nil
}

// recoveredStreamBatches returns the acked ingest batches found when
// the store was opened over an existing database, sorted by
// (job, lastSeq) — replay order. The serving layer folds them back into
// live jobs at startup.
func (s *Store) recoveredStreamBatches() []streamBatch {
	s.mu.RLock()
	out := make([]streamBatch, len(s.recoveredStream))
	copy(out, s.recoveredStream)
	s.mu.RUnlock()
	return out
}

// deleteStreamBatches removes every durable ingest batch of a job,
// called once the sealed archive itself is durable (the batches are
// then redundant) or when a recovered job's archive already exists.
// Best effort: a delete failure leaves an orphan batch that the next
// startup discards the same way.
func (s *Store) deleteStreamBatches(jobID string) error {
	s.mu.Lock()
	keys := s.streamKeys[jobID]
	delete(s.streamKeys, jobID)
	s.mu.Unlock()
	if s.db == nil {
		return nil
	}
	var first error
	for _, k := range keys {
		if err := s.db.Delete(k); err != nil && first == nil {
			first = err
		}
	}
	return first
}
