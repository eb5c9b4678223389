// Package service implements granula-serve: the long-running serving
// layer over the Granula pipeline. It owns a bounded job executor pool
// that runs (platform, algorithm, graph) simulations concurrently, an
// archive store that holds each job as columns — the frame every query
// scans and the environment samples (DESIGN.md, "The store: a job is a
// frame"), from which the archive tree is rebuilt only for a reader
// that needs one — written through to an archivedb database, and a JSON
// HTTP API that exposes submission, status, archive retrieval, the query
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
	"repro/internal/core"
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

// Summarize condenses a finished archive into its summary. It is the
// one definition of a job's reported numbers, whether the executor ran
// the job, it was streamed in, or the CLI reads it from a file: runtime
// is the root's span, operations the tree size, supersteps the count of
// core.Steps, the percentages the domain breakdown (zero for a tree
// outside the domain model), and model errors the platform model's
// check (none for a platform without a built-in model). The archive
// holds no replication factor; the executor adds the engine's.
func Summarize(job *archive.Job, algorithm string) Summary {
	sum := Summary{ID: job.ID, Platform: job.Platform, Algorithm: algorithm, Supersteps: len(core.Steps(job))}
	if job.Root != nil {
		sum.Runtime = job.Root.Duration()
		job.Root.Walk(func(*archive.Operation) { sum.Operations++ })
	}
	if bd, err := core.DomainBreakdown(job); err == nil {
		sum.SetupPercent = bd.SetupPercent()
		sum.IOPercent = bd.IOPercent()
		sum.ProcessingPercent = bd.ProcessingPercent()
	}
	if model := core.ModelFor(job.Platform); model != nil {
		for _, me := range model.CheckJob(job) {
			sum.ModelErrors = append(sum.ModelErrors, fmt.Sprintf("%v", me))
		}
	}
	return sum
}

// storedJob is one published version of an archived job, held as
// columns. The frame is the stored job: Cols holds every operation row
// — fields, mission paths, infos and derived infos — that the queries
// on the job (?q= row queries, aggregates, the ?mission=/?actor=/?path=
// lookups) evaluate against and render from. ID, Platform and Env, the
// environment samples as columns, are the rest of the archive; no
// operation tree and no sample struct is kept, and tree rebuilds both
// for the readers that need them. Stats is the zone map of
// Cols, which /query2 prunes with before it scans the frame; Version
// orders replicated writes of the job. All of it is built once
// when the job enters the store and is immutable after, so one get sees
// one consistent publish.
type storedJob struct {
	ID, Platform string
	Env          archive.EnvColumns
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
		ID: job.ID, Platform: job.Platform, Env: archive.NewEnvColumns(job.EnvSamples),
		Summary: sum, Cols: cols, Version: version,
		Stats: query.FrameStats(cols.Frame(JobMeta(id, sum)), version),
	}
}

// frame returns the job's columns as a frame tagged with its job.*
// fields.
func (sj *storedJob) frame() *query.Frame { return sj.Cols.Frame(sj.Stats.Meta) }

// tree rebuilds the job's archive tree from its frame and its samples
// from their columns: what /archive, /viz and /diff read. Each call
// builds a fresh job.
func (sj *storedJob) tree() *archive.Job {
	job := &archive.Job{ID: sj.ID, Platform: sj.Platform, Root: sj.frame().Tree(), EnvSamples: sj.Env.Samples()}
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

// errDegraded is returned by every write while the persistence circuit
// breaker is open: the store is in degraded read-only mode — reads and
// queries keep serving from the in-memory cache, but nothing new is
// accepted until a probe confirms storage has recovered. HTTP maps it
// to 503.
var errDegraded = errors.New("service: archive storage degraded (circuit breaker open), store is read-only")

// errBadRecord is returned by applyReplica for a payload that does not
// decode as a record. HTTP maps it to 400: a pusher must not retry it.
var errBadRecord = errors.New("service: undecodable replica record")

// StoreOptions tunes the store's durability circuit breaker; the zero
// value selects the defaults.
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
// ID, each kept as its frame. It is a write-through cache over its
// database: every write reaches the WAL before it is published to
// readers, and opening a store over an existing database restores
// every archived job. A circuit breaker guards persistence: after
// repeated failures the store trips to degraded read-only mode and a
// background probe re-closes the breaker once storage recovers. It is
// safe for concurrent readers and writers.
type Store struct {
	mu   sync.RWMutex
	jobs map[string]*storedJob
	db   *archivedb.DB

	// streamKeys tracks, per live streamed job, its acked ingest
	// batches: their archivedb keys, so sealing can delete them in one
	// sweep, and the highest sequence they cover.
	streamKeys map[string]ackedBatches
	// hints is the in-memory view of the hinted-handoff journal
	// (target -> job ID -> newest hint), mirrored to archivedb under
	// hintKeyPrefix; see store_hints.go.
	hints map[string]map[string]shard.HintRecord
	// recoveredStream holds the stream batches found during warm-up,
	// sorted by (job, lastSeq), until the server takes them to replay
	// at startup.
	recoveredStream []streamBatch

	// generation counts publishes. It is bumped inside the same critical
	// section that makes a job visible, before the Put acks, so a
	// /query2 answer computed before a write can only ever be memoized
	// under a generation no post-ack reader observes — that is the entire
	// invalidation story of the /query2 memo.
	generation uint64

	breaker   *breaker
	probeStop chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once
}

// NewStoreWithOptions returns a store backed by db, warmed with every
// job already persisted in it. A nil db is an error.
func NewStoreWithOptions(db *archivedb.DB, opts StoreOptions) (*Store, error) {
	if db == nil {
		return nil, errors.New("service: a store needs a database")
	}
	m := opts.Metrics
	if m == nil {
		m = NewMetrics()
	}
	s := &Store{
		jobs:       map[string]*storedJob{},
		db:         db,
		streamKeys: map[string]ackedBatches{},
		hints:      map[string]map[string]shard.HintRecord{},
		breaker: newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, func(to breakerState) {
			m.transitions.With(to.String()).Inc()
		}),
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	interval := opts.ProbeInterval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	// The probe starts only once the store exists: a failed open has
	// nothing to stop.
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
			s.addStreamKeyLocked(r.batch.JobID, r.batch.LastSeq, r.id)
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
	if strings.HasPrefix(id, hintKeyPrefix) {
		// Journaled hinted-handoff records from before the last
		// shutdown: restore them for the drainer. The value is the
		// version in decimal; any other value, such as the JSON
		// envelope older journals stored with a copy of the record,
		// restores at version 0: "push whatever this node holds". A key
		// hintKey could not have written holds nothing to restore.
		target, hintID, parsed := parseHintKey(id)
		version, perr := strconv.ParseUint(string(payload), 10, 64)
		if perr != nil {
			version = 0
		}
		return loaded{id: id, hint: &shard.HintRecord{Target: target, ID: hintID, Version: version}}, parsed, nil
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
// times.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		close(s.probeStop)
		<-s.probeDone
	})
}

// readOnly reports whether the store is in degraded read-only mode
// (breaker open): reads serve from cache, submits should be shed.
func (s *Store) readOnly() bool { return s.breaker.current() == breakerOpen }

// write is the store's one durable write: archives, replicas, ingest
// batches and hints all append to the WAL here. While the breaker is
// open it fails fast with errDegraded without touching storage; every
// real persistence outcome feeds the breaker.
func (s *Store) write(key string, payload []byte) error {
	if !s.breaker.allow() {
		return errDegraded
	}
	if err := s.db.Put(key, payload, archivedb.IndexMeta{}); err != nil {
		s.breaker.failure()
		return err
	}
	s.breaker.success()
	return nil
}

// JobMeta projects a job's summary into the job.* fields the v2 query
// language exposes, keyed by the store key (which is also the partial's
// job ID).
func JobMeta(id string, sum Summary) query.JobMeta {
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
// The job is persisted before it becomes visible to readers; an error
// means the job is neither durable nor published.
func (s *Store) Put(job *archive.Job, sum Summary) error {
	_, err := s.put(job, sum)
	return err
}

// put is Put returning the record it wrote: the bytes now in the WAL
// and their version, which is what the replicas receive.
func (s *Store) put(job *archive.Job, sum Summary) (shard.ReplicaRecord, error) {
	version := s.version(sum.ID) + 1
	sj := indexJob(sum.ID, job, sum, version)
	payload, err := encodeRecord(sum, job, version)
	if err != nil {
		return shard.ReplicaRecord{}, fmt.Errorf("service: encode job %q: %w", sum.ID, err)
	}
	if err := s.write(sum.ID, payload); err != nil {
		return shard.ReplicaRecord{}, err
	}
	s.mu.Lock()
	s.jobs[sum.ID] = sj
	s.generation++
	s.mu.Unlock()
	return shard.ReplicaRecord{ID: sum.ID, Version: version, Payload: payload}, nil
}

// version returns the stored job's write version (0 when unknown).
func (s *Store) version(id string) uint64 {
	if sj, ok := s.get(id); ok {
		return sj.Version
	}
	return 0
}

// export returns the replication payload for a stored job: the exact
// record bytes the database holds, so replicas receive what the primary
// persisted, plus its version. It feeds the router's read-repair and
// the anti-entropy push; the write path pushes what put wrote. A
// stored job the database does not hold is an error.
func (s *Store) export(id string) (payload []byte, version uint64, ok bool, err error) {
	sj, have := s.get(id)
	if !have {
		return nil, 0, false, nil
	}
	payload, have, err = s.db.Get(id)
	if err == nil && !have {
		err = errors.New("not in the database")
	}
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
// generation rules as Put. A payload that is not a record fails with
// errBadRecord and writes nothing.
func (s *Store) applyReplica(id string, version uint64, payload []byte) error {
	if version == 0 {
		version = 1
	}
	if s.version(id) >= version {
		return nil
	}
	job, sum, _, err := decodeRecord(payload)
	if err != nil {
		return fmt.Errorf("%w %q: %v", errBadRecord, id, err)
	}
	sj := indexJob(id, job, sum, version)
	if err := s.write(id, payload); err != nil {
		return err
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
// write that becomes visible to readers; the /query2 memo keys on it so
// a write invalidates every memoized answer in O(1).
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
// ID the API accepts (checkJobID), so stream records and archives
// share one WAL without ambiguity; warm-up routes on the prefix.
const streamKeyPrefix = "~stream/"

// checkJobID refuses a job ID in the store's reserved namespace: keys
// that begin with '~' hold hints and ingest batches, and a job stored
// under one would be read back as one of those at reopen.
func checkJobID(id string) error {
	if strings.HasPrefix(id, "~") {
		return fmt.Errorf("service: job ID %q begins with '~', which is reserved", id)
	}
	return nil
}

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
// survive a crash.
func (s *Store) appendStreamBatch(jobID string, lastSeq uint64, payload []byte) error {
	key := streamBatchKey(jobID, lastSeq)
	if err := s.write(key, payload); err != nil {
		return err
	}
	s.mu.Lock()
	s.addStreamKeyLocked(jobID, lastSeq, key)
	s.mu.Unlock()
	return nil
}

// ackedBatches is one live streamed job's acked ingest batches: their
// archivedb keys and durable, the highest sequence they cover. An
// ingest ack implies its events are at or below durable.
type ackedBatches struct {
	keys    []string
	durable uint64
}

// addStreamKeyLocked records the acked batch stored under key. Callers
// hold s.mu (or own the store, during load).
func (s *Store) addStreamKeyLocked(jobID string, lastSeq uint64, key string) {
	k := s.streamKeys[jobID]
	k.keys = append(k.keys, key)
	k.durable = max(k.durable, lastSeq)
	s.streamKeys[jobID] = k
}

// durableSeq returns the highest sequence of a live job's events that
// its acked batches hold, 0 for none.
func (s *Store) durableSeq(jobID string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.streamKeys[jobID].durable
}

// takeRecoveredStreams hands over, once, the acked ingest batches found
// when the store was opened over an existing database, sorted by
// (job, lastSeq) — replay order. The serving layer folds them back into
// live jobs at startup; after that the store keeps no payload of them.
func (s *Store) takeRecoveredStreams() []streamBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.recoveredStream
	s.recoveredStream = nil
	return out
}

// deleteStreamBatches removes every durable ingest batch of a job,
// called once the sealed archive itself is durable (the batches are
// then redundant) or when a recovered job's archive already exists.
// Best effort: a delete failure leaves an orphan batch that the next
// startup discards the same way.
func (s *Store) deleteStreamBatches(jobID string) error {
	s.mu.Lock()
	keys := s.streamKeys[jobID].keys
	delete(s.streamKeys, jobID)
	s.mu.Unlock()
	var first error
	for _, k := range keys {
		if err := s.db.Delete(k); err != nil && first == nil {
			first = err
		}
	}
	return first
}
