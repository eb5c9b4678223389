// Package archivedb is an embedded, single-writer storage engine that
// makes Granula performance archives durable (the paper's reusability
// requirement R2: archives are standardized artifacts that outlive the
// job that produced them). The design is a log-structured key/value
// store specialized to archives:
//
//   - every Put/Delete appends one CRC32C-framed record to an
//     append-only write-ahead log, split into size-rotated segments;
//   - an in-memory index maps job ID → (segment, offset), alongside the
//     mission/actor/path secondary-index metadata the serving store
//     computes, so a snapshot can warm those indexes without decoding
//     archives;
//   - a periodic snapshot persists the index so reopening a large WAL
//     replays only the records after the snapshot position;
//   - background compaction copies live records forward into the active
//     segment and deletes fully-dead segments, bounding disk growth;
//   - Open replays the WAL past the snapshot and truncates a torn tail
//     (crash mid-write) instead of failing — every record acked before
//     the crash survives, detected by checksum, never by trust.
//
// The WAL is self-contained: compaction copies live records forward
// before removing old segments, so recovery never needs the snapshot
// for correctness, only for speed. A Put is acked once its record is
// written and (unless Options.NoSync) fsynced.
package archivedb

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// IndexMeta is the per-job secondary-index metadata persisted next to
// each record: the distinct missions, actors, and root paths of the
// job's operation tree. It rides in the WAL envelope and the snapshot
// so an index could be warmed without decoding the archive payload, but
// every caller passes it empty: the serving store keeps no such index.
// It can go once bench/, which still passes it, stops doing so.
type IndexMeta struct {
	Missions []string `json:"missions,omitempty"`
	Actors   []string `json:"actors,omitempty"`
	Paths    []string `json:"paths,omitempty"`
}

// FaultInjector is the hook the engine offers to chaos tests: Fail may
// veto an operation at a named site, and Mangle may tear a WAL append
// into a prefix (the engine writes the prefix and fails the append,
// simulating a crash mid-write that recovery must repair).
// internal/faults provides the standard implementation.
type FaultInjector interface {
	Fail(site string) error
	Mangle(site string, frame []byte) ([]byte, error)
}

// Injection sites threaded through the engine.
const (
	// siteAppend guards every WAL append (Put, Delete, Probe and
	// compaction's copies).
	siteAppend = "archivedb.append"
	// siteRead guards every record read (Get).
	siteRead = "archivedb.read"
)

// Options tunes the engine. The zero value selects the durable
// defaults: 4 MiB segments, fsync on every append, a snapshot every 256
// appends, compaction at 50% garbage (min 1 MiB), 64 MiB record cap,
// background compaction on.
type Options struct {
	// SegmentSize is the rotation threshold in bytes.
	SegmentSize int64
	// NoSync skips fsync on appends and snapshots. Throughput rises by
	// orders of magnitude; a machine crash may lose acked records (a
	// process crash still loses nothing).
	NoSync bool
	// SnapshotEvery is the number of appends between index snapshots;
	// negative disables periodic snapshots (Close still writes one).
	SnapshotEvery int
	// CompactRatio is the dead/total byte ratio above which background
	// compaction triggers.
	CompactRatio float64
	// CompactMinBytes is the minimum dead bytes before compaction
	// triggers, so tiny databases are not churned.
	CompactMinBytes int64
	// MaxRecordBytes bounds a single record; reads also use it to
	// reject absurd lengths from corrupt frame headers.
	MaxRecordBytes int64
	// NoBackground disables the compaction goroutine; compact can
	// still be called manually (deterministic tests). The group-commit
	// committer goroutine always runs: it is the write path.
	NoBackground bool
	// GroupCommitWindow is how long the committer waits for concurrent
	// appends to join a batch before the shared write+fsync. 0 (the
	// default) adds no latency: a batch is whatever has queued while
	// the previous fsync ran. Larger windows trade single-writer
	// latency (bounded by the window) for fewer, larger fsyncs.
	GroupCommitWindow time.Duration
	// Injector, when non-nil, receives a callback at each I/O fault
	// point so chaos tests (and the -chaos flag) can inject errors,
	// latency, and torn writes into the engine.
	Injector FaultInjector
}

func (o Options) normalized() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 4 << 20
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 256
	}
	if o.CompactRatio <= 0 {
		o.CompactRatio = 0.5
	}
	if o.CompactMinBytes <= 0 {
		o.CompactMinBytes = 1 << 20
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 64 << 20
	}
	return o
}

// Stats reports the engine's storage and recovery counters; the
// service exposes them as Prometheus gauges.
type Stats struct {
	// Gauges computed at call time.
	Segments  int
	LiveJobs  int
	LiveBytes int64
	DeadBytes int64
	WALBytes  int64
	// Lifetime counters.
	Compactions    uint64
	ReclaimedBytes int64
	Snapshots      uint64
	// Group-commit counters: batches flushed, records across them, the
	// largest batch seen, and shared fsyncs issued. Records/Fsyncs is
	// the effective amortization of the durability cost.
	GroupCommits        uint64
	GroupCommitRecords  uint64
	GroupCommitFsyncs   uint64
	GroupCommitMaxBatch int
	// Recovery facts from the last Open.
	RecoveredRecords      int
	RecoveredFromSnapshot int
	TruncatedBytes        int64
	SnapshotDiscarded     bool
	// Columnar segment sidecar counters. FullReads counts body reads
	// (a scan), TailReads stats-footer reads (a prune check): a query
	// that prunes a segment adds a tail read but no full read.
	ColSegWrites    uint64
	ColSegDeletes   uint64
	ColSegFullReads uint64
	ColSegTailReads uint64
	ColSegSweeps    uint64
}

// recordLoc is one live record's position in the WAL.
type recordLoc struct {
	seg  uint64
	off  int64
	size int64
	meta IndexMeta
}

// errClosed is returned by operations on a closed DB.
var errClosed = fmt.Errorf("archivedb: database is closed")

// DB is the storage engine handle. All methods are safe for concurrent
// use; writes are serialized (single-writer), reads run concurrently.
type DB struct {
	dir  string
	opts Options

	mu                   sync.RWMutex
	index                map[string]recordLoc
	segs                 map[uint64]*segState
	activeSeg            uint64
	activeSize           int64
	active               *os.File
	appendsSinceSnapshot int
	closed               bool
	stats                Stats

	readMu    sync.Mutex
	readFiles map[uint64]*os.File

	// Columnar segment sidecar (colstore.go). colMu serializes file
	// writes/deletes; reads go lock-free against the atomically-renamed
	// files. The counters are atomic so read paths never take db.mu.
	colMu        sync.Mutex
	colWrites    atomic.Uint64
	colDeletes   atomic.Uint64
	colFullReads atomic.Uint64
	colTailReads atomic.Uint64
	colSweeps    atomic.Uint64

	// Group-commit queue (guarded by gcMu, drained by commitLoop).
	gcMu     sync.Mutex
	gcQueue  []*commitReq
	gcClosed bool
	gcKick   chan struct{}

	compactKick chan struct{}
	stopCh      chan struct{}
	wg          sync.WaitGroup
}

// Open opens (or creates) the database in dir, recovering state from
// the snapshot and WAL. Recovery replays every record after the
// snapshot position; a torn or checksum-corrupt tail on the newest
// segment is truncated away, while corruption in the middle of the log
// is reported as an error rather than silently dropped.
func Open(dir string, opts Options) (*DB, error) {
	o := opts.normalized()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archivedb: %w", err)
	}
	db := &DB{
		dir:         dir,
		opts:        o,
		index:       map[string]recordLoc{},
		segs:        map[uint64]*segState{},
		readFiles:   map[uint64]*os.File{},
		gcKick:      make(chan struct{}, 1),
		compactKick: make(chan struct{}, 1),
		stopCh:      make(chan struct{}),
	}
	if err := db.recover(); err != nil {
		db.closeFiles()
		return nil, err
	}
	db.wg.Add(1)
	go db.commitLoop()
	if !o.NoBackground {
		db.wg.Add(1)
		go db.compactLoop()
	}
	return db, nil
}

// recover loads the snapshot, replays the WAL, and opens the active
// segment for appends.
func (db *DB) recover() error {
	nums, err := listSegments(db.dir)
	if err != nil {
		return err
	}
	sizes := map[uint64]int64{}
	for _, n := range nums {
		fi, err := os.Stat(segmentPath(db.dir, n))
		if err != nil {
			return fmt.Errorf("archivedb: %w", err)
		}
		sizes[n] = fi.Size()
		db.segs[n] = &segState{size: fi.Size()}
	}

	startSeg, startOff := uint64(0), int64(0)
	snap, discarded := loadSnapshot(db.dir)
	if snap != nil {
		if validateSnapshot(snap, sizes) {
			for _, e := range snap.Entries {
				db.setLocked(e.ID, recordLoc{seg: e.Seg, off: e.Off, size: e.Size, meta: e.Meta})
			}
			startSeg, startOff = snap.Seg, snap.Off
			db.stats.RecoveredFromSnapshot = len(snap.Entries)
		} else {
			discarded = true
		}
	}
	db.stats.SnapshotDiscarded = discarded

	for i, n := range nums {
		if n < startSeg {
			continue
		}
		off := segmentHeaderSize
		if n == startSeg && startOff > off {
			off = startOff
		}
		if err := db.replaySegment(n, off, i == len(nums)-1); err != nil {
			return err
		}
	}
	return db.openActive(nums)
}

// replaySegment applies segment n's records from off. last marks the
// newest segment, whose torn tail is truncated instead of failing.
func (db *DB) replaySegment(n uint64, off int64, last bool) error {
	path := segmentPath(db.dir, n)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("archivedb: %w", err)
	}
	db.readMu.Lock()
	db.readFiles[n] = f
	db.readMu.Unlock()

	size := db.segs[n].size
	truncate := func(at int64) error {
		if !last {
			return fmt.Errorf("archivedb: segment %s corrupt at offset %d (not the newest segment, refusing to drop data)",
				segmentName(n), at)
		}
		if err := os.Truncate(path, at); err != nil {
			return fmt.Errorf("archivedb: truncate torn tail: %w", err)
		}
		db.stats.TruncatedBytes += size - at
		db.segs[n].size = at
		return nil
	}

	// A segment shorter than its magic prefix can only be a crash
	// during segment creation; openActive rewrites the prefix.
	if size < segmentHeaderSize {
		return truncate(0)
	}
	var magic [8]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil || string(magic[:]) != string(segmentMagic) {
		return truncate(0)
	}

	for off < size {
		frame, err := readFrame(f, off, size, db.opts.MaxRecordBytes)
		if err != nil {
			return truncate(off)
		}
		frameLen := int64(len(frame))
		env, _, err := decodePayload(frame[frameHeaderSize:])
		if err != nil {
			return truncate(off)
		}
		switch env.Op {
		case opPut:
			meta := IndexMeta{}
			if env.Meta != nil {
				meta = *env.Meta
			}
			db.dropLocked(env.ID)
			db.setLocked(env.ID, recordLoc{seg: n, off: off, size: frameLen, meta: meta})
		case opDelete:
			db.dropLocked(env.ID)
		case opProbe:
			// Liveness probes carry no data; their bytes are dead on
			// arrival and reclaimed by compaction.
		default:
			return fmt.Errorf("archivedb: segment %s has unknown wal op %q at offset %d",
				segmentName(n), env.Op, off)
		}
		db.stats.RecoveredRecords++
		off += frameLen
	}
	return nil
}

// openActive opens the newest segment for appends, creating segment 1
// in an empty directory and repairing a magic prefix lost to a crash
// during segment creation.
func (db *DB) openActive(nums []uint64) error {
	if len(nums) == 0 {
		return db.createSegmentLocked(1)
	}
	n := nums[len(nums)-1]
	f, err := os.OpenFile(segmentPath(db.dir, n), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("archivedb: %w", err)
	}
	size := db.segs[n].size
	if size < segmentHeaderSize {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return fmt.Errorf("archivedb: %w", err)
		}
		if _, err := f.WriteAt(segmentMagic, 0); err != nil {
			f.Close()
			return fmt.Errorf("archivedb: %w", err)
		}
		size = segmentHeaderSize
	}
	db.active = f
	db.activeSeg = n
	db.activeSize = size
	db.segs[n].size = size
	return nil
}

// createSegmentLocked creates segment n and makes it the active one.
func (db *DB) createSegmentLocked(n uint64) error {
	f, err := os.OpenFile(segmentPath(db.dir, n), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("archivedb: create segment: %w", err)
	}
	if _, err := f.WriteAt(segmentMagic, 0); err != nil {
		f.Close()
		return fmt.Errorf("archivedb: create segment: %w", err)
	}
	if !db.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("archivedb: create segment: %w", err)
		}
	}
	syncDir(db.dir)
	db.active = f
	db.activeSeg = n
	db.activeSize = segmentHeaderSize
	db.segs[n] = &segState{size: segmentHeaderSize}
	return nil
}

// rotateLocked seals the active segment and starts the next one. The
// sealed handle moves to the read cache so Gets keep working. The file
// is trimmed to the acked size first: a failed or torn append may have
// left unacked bytes past activeSize, and sealing them in would make
// the segment unreplayable (mid-log corruption is refused, only the
// newest segment's tail may be truncated on recovery).
func (db *DB) rotateLocked() error {
	if err := db.active.Truncate(db.activeSize); err != nil {
		return fmt.Errorf("archivedb: seal segment: %w", err)
	}
	if !db.opts.NoSync {
		if err := db.active.Sync(); err != nil {
			return fmt.Errorf("archivedb: seal segment: %w", err)
		}
	}
	db.readMu.Lock()
	if _, ok := db.readFiles[db.activeSeg]; ok {
		db.active.Close()
	} else {
		db.readFiles[db.activeSeg] = db.active
	}
	db.readMu.Unlock()
	return db.createSegmentLocked(db.activeSeg + 1)
}

// setLocked points the index at a record and credits its segment.
func (db *DB) setLocked(id string, loc recordLoc) {
	db.index[id] = loc
	if st := db.segs[loc.seg]; st != nil {
		st.live++
		st.liveBytes += loc.size
	}
}

// dropLocked removes id from the index, debiting its old segment.
func (db *DB) dropLocked(id string) {
	loc, ok := db.index[id]
	if !ok {
		return
	}
	delete(db.index, id)
	if st := db.segs[loc.seg]; st != nil {
		st.live--
		st.liveBytes -= loc.size
	}
}

// afterAppendLocked runs the periodic-snapshot and compaction-trigger
// bookkeeping shared by Put and Delete.
func (db *DB) afterAppendLocked() {
	db.appendsSinceSnapshot++
	if db.opts.SnapshotEvery > 0 && db.appendsSinceSnapshot >= db.opts.SnapshotEvery {
		// Snapshot failure is not a Put failure: the record is already
		// durable in the WAL, the snapshot only accelerates reopen.
		db.writeSnapshotLocked()
	}
	var total, live int64
	for _, st := range db.segs {
		total += st.size
		live += st.liveBytes
	}
	dead := total - live
	if dead >= db.opts.CompactMinBytes && float64(dead) > db.opts.CompactRatio*float64(total) {
		select {
		case db.compactKick <- struct{}{}:
		default:
		}
	}
}

// Put durably stores payload under id, superseding any previous record.
// When Put returns nil the record is in the WAL (and fsynced unless
// NoSync) — it will survive a crash. Concurrent Puts share one buffered
// segment write and one fsync via group commit; the record becomes
// visible to readers only after that shared fsync returns.
func (db *DB) Put(id string, payload []byte, meta IndexMeta) error {
	if id == "" {
		return fmt.Errorf("archivedb: empty record ID")
	}
	frame, err := encodeFrame(envelope{Op: opPut, ID: id, Meta: &meta}, payload)
	if err != nil {
		return err
	}
	if int64(len(frame)) > db.opts.MaxRecordBytes {
		return fmt.Errorf("archivedb: record %q is %d bytes, above the %d limit",
			id, len(frame), db.opts.MaxRecordBytes)
	}
	return db.appendShared(frame, func(seg uint64, off int64) {
		db.dropLocked(id)
		db.setLocked(id, recordLoc{seg: seg, off: off, size: int64(len(frame)), meta: meta})
	})
}

// Delete removes id. Deleting an absent id is a no-op; otherwise a
// tombstone record is appended and the job disappears from the index
// (compaction later reclaims both the record and the tombstone).
func (db *DB) Delete(id string) error {
	db.mu.RLock()
	closed := db.closed
	_, present := db.index[id]
	db.mu.RUnlock()
	if closed {
		return errClosed
	}
	if !present {
		return nil
	}
	frame, err := encodeFrame(envelope{Op: opDelete, ID: id}, nil)
	if err != nil {
		return err
	}
	if err := db.appendShared(frame, func(uint64, int64) {
		db.dropLocked(id)
	}); err != nil {
		return err
	}
	// Drop the columnar segment with the record so a segment scan can
	// never resurrect a deleted job. Readers only consult segments for
	// ids still in the index, and the compaction sweep mops up if this
	// removal loses a race or crashes — so best-effort is safe here.
	return db.deleteSegment(id)
}

// Get returns the payload stored under id. The read re-verifies the
// record's checksum, so disk corruption surfaces as an error rather
// than bad bytes.
func (db *DB) Get(id string) ([]byte, bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, false, errClosed
	}
	loc, ok := db.index[id]
	if !ok {
		return nil, false, nil
	}
	if inj := db.opts.Injector; inj != nil {
		if err := inj.Fail(siteRead); err != nil {
			return nil, false, fmt.Errorf("archivedb: read %q: %w", id, err)
		}
	}
	f, err := db.readFileLocked(loc.seg)
	if err != nil {
		return nil, false, err
	}
	frame, err := readFrame(f, loc.off, loc.off+loc.size, db.opts.MaxRecordBytes)
	if err != nil {
		return nil, false, fmt.Errorf("archivedb: record %q unreadable in %s at %d: %w",
			id, segmentName(loc.seg), loc.off, err)
	}
	env, data, err := decodePayload(frame[frameHeaderSize:])
	if err != nil {
		return nil, false, err
	}
	if env.ID != id {
		return nil, false, fmt.Errorf("archivedb: index points record %q at a frame for %q", id, env.ID)
	}
	return data, true, nil
}

// readFileLocked returns a handle for reading a segment. The active
// segment reuses the writer handle; sealed segments open lazily into a
// cache. Callers hold db.mu (read or write).
func (db *DB) readFileLocked(seg uint64) (*os.File, error) {
	if seg == db.activeSeg {
		return db.active, nil
	}
	db.readMu.Lock()
	defer db.readMu.Unlock()
	if f, ok := db.readFiles[seg]; ok {
		return f, nil
	}
	f, err := os.Open(segmentPath(db.dir, seg))
	if err != nil {
		return nil, fmt.Errorf("archivedb: %w", err)
	}
	db.readFiles[seg] = f
	return f, nil
}

// IDs returns the live record IDs, sorted.
func (db *DB) IDs() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.index))
	for id := range db.index {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Probe appends (and, unless NoSync, fsyncs) an empty probe record,
// exercising the same write path as Put: segment rotation, the fault
// injector, and the disk itself. It is how a circuit breaker's
// background probe verifies that storage has actually recovered —
// succeeding only when a real append would. Probe records are invisible
// to reads, skipped on recovery, and reclaimed by compaction.
func (db *DB) Probe() error {
	frame, err := encodeFrame(envelope{Op: opProbe, ID: "_probe"}, nil)
	if err != nil {
		return err
	}
	return db.appendShared(frame, nil)
}

// Stats returns a point-in-time copy of the engine counters.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.stats
	s.Segments = len(db.segs)
	s.LiveJobs = len(db.index)
	for _, st := range db.segs {
		s.WALBytes += st.size
		s.LiveBytes += st.liveBytes
	}
	s.DeadBytes = s.WALBytes - s.LiveBytes
	s.ColSegWrites = db.colWrites.Load()
	s.ColSegDeletes = db.colDeletes.Load()
	s.ColSegFullReads = db.colFullReads.Load()
	s.ColSegTailReads = db.colTailReads.Load()
	s.ColSegSweeps = db.colSweeps.Load()
	return s
}

// Close stops background compaction, writes a final snapshot, and
// closes every file. Further operations return errClosed.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.mu.Unlock()
	close(db.stopCh)
	db.wg.Wait()

	db.mu.Lock()
	defer db.mu.Unlock()
	err := db.writeSnapshotLocked()
	if db.active != nil && !db.opts.NoSync {
		if serr := db.active.Sync(); err == nil && serr != nil {
			err = serr
		}
	}
	db.closeFiles()
	return err
}

// closeFiles closes the writer and the read cache.
func (db *DB) closeFiles() {
	db.readMu.Lock()
	for seg, f := range db.readFiles {
		if f != db.active {
			f.Close()
		}
		delete(db.readFiles, seg)
	}
	db.readMu.Unlock()
	if db.active != nil {
		db.active.Close()
		db.active = nil
	}
}
