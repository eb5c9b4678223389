package archivedb

import (
	"fmt"
	"runtime"
	"time"
)

// Group commit batches concurrent WAL appends into one buffered segment
// write plus one shared fsync. Writers (Put, Delete, Probe) enqueue
// their encoded frame and block; a single committer goroutine drains the
// queue and hands the batch to writeLocked, the WAL's one writer, which
// writes the frames with one WriteAt, fsyncs once and applies every
// index mutation under db.mu; only then are the writers woken. When a
// writer's call returns nil its record is in the WAL and (unless
// NoSync) fsynced — the fsync is merely shared across the batch. With
// Options.GroupCommitWindow > 0 the committer waits that long before
// draining, trading bounded single-writer latency for larger batches.

// commitReq is one pending WAL append: the encoded frame, the index
// mutation to run under db.mu once its run's fsync succeeds, the
// outcome, and — for a group-commit writer, not a compaction copy — the
// signal that wakes the writer.
type commitReq struct {
	frame []byte
	apply func(seg uint64, off int64)
	err   error
	done  chan struct{}
}

// appendShared enqueues one frame for the committer and blocks until
// the batch containing it has been written and fsynced (or failed).
// apply runs under db.mu after the shared fsync, before any reader can
// observe the record; it may be nil for records with no index effect.
func (db *DB) appendShared(frame []byte, apply func(seg uint64, off int64)) error {
	req := &commitReq{frame: frame, apply: apply, done: make(chan struct{})}
	db.gcMu.Lock()
	if db.gcClosed {
		db.gcMu.Unlock()
		return errClosed
	}
	db.gcQueue = append(db.gcQueue, req)
	db.gcMu.Unlock()
	select {
	case db.gcKick <- struct{}{}:
	default:
	}
	<-req.done
	return req.err
}

// commitLoop is the committer goroutine: it drains the queue in batches
// until the database closes, then fails any remaining writers with
// ErrClosed and rejects later arrivals.
func (db *DB) commitLoop() {
	defer db.wg.Done()
	for {
		select {
		case <-db.stopCh:
			db.gcMu.Lock()
			db.gcClosed = true
			rest := db.gcQueue
			db.gcQueue = nil
			db.gcMu.Unlock()
			for _, r := range rest {
				r.err = errClosed
				close(r.done)
			}
			return
		case <-db.gcKick:
		}
		for {
			if w := db.opts.GroupCommitWindow; w > 0 {
				// Let concurrent writers pile into the batch. This is
				// the only latency group commit adds: at most one
				// window between enqueue and the shared fsync.
				time.Sleep(w)
			} else {
				// Even with no window, give writers released by the
				// previous batch a few scheduler turns to re-enqueue:
				// the queue is drained once it stops growing, so a solo
				// writer pays only a couple of yields (microseconds,
				// well under an fsync) while a pack of writers
				// coalesces instead of trickling in twos.
				db.waitQueueSettled()
			}
			db.gcMu.Lock()
			batch := db.gcQueue
			db.gcQueue = nil
			db.gcMu.Unlock()
			if len(batch) == 0 {
				break
			}
			db.mu.Lock()
			db.flushBatchLocked(batch)
			db.mu.Unlock()
			for _, r := range batch {
				close(r.done)
			}
		}
	}
}

// waitQueueSettled yields the processor until the commit queue stops
// growing (bounded at a handful of turns). It costs microseconds — two
// orders of magnitude under an fsync — and turns near-simultaneous
// writers into one batch instead of a trickle of tiny ones.
func (db *DB) waitQueueSettled() {
	prev := -1
	for i := 0; i < 4; i++ {
		db.gcMu.Lock()
		n := len(db.gcQueue)
		db.gcMu.Unlock()
		if n == prev {
			return
		}
		prev = n
		runtime.Gosched()
	}
}

// flushBatchLocked is group commit's bookkeeping around writeLocked:
// it counts the batch, its records and its fsyncs, and only once every
// run is written and applied does it advance the snapshot and
// compaction cadence, one step per acked record. A periodic snapshot
// therefore never lands between two records of one run, where it
// would name a replay position past a record it does not hold.
func (db *DB) flushBatchLocked(batch []*commitReq) {
	if db.closed {
		for _, r := range batch {
			r.err = errClosed
		}
		return
	}
	db.stats.GroupCommits++
	db.stats.GroupCommitRecords += uint64(len(batch))
	if len(batch) > db.stats.GroupCommitMaxBatch {
		db.stats.GroupCommitMaxBatch = len(batch)
	}
	db.stats.GroupCommitFsyncs += db.writeLocked(batch)
	for _, r := range batch {
		if r.err == nil {
			db.afterAppendLocked()
		}
	}
}

// writeLocked is the WAL's one writer: group commit and compaction both
// append through it. It writes frames as contiguous runs — one WriteAt
// and one fsync per run — and runs each frame's apply only after its
// run's fsync succeeds; it returns the number of runs written. Runs
// break at segment rotation and at injected faults: a vetoed frame
// fails alone, and a torn (mangled) frame persists its prefix exactly
// where a crash mid-write would have left it, without advancing
// activeSize, so the next write overwrites it and a reopen truncates it
// as a torn tail.
func (db *DB) writeLocked(batch []*commitReq) (runs uint64) {
	var run []*commitReq
	var buf []byte
	flushRun := func() {
		if len(run) == 0 {
			return
		}
		base := db.activeSize
		var runErr error
		if _, err := db.active.WriteAt(buf, base); err != nil {
			runErr = fmt.Errorf("archivedb: append: %w", err)
		} else if !db.opts.NoSync {
			if err := db.active.Sync(); err != nil {
				runErr = fmt.Errorf("archivedb: append sync: %w", err)
			}
		}
		if runErr != nil {
			// activeSize stays put: the bytes are unacked and the next
			// run overwrites them.
			for _, r := range run {
				r.err = runErr
			}
		} else {
			db.activeSize += int64(len(buf))
			db.segs[db.activeSeg].size = db.activeSize
			off := base
			runs++
			for _, r := range run {
				if r.apply != nil {
					r.apply(db.activeSeg, off)
				}
				off += int64(len(r.frame))
			}
		}
		run = run[:0]
		buf = buf[:0]
	}

	for _, r := range batch {
		fl := int64(len(r.frame))
		// Rotation check at the frame's effective offset; an oversized
		// frame still lands alone in a fresh segment.
		if db.activeSize+int64(len(buf)) > segmentHeaderSize &&
			db.activeSize+int64(len(buf))+fl > db.opts.SegmentSize {
			flushRun()
			if db.activeSize > segmentHeaderSize && db.activeSize+fl > db.opts.SegmentSize {
				if err := db.rotateLocked(); err != nil {
					r.err = err
					continue
				}
			}
		}
		if inj := db.opts.Injector; inj != nil {
			if err := inj.Fail(siteAppend); err != nil {
				r.err = fmt.Errorf("archivedb: append: %w", err)
				continue
			}
			torn, err := inj.Mangle(siteAppend, r.frame)
			if err != nil {
				// Flush what's buffered so the torn prefix lands at the
				// exact offset a crash mid-write would have torn.
				flushRun()
				if len(torn) > 0 {
					db.active.WriteAt(torn, db.activeSize)
				}
				r.err = fmt.Errorf("archivedb: append: %w", err)
				continue
			}
		}
		buf = append(buf, r.frame...)
		run = append(run, r)
	}
	flushRun()
	return runs
}
