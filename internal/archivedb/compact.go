package archivedb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
)

// compactLoop is the background compactor: it waits for the trigger
// afterAppendLocked raises when the dead-byte ratio crosses the
// threshold, and runs one compaction per kick.
func (db *DB) compactLoop() {
	defer db.wg.Done()
	for {
		select {
		case <-db.stopCh:
			return
		case <-db.compactKick:
			// A failure here leaves the WAL intact (compaction only
			// removes segments after a successful snapshot), so the
			// next kick simply retries.
			db.compact()
		}
	}
}

// compact rewrites every live record from sealed segments into the
// active segment, snapshots the index, and deletes the sealed
// segments. Crash safety comes from ordering alone: copies are ordinary
// appends (old and new versions coexist, replay keeps the newer), and
// victims are removed only after the copies and the snapshot are on
// disk. A crash at any point leaves a WAL that replays to the same
// live set.
func (db *DB) compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.compactLocked()
}

func (db *DB) compactLocked() error {
	if db.closed {
		return errClosed
	}
	if db.activeSize > segmentHeaderSize {
		if err := db.rotateLocked(); err != nil {
			return err
		}
	}
	victims := make([]uint64, 0, len(db.segs))
	for n := range db.segs {
		if n != db.activeSeg {
			victims = append(victims, n)
		}
	}
	if len(victims) == 0 {
		return nil
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })

	var victimBytes, moved int64
	for _, v := range victims {
		victimBytes += db.segs[v].size
	}

	// Live records per victim, in write order, so the copied log stays
	// deterministic for a given state.
	for _, v := range victims {
		var ids []string
		for id, loc := range db.index {
			if loc.seg == v {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return db.index[ids[i]].off < db.index[ids[j]].off })
		f, err := db.readFileLocked(v)
		if err != nil {
			return err
		}
		for _, id := range ids {
			loc := db.index[id]
			payload, _, err := readFrame(f, loc.off, loc.off+loc.size, db.opts.MaxRecordBytes)
			if err != nil {
				return fmt.Errorf("archivedb: compact: record %q unreadable: %w", id, err)
			}
			frame := make([]byte, frameHeaderSize+len(payload))
			binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
			copy(frame[frameHeaderSize:], payload)
			off, err := db.appendLocked(frame)
			if err != nil {
				return err
			}
			meta := loc.meta
			db.dropLocked(id)
			db.setLocked(id, recordLoc{seg: db.activeSeg, off: off, size: int64(len(frame)), meta: meta})
			moved += int64(len(frame))
		}
	}

	// The snapshot is the commit point: after it, no live record
	// references a victim, so the victims can go.
	if err := db.writeSnapshotLocked(); err != nil {
		return err
	}
	db.readMu.Lock()
	for _, v := range victims {
		if f, ok := db.readFiles[v]; ok {
			f.Close()
			delete(db.readFiles, v)
		}
	}
	db.readMu.Unlock()
	for _, v := range victims {
		if err := os.Remove(segmentPath(db.dir, v)); err != nil {
			return fmt.Errorf("archivedb: compact: %w", err)
		}
		delete(db.segs, v)
	}
	syncDir(db.dir)
	db.sweepSegmentsLocked()
	db.stats.Compactions++
	db.stats.ReclaimedBytes += victimBytes - moved
	return nil
}
