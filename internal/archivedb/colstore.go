package archivedb

// Columnar segment sidecar: per-job analytical segments stored next to
// the WAL under <dir>/cols/, one file per job named by the hex of the
// job ID (invertible, collision-free, filesystem-safe). The serving
// store neither writes nor reads them — /query2 scans the frames it
// holds in memory — so the callers are the benchmark's layer replay
// and this package's tests. The DB treats segment blobs as opaque —
// encoding, checksums, and zone-map stats belong to the query layer —
// and stores them as derived data:
//
//   - Writes are atomic (temp file + rename) but NOT fsynced: a
//     segment can always be re-encoded from the durable archive
//     record, so segments need none of the WAL's durability machinery.
//   - Delete drops the segment with the record, and compaction sweeps
//     orphans (segments whose job is no longer live, plus abandoned
//     temp files), including those an older serving store left behind.
//   - GetSegmentTail reads only the file's tail — enough for a
//     zone-map stats footer — without touching the body; the full/tail
//     read counters in Stats count what a caller read.

import (
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

const colsDirName = "cols"

func (db *DB) colsDir() string { return filepath.Join(db.dir, colsDirName) }

func colSegName(id string) string { return hex.EncodeToString([]byte(id)) + ".gcol" }

func parseColSegName(name string) (string, bool) {
	hexID, ok := strings.CutSuffix(name, ".gcol")
	if !ok {
		return "", false
	}
	raw, err := hex.DecodeString(hexID)
	if err != nil {
		return "", false
	}
	return string(raw), true
}

func (db *DB) colSegPath(id string) string {
	return filepath.Join(db.colsDir(), colSegName(id))
}

func (db *DB) checkOpen() error {
	db.mu.RLock()
	closed := db.closed
	db.mu.RUnlock()
	if closed {
		return errClosed
	}
	return nil
}

// PutSegment stores (or replaces) the columnar segment for id.
func (db *DB) PutSegment(id string, blob []byte) error {
	if err := db.checkOpen(); err != nil {
		return err
	}
	db.colMu.Lock()
	defer db.colMu.Unlock()
	if err := os.MkdirAll(db.colsDir(), 0o755); err != nil {
		return fmt.Errorf("archivedb: segment dir: %w", err)
	}
	path := db.colSegPath(id)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return fmt.Errorf("archivedb: segment write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("archivedb: segment rename: %w", err)
	}
	db.colWrites.Add(1)
	return nil
}

// GetSegment returns the full segment blob for id; ok is false when no
// segment exists (never written, or swept).
func (db *DB) GetSegment(id string) ([]byte, bool, error) {
	if err := db.checkOpen(); err != nil {
		return nil, false, err
	}
	blob, err := os.ReadFile(db.colSegPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("archivedb: segment read: %w", err)
	}
	db.colFullReads.Add(1)
	return blob, true, nil
}

// GetSegmentTail returns up to maxBytes from the end of id's segment
// file plus the file's total size — enough to decode a stats footer
// without reading the column blocks.
func (db *DB) GetSegmentTail(id string, maxBytes int) ([]byte, int64, bool, error) {
	if err := db.checkOpen(); err != nil {
		return nil, 0, false, err
	}
	f, err := os.Open(db.colSegPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, false, nil
		}
		return nil, 0, false, fmt.Errorf("archivedb: segment open: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, false, fmt.Errorf("archivedb: segment stat: %w", err)
	}
	size := st.Size()
	n := int64(maxBytes)
	if n > size {
		n = size
	}
	tail := make([]byte, n)
	if _, err := f.ReadAt(tail, size-n); err != nil && err != io.EOF {
		return nil, 0, false, fmt.Errorf("archivedb: segment tail: %w", err)
	}
	db.colTailReads.Add(1)
	return tail, size, true, nil
}

// deleteSegment removes id's segment if present.
func (db *DB) deleteSegment(id string) error {
	if err := db.checkOpen(); err != nil {
		return err
	}
	db.colMu.Lock()
	defer db.colMu.Unlock()
	err := os.Remove(db.colSegPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("archivedb: segment delete: %w", err)
	}
	db.colDeletes.Add(1)
	return nil
}

// sweepSegmentsLocked removes segments whose job is no longer in the
// index and temp files abandoned by a crashed writer. Called under
// db.mu from compaction, which is the natural "garbage is being
// collected" moment.
func (db *DB) sweepSegmentsLocked() {
	entries, err := os.ReadDir(db.colsDir())
	if err != nil {
		return // no cols dir yet — nothing to sweep
	}
	db.colMu.Lock()
	defer db.colMu.Unlock()
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(db.colsDir(), name))
			continue
		}
		id, ok := parseColSegName(name)
		if !ok {
			continue
		}
		if _, live := db.index[id]; live {
			continue
		}
		if os.Remove(filepath.Join(db.colsDir(), name)) == nil {
			db.colSweeps.Add(1)
		}
	}
}
