package archivedb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// parentAppendLocked is the second WAL writer compaction used before it
// appended through writeLocked, kept verbatim as the differential's
// oracle: one frame, one WriteAt, one fsync.
func (db *DB) parentAppendLocked(frame []byte) (int64, error) {
	if db.activeSize > segmentHeaderSize &&
		db.activeSize+int64(len(frame)) > db.opts.SegmentSize {
		if err := db.rotateLocked(); err != nil {
			return 0, err
		}
	}
	off := db.activeSize
	if inj := db.opts.Injector; inj != nil {
		if err := inj.Fail(siteAppend); err != nil {
			return 0, fmt.Errorf("archivedb: append: %w", err)
		}
		torn, err := inj.Mangle(siteAppend, frame)
		if err != nil {
			if len(torn) > 0 {
				db.active.WriteAt(torn, off)
			}
			return 0, fmt.Errorf("archivedb: append: %w", err)
		}
	}
	if _, err := db.active.WriteAt(frame, off); err != nil {
		return 0, fmt.Errorf("archivedb: append: %w", err)
	}
	if !db.opts.NoSync {
		if err := db.active.Sync(); err != nil {
			return 0, fmt.Errorf("archivedb: append sync: %w", err)
		}
	}
	db.activeSize += int64(len(frame))
	db.segs[db.activeSeg].size = db.activeSize
	return off, nil
}

// parentCompactLocked is the compaction that re-encoded each frame's
// header and appended it through parentAppendLocked, kept as the
// differential's oracle.
func (db *DB) parentCompactLocked() error {
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
			onDisk, err := readFrame(f, loc.off, loc.off+loc.size, db.opts.MaxRecordBytes)
			if err != nil {
				return fmt.Errorf("archivedb: compact: record %q unreadable: %w", id, err)
			}
			payload := onDisk[frameHeaderSize:]
			frame := make([]byte, frameHeaderSize+len(payload))
			binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
			copy(frame[frameHeaderSize:], payload)
			off, err := db.parentAppendLocked(frame)
			if err != nil {
				return err
			}
			meta := loc.meta
			db.dropLocked(id)
			db.setLocked(id, recordLoc{seg: db.activeSeg, off: off, size: int64(len(frame)), meta: meta})
			moved += int64(len(frame))
		}
	}
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

// dirFiles reads every regular file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// sameDirs fails unless dirs a and b hold the same files with the same
// bytes.
func sameDirs(t *testing.T, stage, a, b string) {
	t.Helper()
	fa, fb := dirFiles(t, a), dirFiles(t, b)
	for name, ba := range fa {
		if bb, ok := fb[name]; !ok {
			t.Fatalf("%s: %s only under the parent's compaction", stage, name)
		} else if !bytes.Equal(ba, bb) {
			t.Fatalf("%s: %s differs (%d vs %d bytes)", stage, name, len(ba), len(bb))
		}
	}
	for name := range fb {
		if _, ok := fa[name]; !ok {
			t.Fatalf("%s: %s only under the one-writer compaction", stage, name)
		}
	}
}

// TestCompactionMatchesParent is the differential for compaction's move
// onto the one WAL writer: random Put/Delete/compact histories, with
// frames from a few bytes to larger than a segment so copies rotate,
// leave the data directory byte-identical to the parent's compaction
// after every compaction and after Close, with equal stats after every
// step, — without periodic snapshots and
// with them. Compaction counts toward neither group commit nor the
// snapshot cadence, exactly as before.
func TestCompactionMatchesParent(t *testing.T) {
	for _, snapEvery := range []int{-1, 3} {
		for seed := int64(1); seed <= 10; seed++ {
			opts := testOptions()
			opts.SnapshotEvery = snapEvery
			oldDir, newDir := t.TempDir(), t.TempDir()
			oldDB, err := Open(oldDir, opts)
			if err != nil {
				t.Fatal(err)
			}
			newDB, err := Open(newDir, opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			stage := func(step int) string { return fmt.Sprintf("snapshotEvery=%d seed=%d step=%d", snapEvery, seed, step) }
			compactions := 0
			for step := 0; step < 150; step++ {
				id := fmt.Sprintf("job-%02d", rng.Intn(16))
				switch k := rng.Intn(20); {
				case k < 13:
					n := 1 + rng.Intn(200)
					if rng.Intn(20) == 0 {
						n = 600 // larger than a segment: lands alone
					}
					payload := make([]byte, n)
					rng.Read(payload)
					meta := metaFor(rng.Intn(5))
					if err := oldDB.Put(id, payload, meta); err != nil {
						t.Fatal(err)
					}
					if err := newDB.Put(id, payload, meta); err != nil {
						t.Fatal(err)
					}
				case k < 18:
					if err := oldDB.Delete(id); err != nil {
						t.Fatal(err)
					}
					if err := newDB.Delete(id); err != nil {
						t.Fatal(err)
					}
				default:
					oldDB.mu.Lock()
					oldErr := oldDB.parentCompactLocked()
					oldDB.mu.Unlock()
					before := newDB.Stats()
					newErr := newDB.compact()
					if oldErr != nil || newErr != nil {
						t.Fatalf("%s: compact: parent %v, change %v", stage(step), oldErr, newErr)
					}
					after := newDB.Stats()
					if after.GroupCommits != before.GroupCommits || after.GroupCommitRecords != before.GroupCommitRecords ||
						after.GroupCommitFsyncs != before.GroupCommitFsyncs {
						t.Fatalf("%s: compaction counted as group commit: %+v -> %+v", stage(step), before, after)
					}
					compactions++
					sameDirs(t, stage(step), oldDir, newDir)
				}
				if o, n := oldDB.Stats(), newDB.Stats(); o != n {
					t.Fatalf("%s: stats differ:\nparent %+v\nchange %+v", stage(step), o, n)
				}
				if o, n := oldDB.appendsSinceSnapshot, newDB.appendsSinceSnapshot; o != n {
					t.Fatalf("%s: snapshot cadence %d vs %d", stage(step), o, n)
				}
			}
			if compactions == 0 || newDB.Stats().Segments < 2 {
				t.Fatalf("seed %d: %d compactions, %d segments: the history never rotated and compacted",
					seed, compactions, newDB.Stats().Segments)
			}
			if err := oldDB.Close(); err != nil {
				t.Fatal(err)
			}
			if err := newDB.Close(); err != nil {
				t.Fatal(err)
			}
			sameDirs(t, stage(150)+" closed", oldDir, newDir)
		}
	}
}

// nthAppendInjector fails the nth WAL append it sees once armed, with
// an error or, when torn, a half-frame prefix.
type nthAppendInjector struct {
	mu   sync.Mutex
	n    int
	torn bool
	seen int
}

func (inj *nthAppendInjector) arm(n int, torn bool) {
	inj.mu.Lock()
	inj.n, inj.torn, inj.seen = n, torn, 0
	inj.mu.Unlock()
}

func (inj *nthAppendInjector) Fail(site string) error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if site != siteAppend || inj.n == 0 {
		return nil
	}
	inj.seen++
	if inj.seen == inj.n && !inj.torn {
		return errors.New("injected append error")
	}
	return nil
}

func (inj *nthAppendInjector) Mangle(site string, frame []byte) ([]byte, error) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if site == siteAppend && inj.n != 0 && inj.seen == inj.n && inj.torn {
		return frame[:len(frame)/2], errors.New("injected torn append")
	}
	return frame, nil
}

// TestCompactionUnderInjectedFaults runs compaction with an append
// fault landing mid-batch, first an error and then a torn write: the
// compaction returns the error, every live record reads back with its
// bytes, a crash-reopen of that state sees the same live set, and once
// the injector is disarmed compaction succeeds and reclaims.
func TestCompactionUnderInjectedFaults(t *testing.T) {
	for _, torn := range []bool{false, true} {
		t.Run(fmt.Sprintf("torn=%v", torn), func(t *testing.T) {
			inj := &nthAppendInjector{}
			opts := testOptions()
			opts.Injector = inj
			dir := t.TempDir()
			db, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			live := map[string][]byte{}
			for round := 0; round < 4; round++ {
				for i := 0; i < 12; i++ {
					id := fmt.Sprintf("job-%02d", i)
					if round == 3 && i%4 == 0 {
						if err := db.Delete(id); err != nil {
							t.Fatal(err)
						}
						delete(live, id)
						continue
					}
					live[id] = payloadFor(100*round + i)
					if err := db.Put(id, live[id], metaFor(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			check := func(d *DB, stage string) {
				t.Helper()
				ids := d.IDs()
				if len(ids) != len(live) {
					t.Fatalf("%s: %d live records, want %d: %q", stage, len(ids), len(live), ids)
				}
				for id, want := range live {
					got, ok, err := d.Get(id)
					if err != nil || !ok || !bytes.Equal(got, want) {
						t.Fatalf("%s: %s: ok=%v err=%v bytes equal=%v", stage, id, ok, err, bytes.Equal(got, want))
					}
				}
			}
			if db.Stats().Segments < 3 {
				t.Fatalf("%d segments: too few for a multi-victim compaction", db.Stats().Segments)
			}

			inj.arm(2, torn)
			if err := db.compact(); err == nil {
				t.Fatal("compaction under an injected append fault returned nil")
			}
			inj.arm(0, false)
			if st := db.Stats(); st.Compactions != 0 {
				t.Fatalf("a failed compaction counted: %+v", st)
			}
			check(db, "after failed compaction")

			crashed, err := Open(copyDir(t, dir), testOptions())
			if err != nil {
				t.Fatal(err)
			}
			check(crashed, "crash-reopen after failed compaction")
			crashed.Close()

			before := db.Stats()
			if err := db.compact(); err != nil {
				t.Fatalf("compaction with the injector disarmed: %v", err)
			}
			if st := db.Stats(); st.Compactions != 1 || st.WALBytes >= before.WALBytes {
				t.Fatalf("disarmed compaction: %+v (WAL was %d bytes)", st, before.WALBytes)
			}
			check(db, "after compaction")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := Open(dir, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			check(reopened, "reopen after compaction")
		})
	}
}
