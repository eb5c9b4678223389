package archivedb

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// copyDir clones a data directory so each torture case starts from the
// same on-disk state.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		out.Close()
	}
	return dst
}

// lastSegment returns the newest segment's number and path.
func lastSegment(t *testing.T, dir string) (uint64, string) {
	t.Helper()
	nums, err := listSegments(dir)
	if err != nil || len(nums) == 0 {
		t.Fatalf("listSegments: %v (%d segments)", err, len(nums))
	}
	n := nums[len(nums)-1]
	return n, segmentPath(dir, n)
}

// buildSmallWAL writes count records into a fresh single-segment WAL
// and returns the directory plus each record's (id, payload, frame end
// offset) in append order.
func buildSmallWAL(t *testing.T, count int) (string, []string, [][]byte, []int64) {
	t.Helper()
	dir := t.TempDir()
	opts := testOptions()
	opts.SegmentSize = 1 << 20 // keep everything in one segment
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, count)
	payloads := make([][]byte, count)
	ends := make([]int64, count)
	for i := 0; i < count; i++ {
		ids[i] = fmt.Sprintf("job-%02d", i)
		payloads[i] = payloadFor(i)
		if err := db.Put(ids[i], payloads[i], metaFor(i)); err != nil {
			t.Fatal(err)
		}
		loc := db.index[ids[i]]
		ends[i] = loc.off + loc.size
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, ids, payloads, ends
}

// TestTortureTruncateEveryOffset simulates a crash mid-write at every
// byte offset of a small WAL: the newest segment is truncated to every
// possible length, the DB is reopened, and every record whose frame was
// fully on disk before the cut must come back byte-identically; records
// at or past the cut must be gone, never corrupt.
func TestTortureTruncateEveryOffset(t *testing.T) {
	const count = 6
	src, ids, payloads, ends := buildSmallWAL(t, count)
	_, segPath := lastSegment(t, src)
	fi, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()

	for cut := int64(0); cut <= size; cut++ {
		dir := copyDir(t, src)
		_, p := lastSegment(t, dir)
		if err := os.Truncate(p, cut); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir, testOptions())
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		for i := 0; i < count; i++ {
			acked := ends[i] <= cut // frame fully on disk before the crash
			got, ok, gerr := db.Get(ids[i])
			if acked {
				if gerr != nil || !ok {
					t.Fatalf("cut=%d: acked record %s lost (ok=%v err=%v)", cut, ids[i], ok, gerr)
				}
				if !bytes.Equal(got, payloads[i]) {
					t.Fatalf("cut=%d: acked record %s corrupted", cut, ids[i])
				}
			} else if ok {
				t.Fatalf("cut=%d: unacked record %s resurrected", cut, ids[i])
			}
		}
		// Recovery must leave the WAL writable: the next append lands
		// where the torn tail was truncated.
		if err := db.Put("after-crash", []byte("alive"), IndexMeta{}); err != nil {
			t.Fatalf("cut=%d: post-recovery Put: %v", cut, err)
		}
		got, ok, gerr := db.Get("after-crash")
		if gerr != nil || !ok || string(got) != "alive" {
			t.Fatalf("cut=%d: post-recovery Get: ok=%v err=%v", cut, ok, gerr)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}
	}
}

// TestTortureCorruptEveryByte flips one byte at every offset of the
// newest segment (past the magic) and reopens with no snapshot, forcing
// a full replay. Recovery must either keep a record intact or drop it
// and everything after it — corrupt bytes must never be served, and
// Open must never fail on a tail-segment corruption.
func TestTortureCorruptEveryByte(t *testing.T) {
	const count = 4
	src, ids, payloads, _ := buildSmallWAL(t, count)
	_, segPath := lastSegment(t, src)
	orig, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	for off := segmentHeaderSize; off < int64(len(orig)); off++ {
		dir := copyDir(t, src)
		if err := os.Remove(filepath.Join(dir, snapshotName)); err != nil {
			t.Fatal(err)
		}
		_, p := lastSegment(t, dir)
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0xFF
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir, testOptions())
		if err != nil {
			t.Fatalf("off=%d: Open: %v", off, err)
		}
		dropped := false
		for i := 0; i < count; i++ {
			got, ok, gerr := db.Get(ids[i])
			if gerr != nil {
				t.Fatalf("off=%d: Get %s errored post-recovery: %v", off, ids[i], gerr)
			}
			if !ok {
				dropped = true // this and all later records were cut
				continue
			}
			if dropped {
				t.Fatalf("off=%d: record %s survived after an earlier record was dropped", off, ids[i])
			}
			if !bytes.Equal(got, payloads[i]) {
				t.Fatalf("off=%d: record %s served corrupt bytes", off, ids[i])
			}
		}
		db.Close()
	}
}

// TestBitRotDetectedAtRead covers the snapshot-present case: when the
// index is restored from a valid snapshot, a record whose WAL bytes
// rotted afterwards is detected by the per-read checksum and surfaces
// as an error — an acked record must never be served corrupt, and must
// not silently vanish either.
func TestBitRotDetectedAtRead(t *testing.T) {
	const count = 4
	src, ids, _, _ := buildSmallWAL(t, count)
	dir := copyDir(t, src)
	_, p := lastSegment(t, dir)
	buf, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the middle of the first record's payload without
	// changing the file size, so the snapshot still validates.
	buf[segmentHeaderSize+frameHeaderSize+4] ^= 0xFF
	if err := os.WriteFile(p, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, _, err := db.Get(ids[0]); err == nil {
		t.Fatal("bit-rotted record served without a checksum error")
	}
}

// TestCorruptionInSealedSegmentIsAnError verifies the flip side of
// torn-tail tolerance: damage in the middle of the log (not the newest
// segment) is data loss and must be reported, not silently truncated.
func TestCorruptionInSealedSegmentIsAnError(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.SegmentSize = 256 // force several segments
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.Put(fmt.Sprintf("job-%02d", i), payloadFor(i), IndexMeta{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatal(err)
	}
	nums, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(nums) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(nums))
	}
	first := segmentPath(dir, nums[0])
	buf, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xFF
	if err := os.WriteFile(first, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOptions()); err == nil {
		t.Fatal("Open succeeded over mid-log corruption with no snapshot")
	}
}

// TestSnapshotAheadOfTornTail covers the nasty interleaving where a
// snapshot was written (referencing WAL bytes) and then the crash tore
// those very bytes away: the stale snapshot must be discarded and
// recovery must fall back to a full replay of what survived.
func TestSnapshotAheadOfTornTail(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.SegmentSize = 1 << 20
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := db.Put(fmt.Sprintf("job-%d", i), payloadFor(i), IndexMeta{}); err != nil {
			t.Fatal(err)
		}
	}
	var cut int64
	for i := 0; i < 5; i++ {
		loc := db.index[fmt.Sprintf("job-%d", i)]
		if end := loc.off + loc.size; end > cut {
			cut = end
		}
	}
	if err := db.Close(); err != nil { // writes a snapshot referencing all 8
		t.Fatal(err)
	}
	_, segPath := lastSegment(t, dir)
	if err := os.Truncate(segPath, cut); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	st := db2.Stats()
	if !st.SnapshotDiscarded {
		t.Fatal("stale snapshot pointing past the torn tail was trusted")
	}
	if len(db2.IDs()) != 5 {
		t.Fatalf("Len = %d, want the 5 surviving records", len(db2.IDs()))
	}
	for i := 0; i < 5; i++ {
		got, ok, err := db2.Get(fmt.Sprintf("job-%d", i))
		if err != nil || !ok || !bytes.Equal(got, payloadFor(i)) {
			t.Fatalf("surviving record job-%d: ok=%v err=%v", i, ok, err)
		}
	}
}
