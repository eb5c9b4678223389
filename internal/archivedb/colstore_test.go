package archivedb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestSegmentPutGetDelete(t *testing.T) {
	db, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	blob := []byte("columnar-bytes-0123456789")
	if err := db.PutSegment("job/α 1", blob); err != nil {
		t.Fatal(err)
	}
	got, ok, err := db.GetSegment("job/α 1")
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("segment bytes mismatch: %q", got)
	}
	// Replace.
	blob2 := []byte("v2")
	if err := db.PutSegment("job/α 1", blob2); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := db.GetSegment("job/α 1"); !bytes.Equal(got, blob2) {
		t.Fatalf("segment not replaced: %q", got)
	}
	// Unknown id.
	if _, ok, err := db.GetSegment("nope"); ok || err != nil {
		t.Fatalf("missing segment: ok=%v err=%v", ok, err)
	}
	// Delete is idempotent.
	if err := db.deleteSegment("job/α 1"); err != nil {
		t.Fatal(err)
	}
	if err := db.deleteSegment("job/α 1"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.GetSegment("job/α 1"); ok {
		t.Fatal("segment survived delete")
	}

	st := db.Stats()
	if st.ColSegWrites != 2 || st.ColSegDeletes != 1 || st.ColSegFullReads != 2 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestSegmentTailRead(t *testing.T) {
	db, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	blob := make([]byte, 1000)
	for i := range blob {
		blob[i] = byte(i)
	}
	if err := db.PutSegment("j", blob); err != nil {
		t.Fatal(err)
	}
	tail, size, ok, err := db.GetSegmentTail("j", 100)
	if err != nil || !ok {
		t.Fatalf("tail: ok=%v err=%v", ok, err)
	}
	if size != 1000 || !bytes.Equal(tail, blob[900:]) {
		t.Fatalf("tail read wrong window: size=%d len=%d", size, len(tail))
	}
	// Window larger than the file returns the whole file.
	tail, size, ok, err = db.GetSegmentTail("j", 4096)
	if err != nil || !ok || size != 1000 || !bytes.Equal(tail, blob) {
		t.Fatalf("oversized window: ok=%v err=%v size=%d", ok, err, size)
	}
	if _, _, ok, err := db.GetSegmentTail("nope", 100); ok || err != nil {
		t.Fatalf("missing tail: ok=%v err=%v", ok, err)
	}
	st := db.Stats()
	if st.ColSegTailReads != 2 || st.ColSegFullReads != 0 {
		t.Fatalf("tail reads must not count as full reads: %+v", st)
	}
}

// TestDeleteDropsSegment pins the bugfix contract at the storage
// layer: deleting a record removes its columnar segment file, so no
// later scan can resurrect the job from the sidecar.
func TestDeleteDropsSegment(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := db.Put("job-1", payloadFor(1), metaFor(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.PutSegment("job-1", []byte("cols")); err != nil {
		t.Fatal(err)
	}
	path := db.colSegPath("job-1")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("segment file missing before delete: %v", err)
	}
	if err := db.Delete("job-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("segment file survived Delete: %v", err)
	}
	if _, ok, _ := db.GetSegment("job-1"); ok {
		t.Fatal("GetSegment found a deleted job's segment")
	}
}

// TestCompactSweepsOrphanSegments: segments whose record is gone (and
// abandoned temp files) are garbage-collected by compaction.
func TestCompactSweepsOrphanSegments(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("job-%d", i)
		if err := db.Put(id, payloadFor(i), metaFor(i)); err != nil {
			t.Fatal(err)
		}
		if err := db.PutSegment(id, []byte("cols")); err != nil {
			t.Fatal(err)
		}
	}
	// Orphans: a segment with no record, and a crashed writer's temp.
	if err := db.PutSegment("ghost", []byte("stale")); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(db.colsDir(), "deadbeef.gcol.tmp")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := db.compact(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.GetSegment("ghost"); ok {
		t.Fatal("orphan segment survived compaction sweep")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("abandoned temp file survived compaction sweep")
	}
	for i := 0; i < 4; i++ {
		if _, ok, _ := db.GetSegment(fmt.Sprintf("job-%d", i)); !ok {
			t.Fatalf("live segment job-%d swept", i)
		}
	}
	if st := db.Stats(); st.ColSegSweeps == 0 {
		t.Fatalf("sweep not counted: %+v", st)
	}
}

func TestSegmentNameRoundtrip(t *testing.T) {
	for _, id := range []string{"a", "job-1", "job/α 1", "..", "", "x\x00y"} {
		got, ok := parseColSegName(colSegName(id))
		if !ok || got != id {
			t.Fatalf("name roundtrip %q -> %q ok=%v", id, got, ok)
		}
	}
	if _, ok := parseColSegName("nothex.gcol"); ok {
		t.Fatal("parsed a non-hex name")
	}
	if _, ok := parseColSegName("6a.tmp"); ok {
		t.Fatal("parsed a non-gcol name")
	}
}

func TestSegmentOpsOnClosedDB(t *testing.T) {
	db, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := db.PutSegment("x", []byte("y")); err != errClosed {
		t.Fatalf("PutSegment on closed db: %v", err)
	}
	if _, _, err := db.GetSegment("x"); err != errClosed {
		t.Fatalf("GetSegment on closed db: %v", err)
	}
	if _, _, _, err := db.GetSegmentTail("x", 10); err != errClosed {
		t.Fatalf("GetSegmentTail on closed db: %v", err)
	}
	if err := db.deleteSegment("x"); err != errClosed {
		t.Fatalf("DeleteSegment on closed db: %v", err)
	}
}
