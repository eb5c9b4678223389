package archivedb

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestGroupCommitConcurrentPuts drives many writers through the shared
// commit path and checks every acked record is readable and the stats
// account for every one of them.
func TestGroupCommitConcurrentPuts(t *testing.T) {
	opts := testOptions()
	opts.SegmentSize = 4096
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const writers, perWriter = 16, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%02d-%02d", w, i)
				if err := db.Put(id, payloadFor(w*perWriter+i), metaFor(i)); err != nil {
					t.Errorf("put %s: %v", id, err)
				}
			}
		}(w)
	}
	wg.Wait()

	if len(db.IDs()) != writers*perWriter {
		t.Fatalf("Len = %d, want %d", len(db.IDs()), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			id := fmt.Sprintf("w%02d-%02d", w, i)
			got, ok, err := db.Get(id)
			if err != nil || !ok {
				t.Fatalf("get %s: ok=%v err=%v", id, ok, err)
			}
			if !bytes.Equal(got, payloadFor(w*perWriter+i)) {
				t.Fatalf("get %s: payload mismatch", id)
			}
		}
	}
	st := db.Stats()
	if st.GroupCommitRecords != writers*perWriter {
		t.Fatalf("GroupCommitRecords = %d, want %d", st.GroupCommitRecords, writers*perWriter)
	}
	if st.GroupCommits == 0 || st.GroupCommitFsyncs == 0 {
		t.Fatalf("no group commits recorded: %+v", st)
	}
}

// TestGroupCommitWindowBatches checks that a nonzero commit window
// actually coalesces concurrent writers: with 32 writers inside a 5ms
// window, at least one batch must hold more than one record, and the
// number of shared fsyncs must be well below one per record.
func TestGroupCommitWindowBatches(t *testing.T) {
	opts := testOptions()
	opts.SegmentSize = 1 << 20
	opts.GroupCommitWindow = 5 * time.Millisecond
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const writers = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			id := fmt.Sprintf("w%02d", w)
			if err := db.Put(id, payloadFor(w), metaFor(w)); err != nil {
				t.Errorf("put %s: %v", id, err)
			}
		}(w)
	}
	close(start)
	wg.Wait()

	st := db.Stats()
	if st.GroupCommitMaxBatch < 2 {
		t.Fatalf("GroupCommitMaxBatch = %d, want >= 2 (window did not coalesce)", st.GroupCommitMaxBatch)
	}
	if st.GroupCommitFsyncs >= writers {
		t.Fatalf("GroupCommitFsyncs = %d for %d records: no sharing", st.GroupCommitFsyncs, writers)
	}
}

// TestGroupCommitBatchSpansRotation forces a batch to cross a segment
// boundary and checks every record still lands and survives reopen —
// the batch must split into runs around the rotation.
func TestGroupCommitBatchSpansRotation(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.SegmentSize = 512
	opts.GroupCommitWindow = 5 * time.Millisecond
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 24 // ~90 bytes a frame: several rotations per batch
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			if err := db.Put(fmt.Sprintf("w%02d", w), payloadFor(w), metaFor(w)); err != nil {
				t.Errorf("put w%02d: %v", w, err)
			}
		}(w)
	}
	close(start)
	wg.Wait()

	if st := db.Stats(); st.Segments < 2 {
		t.Fatalf("expected rotation inside the batch, got %d segment(s)", st.Segments)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if len(db2.IDs()) != writers {
		t.Fatalf("after reopen Len = %d, want %d", len(db2.IDs()), writers)
	}
	for w := 0; w < writers; w++ {
		got, ok, err := db2.Get(fmt.Sprintf("w%02d", w))
		if err != nil || !ok || !bytes.Equal(got, payloadFor(w)) {
			t.Fatalf("reopen get w%02d: ok=%v err=%v", w, ok, err)
		}
	}
}

// TestGroupCommitFaultIsolation injects append faults under concurrent
// writers: a vetoed or torn frame must fail only its own writer, every
// acked record must be readable now and after a reopen, and no failed
// record may resurface.
func TestGroupCommitFaultIsolation(t *testing.T) {
	dir := t.TempDir()
	inj, err := faults.Parse("rate=0,seed=7,kinds=error+torn,sites=" + siteAppend + ":0.4")
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.SegmentSize = 2048
	opts.GroupCommitWindow = time.Millisecond
	opts.Injector = inj
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 8, 30
	acked := make([]map[string]bool, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		acked[w] = map[string]bool{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%02d", w, i)
				if err := db.Put(id, payloadFor(i), metaFor(i)); err == nil {
					acked[w][id] = true
				}
			}
		}(w)
	}
	wg.Wait()
	inj.Disarm()

	check := func(d *DB, stage string) {
		t.Helper()
		n := 0
		for w := 0; w < writers; w++ {
			for id := range acked[w] {
				n++
				if _, ok, err := d.Get(id); err != nil || !ok {
					t.Fatalf("%s: acked %s lost: ok=%v err=%v", stage, id, ok, err)
				}
			}
		}
		if len(d.IDs()) > writers*perWriter {
			t.Fatalf("%s: Len = %d beyond %d attempts", stage, len(d.IDs()), writers*perWriter)
		}
		if n == 0 {
			t.Fatalf("%s: every Put failed; fault rate too high for the test to mean anything", stage)
		}
	}
	check(db, "live")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	opts.Injector = nil
	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2, "reopen")
}

// TestGroupCommitCloseUnblocksWriters closes the database while writers
// are in flight; each Put must return promptly with either nil or
// ErrClosed, never hang, and every nil-acked record must be on disk.
func TestGroupCommitCloseUnblocksWriters(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.GroupCommitWindow = 2 * time.Millisecond
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 32
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = db.Put(fmt.Sprintf("w%02d", w), payloadFor(w), metaFor(w))
		}(w)
	}
	time.Sleep(time.Millisecond)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writers still blocked after Close")
	}

	db2, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for w := 0; w < writers; w++ {
		id := fmt.Sprintf("w%02d", w)
		switch errs[w] {
		case nil:
			if _, ok, err := db2.Get(id); err != nil || !ok {
				t.Fatalf("acked %s lost across Close/reopen: ok=%v err=%v", id, ok, err)
			}
		default:
			if errs[w] != errClosed {
				t.Fatalf("put %s: unexpected error %v", id, errs[w])
			}
		}
	}
}

// TestGroupCommitDeleteVisibility interleaves Puts and Deletes through
// the shared path and checks the final index matches the last acked
// operation per key.
func TestGroupCommitDeleteVisibility(t *testing.T) {
	opts := testOptions()
	opts.GroupCommitWindow = time.Millisecond
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 10; i++ {
		if err := db.Put(fmt.Sprintf("k%d", i), payloadFor(i), metaFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 10; i += 2 {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := db.Delete(fmt.Sprintf("k%d", i)); err != nil {
				t.Errorf("delete k%d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if len(db.IDs()) != 5 {
		t.Fatalf("Len = %d, want 5", len(db.IDs()))
	}
	for i := 0; i < 10; i++ {
		_, ok, err := db.Get(fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if want := i%2 == 1; ok != want {
			t.Fatalf("k%d present=%v, want %v", i, ok, want)
		}
	}
}
