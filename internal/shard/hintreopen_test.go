package shard_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/archivedb"
	"repro/internal/service"
	"repro/internal/shard"
)

// FuzzHintReopen writes one arbitrary key under the hint namespace,
// with an arbitrary value, raw into a database, then opens a store over
// it. Reopening never fails. The hint is restored exactly when its key
// parses as ~hint/<target>/<job ID> (a non-empty target without '/',
// a non-empty job ID), at the version its value spells in decimal or
// else 0. The store holds no job, so draining the hint pushes nothing
// and deletes it.
func FuzzHintReopen(f *testing.F) {
	for _, seed := range []struct{ suffix, value string }{
		{"s2/job-1", "3"},
		{"s2/a/b", "18446744073709551615"},
		{"f/fx", `{"target":"f","id":"fx","version":1,"payload":{}}`},
		{"s2/j", "18446744073709551616"},
		{"s2/j", ""},
		{"/j", "1"},
		{"s2/", "1"},
		{"s2", "1"},
		{"", "1"},
		{"\xff/\x00", "-1"},
	} {
		f.Add(seed.suffix, []byte(seed.value))
	}
	var pushes atomic.Int64
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pushes.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	f.Cleanup(target.Close)

	f.Fuzz(func(t *testing.T, suffix string, value []byte) {
		dir := t.TempDir()
		db, err := archivedb.Open(dir, archivedb.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Put("~hint/"+suffix, value, archivedb.IndexMeta{}); err != nil {
			db.Close()
			return // the database refuses the record; nothing was written
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db, err = archivedb.Open(dir, archivedb.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		store, err := service.NewStoreWithOptions(db, service.StoreOptions{})
		if err != nil {
			t.Fatalf("reopen over a hint key %q: %v", suffix, err)
		}
		defer store.Close()

		// The key as the database holds it (it stores IDs as JSON
		// strings, so invalid UTF-8 comes back replaced).
		ids := db.IDs()
		if len(ids) != 1 {
			t.Fatalf("the database holds %q, want one key", ids)
		}
		hintTarget, jobID, parses := strings.Cut(strings.TrimPrefix(ids[0], "~hint/"), "/")
		parses = parses && hintTarget != "" && jobID != ""
		want := 0
		if parses {
			want = 1
		}
		if n := store.HintCount(); n != want {
			t.Fatalf("key %q: %d hints restored, want %d", ids[0], n, want)
		}
		if !parses {
			return
		}
		version, err := strconv.ParseUint(string(value), 10, 64)
		if err != nil {
			version = 0
		}
		pend, err := store.PendingHints(hintTarget)
		if err != nil || len(pend) != 1 || pend[0] != (shard.HintRecord{Target: hintTarget, ID: jobID, Version: version}) {
			t.Fatalf("key %q value %q: restored %+v (%v), want (%q, %q, %d)", ids[0], value, pend, err, hintTarget, jobID, version)
		}

		m, err := shard.NewMap(1, []shard.Node{{ID: hintTarget, URL: target.URL}}, 1, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		pushes.Store(0)
		if n := shard.NewDrainer(m, store, shard.DrainerOptions{}).DrainOnce(context.Background()); n != 0 || pushes.Load() != 0 {
			t.Fatalf("a hint for a job the node does not hold drained %d records in %d pushes, want none", n, pushes.Load())
		}
		if n := store.HintCount(); n != 0 {
			t.Fatalf("%d hints left after the drain, want 0", n)
		}
	})
}
