package shard

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"
)

// hostileIDs are job IDs POST /jobs accepts that a peer URL built by
// concatenation would mangle: a slash splits the path segment, ? and #
// end the path, % starts an escape, a space is no URL character, and a
// "." or ".." segment is cleaned away by the server's mux.
var hostileIDs = []string{
	"a/b", "a?b", "a%b", "a%2Fb", "a#b", "a b", "é✓ 日本", " ",
	".", "..", "../x", "a/./b", "/lead", "trail/", "+&=;,",
}

// TestPeerRoundTripsHostileIDs: every peer exchange keyed by a job ID —
// replicate, export, the router's read-repair and the anti-entropy
// push and pull — reaches the record of exactly that ID, however the
// ID is spelled, and moves its bytes unchanged.
func TestPeerRoundTripsHostileIDs(t *testing.T) {
	ctx := context.Background()
	payload := func(id string, v int) []byte { return []byte(fmt.Sprintf(`{"id":%q,"v":%d}`, id, v)) }

	t.Run("replicate and export", func(t *testing.T) {
		fs := newFakeShard("s1")
		t.Cleanup(fs.srv.Close)
		n := Node{ID: "s1", URL: fs.srv.URL}
		p := newPeerClient(nil, 5*time.Second)
		for i, id := range hostileIDs {
			want := ReplicaRecord{ID: id, Version: uint64(i + 1), Payload: payload(id, i)}
			if _, err := p.replicate(ctx, n, want); err != nil {
				t.Fatalf("replicate %q: %v", id, err)
			}
			fs.mu.Lock()
			j, ok := fs.jobs[id]
			fs.mu.Unlock()
			if !ok || j.version != want.Version || j.body != string(want.Payload) {
				t.Fatalf("replicate %q: the peer holds %+v (ok=%v)", id, j, ok)
			}
			got, ok := p.export(ctx, n, id)
			if !ok || got.ID != id || got.Version != want.Version || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("export %q = %+v (ok=%v), want %+v", id, got, ok, want)
			}
		}
		fs.mu.Lock()
		held := len(fs.jobs)
		fs.mu.Unlock()
		if held != len(hostileIDs) {
			t.Fatalf("the peer holds %d records, want one per ID (%d)", held, len(hostileIDs))
		}
	})

	t.Run("read-repair", func(t *testing.T) {
		shards, _, rt := newFakeCluster(t, 2, 2, 1, 0)
		a, b := shards[0], shards[1]
		na, nb := Node{ID: a.id, URL: a.srv.URL}, Node{ID: b.id, URL: b.srv.URL}
		for i, id := range hostileIDs {
			a.setJob(id, fakeJob{body: string(payload(id, i)), version: 2})
			b.setJob(id, fakeJob{body: "{}", version: 1})
			rt.repairPair(id, na, nb)
			b.mu.Lock()
			j := b.jobs[id]
			b.mu.Unlock()
			if j.version != 2 || j.body != string(payload(id, i)) {
				t.Fatalf("repair of %q left %+v on the stale replica", id, j)
			}
		}
	})

	t.Run("anti-entropy", func(t *testing.T) {
		peer := newFakeShard("s2")
		t.Cleanup(peer.srv.Close)
		m, err := NewMap(1, []Node{{ID: "s1", URL: "http://127.0.0.1:1"}, {ID: "s2", URL: peer.srv.URL}}, 2, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		store := newMemStore()
		for i, id := range hostileIDs {
			if i%2 == 0 {
				store.ApplyRecord(ReplicaRecord{ID: id, Version: 1, Payload: payload(id, i)})
			} else {
				peer.setJob(id, fakeJob{body: string(payload(id, i)), version: 1})
			}
		}
		ae, err := NewAntiEntropy("s1", m, store, AntiEntropyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pushed, pulled := ae.sweepOnce(ctx)
		if pushed+pulled != len(hostileIDs) {
			t.Fatalf("sweep = (%d pushed, %d pulled), want %d in all", pushed, pulled, len(hostileIDs))
		}
		for i, id := range hostileIDs {
			rec, ok, _ := store.ExportRecord(id)
			peer.mu.Lock()
			j := peer.jobs[id]
			peer.mu.Unlock()
			if !ok || string(rec.Payload) != string(payload(id, i)) || j.body != string(payload(id, i)) {
				t.Fatalf("%q did not converge: local %q (ok=%v), peer %q", id, rec.Payload, ok, j.body)
			}
		}
	})
}
