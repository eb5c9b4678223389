package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// ---------------------------------------------------------------------
// In-memory test doubles for the durable interfaces.

// memJournal is an in-memory HintJournal with the same supersede
// semantics the service-layer journal implements. Its memStore holds
// the node's own records, which drains export and push.
type memJournal struct {
	*memStore
	mu    sync.Mutex
	hints map[string]map[string]HintRecord // target -> job ID -> newest hint
}

func newMemJournal() *memJournal {
	return &memJournal{memStore: newMemStore(), hints: map[string]map[string]HintRecord{}}
}

// hold stores a record on the node and journals a hint naming it for
// target, as a replica write that missed target leaves them.
func (j *memJournal) hold(target, id string, version uint64, payload string) error {
	j.ApplyRecord(ReplicaRecord{ID: id, Version: version, Payload: []byte(payload)})
	return j.AppendHint(HintRecord{Target: target, ID: id, Version: version})
}

func (j *memJournal) AppendHint(rec HintRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	byID := j.hints[rec.Target]
	if byID == nil {
		byID = map[string]HintRecord{}
		j.hints[rec.Target] = byID
	}
	if cur, ok := byID[rec.ID]; !ok || rec.Version >= cur.Version {
		byID[rec.ID] = rec
	}
	return nil
}

func (j *memJournal) HintTargets() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]string, 0, len(j.hints))
	for t, byID := range j.hints {
		if len(byID) > 0 {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

func (j *memJournal) PendingHints(target string) ([]HintRecord, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]HintRecord, 0, len(j.hints[target]))
	for _, h := range j.hints[target] {
		out = append(out, h)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out, nil
}

func (j *memJournal) DeleteHint(target, id string, version uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cur, ok := j.hints[target][id]; ok && cur.Version <= version {
		delete(j.hints[target], id)
	}
	return nil
}

func (j *memJournal) HintCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, byID := range j.hints {
		n += len(byID)
	}
	return n
}

// memStore is an in-memory LocalReplicaStore for anti-entropy tests.
type memStore struct {
	mu   sync.Mutex
	recs map[string]ReplicaRecord
}

func newMemStore() *memStore { return &memStore{recs: map[string]ReplicaRecord{}} }

func (s *memStore) Digest() []DigestEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DigestEntry, 0, len(s.recs))
	for id, r := range s.recs {
		out = append(out, DigestEntry{ID: id, Version: r.Version})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (s *memStore) ExportRecord(id string) (ReplicaRecord, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.recs[id]
	return r, ok, nil
}

func (s *memStore) ApplyRecord(rec ReplicaRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.recs[rec.ID]; !ok || rec.Version > cur.Version {
		s.recs[rec.ID] = rec
	}
	return nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// detectorMap builds a map whose node URLs are never dialed — for tests
// that drive the detector purely through observe.
func detectorMap(t *testing.T, ids ...string) *Map {
	t.Helper()
	nodes := make([]Node, len(ids))
	for i, id := range ids {
		nodes[i] = Node{ID: id, URL: "http://127.0.0.1:1"}
	}
	m, err := NewMap(1, nodes, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ---------------------------------------------------------------------
// Failure detector.

func TestDetectorHysteresis(t *testing.T) {
	m := detectorMap(t, "s1", "s2")
	met := NewSelfHealMetrics()
	d := NewDetector(m, "", DetectorOptions{Metrics: met})
	defer d.Close() // safe without Start

	// One miss is noise: still Up.
	d.observe("s1", false)
	if got := d.stateOf("s1"); got != nodeUp {
		t.Fatalf("after 1 miss: %v, want up", got)
	}
	// Second consecutive miss crosses SuspectAfter.
	d.observe("s1", false)
	if got := d.stateOf("s1"); got != nodeSuspect {
		t.Fatalf("after 2 misses: %v, want suspect", got)
	}
	// Third miss: still only suspect — Down needs DownAfter.
	d.observe("s1", false)
	if got := d.stateOf("s1"); got != nodeSuspect {
		t.Fatalf("after 3 misses: %v, want suspect", got)
	}
	d.observe("s1", false)
	if !d.isDown("s1") {
		t.Fatalf("after 4 misses: %v, want down", d.stateOf("s1"))
	}
	// One lucky probe must not resurrect a confirmed corpse.
	d.observe("s1", true)
	if got := d.stateOf("s1"); got != nodeDown {
		t.Fatalf("after 1 hit: %v, want still down", got)
	}
	d.observe("s1", true)
	if got := d.stateOf("s1"); got != nodeUp {
		t.Fatalf("after 2 hits: %v, want up", got)
	}

	if got := MetricSum(t, met.WritePrometheus, "granula_selfheal_detector_transitions_total", `to="suspect"`); got != 1 {
		t.Fatalf("suspect transitions = %v, want 1", got)
	}
	if got := MetricSum(t, met.WritePrometheus, "granula_selfheal_detector_transitions_total", `to="down"`); got != 1 {
		t.Fatalf("down transitions = %v, want 1", got)
	}
	if got := MetricSum(t, met.WritePrometheus, "granula_selfheal_detector_transitions_total", `to="up"`); got != 1 {
		t.Fatalf("up transitions = %v, want 1", got)
	}

	// A success between misses resets the consecutive count: three
	// misses broken by an ack never reach Down.
	for i := 0; i < 6; i++ {
		d.observe("s2", false)
		d.observe("s2", false)
		d.observe("s2", false)
		d.observe("s2", true)
		d.observe("s2", true)
	}
	if d.isDown("s2") {
		t.Fatal("interrupted miss runs must not reach down")
	}

	// Unknown nodes are ignored, not tracked.
	d.observe("ghost", false)
	if got := d.stateOf("ghost"); got != nodeUp {
		t.Fatalf("unknown node state = %v, want up", got)
	}
}

func TestDetectorProbeLoopMarksDownAndRecovers(t *testing.T) {
	shards, m, _ := newFakeCluster(t, 3, 2, 1, 0)
	d := NewDetector(m, "", DetectorOptions{Interval: 5 * time.Millisecond})
	d.Start()
	defer d.Close()

	shards[1].failing.Store(true)
	waitFor(t, 5*time.Second, "s2 marked down", func() bool { return d.isDown(shards[1].id) })

	// The healthy shards never degraded.
	for _, fs := range []*fakeShard{shards[0], shards[2]} {
		if got := d.stateOf(fs.id); got != nodeUp {
			t.Fatalf("%s = %v, want up", fs.id, got)
		}
	}
	snap := d.snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d rows, want 3", len(snap))
	}
	for _, ns := range snap {
		want := "up"
		if ns.ID == shards[1].id {
			want = "down"
		}
		if ns.Status != want {
			t.Fatalf("snapshot %s = %q, want %q", ns.ID, ns.Status, want)
		}
	}

	// Recovery: the node answers again and climbs back to Up.
	shards[1].failing.Store(false)
	waitFor(t, 5*time.Second, "s2 back up", func() bool { return d.stateOf(shards[1].id) == nodeUp })
}

func TestDetectorSelfIsNeverProbed(t *testing.T) {
	shards, m, _ := newFakeCluster(t, 2, 2, 1, 0)
	// The shard-side detector passes its own ID; even with the local
	// process "failing" it must never mark itself down.
	d := NewDetector(m, shards[0].id, DetectorOptions{Interval: 5 * time.Millisecond})
	d.Start()
	defer d.Close()
	shards[0].failing.Store(true)
	shards[1].failing.Store(true)
	waitFor(t, 5*time.Second, "peer marked down", func() bool { return d.isDown(shards[1].id) })
	if got := d.stateOf(shards[0].id); got != nodeUp {
		t.Fatalf("self state = %v, want up (a node does not suspect itself)", got)
	}
}

func TestDetectorFlapNeverReachesDown(t *testing.T) {
	// A flapping node — bursts of misses shorter than DownAfter,
	// interleaved with successes — oscillates Up <-> Suspect but must
	// never be promoted around. This is the hysteresis contract: only
	// sustained silence is death.
	m := detectorMap(t, "s1", "s2", "s3")
	met := NewSelfHealMetrics()
	d := NewDetector(m, "", DetectorOptions{Metrics: met})
	defer d.Close()
	rt := NewRouter(m, RouterOptions{Detector: d})

	owners := m.owners("job-flap")
	for round := 0; round < 20; round++ {
		// Three misses: Suspect (DownAfter is 4).
		for i := 0; i < 3; i++ {
			d.observe(owners[0].ID, false)
		}
		if d.isDown(owners[0].ID) {
			t.Fatalf("round %d: flapping node marked down", round)
		}
		// Suspect keeps ring order — no promotion, no reorder.
		ordered := rt.routeOrder(owners, true)
		for i := range owners {
			if ordered[i].ID != owners[i].ID {
				t.Fatalf("round %d: suspect node reordered routing: %v", round, ordered)
			}
		}
		d.observe(owners[0].ID, true)
		d.observe(owners[0].ID, true)
		if got := d.stateOf(owners[0].ID); got != nodeUp {
			t.Fatalf("round %d: state after recovery = %v, want up", round, got)
		}
	}
	if got := MetricSum(t, met.WritePrometheus, "granula_selfheal_detector_transitions_total", `to="down"`); got != 0 {
		t.Fatalf("down transitions during flapping = %v, want 0", got)
	}
	if got := MetricSum(t, rt.metrics.writePrometheus, "granula_router_promotions_total"); got != 0 {
		t.Fatalf("promotions during flapping = %v, want 0", got)
	}
}

// ---------------------------------------------------------------------
// Digests (the fuzzed wire format).

func TestDigestRoundTrip(t *testing.T) {
	entries := []DigestEntry{{ID: "a", Version: 1}, {ID: "b", Version: 7}, {ID: "c", Version: 2}}
	buf, err := EncodeDigest(entries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeDigest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("round trip length %d != %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}
	// An empty digest is valid and encodes as [] (not null).
	buf, err = EncodeDigest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != "[]" {
		t.Fatalf("empty digest encodes as %q, want []", buf)
	}
}

func TestDigestInvalid(t *testing.T) {
	cases := map[string][]DigestEntry{
		"empty id":  {{ID: "", Version: 1}},
		"version 0": {{ID: "a", Version: 0}},
		"unsorted":  {{ID: "b", Version: 1}, {ID: "a", Version: 1}},
		"duplicate": {{ID: "a", Version: 1}, {ID: "a", Version: 2}},
		"bad utf8":  {{ID: "\xff", Version: 1}},
	}
	for name, entries := range cases {
		if _, err := EncodeDigest(entries); err == nil {
			t.Errorf("%s: encode accepted invalid digest %+v", name, entries)
		}
	}
}

// ---------------------------------------------------------------------
// Sloppy quorum (replicator + hint journal).

func TestReplicatorSloppyQuorum(t *testing.T) {
	shards, m, _ := newFakeCluster(t, 3, 3, 2, 0)
	const id = "job-sloppy"
	owners := m.owners(id)
	self := owners[0].ID
	journal := newMemJournal()
	sh := NewSelfHealMetrics()
	rep, err := NewReplicator(self, m, ReplicatorOptions{Hints: journal, SelfHeal: sh})
	if err != nil {
		t.Fatal(err)
	}

	// Both followers dead. Strict quorum would fail (1 ack < W=2);
	// sloppy quorum journals durable hints that count toward W.
	for _, n := range owners[1:] {
		byID(shards, n.ID).failing.Store(true)
	}
	payload := []byte(`{"id":"job-sloppy","state":"done"}`)
	if err := rep.ReplicateJob(context.Background(), id, 1, payload); err != nil {
		t.Fatalf("sloppy quorum write failed: %v", err)
	}
	// The call returns at quorum (1 ack + 1 hint); the second follower's
	// hint is journaled by its push goroutine moments later.
	waitFor(t, 5*time.Second, "both hints journaled", func() bool { return journal.HintCount() == 2 })
	wantTargets := []string{owners[1].ID, owners[2].ID}
	sort.Strings(wantTargets)
	if got := journal.HintTargets(); !equalStrings(got, wantTargets) {
		t.Fatalf("hint targets = %v, want %v", got, wantTargets)
	}
	for _, target := range wantTargets {
		hints, _ := journal.PendingHints(target)
		if len(hints) != 1 || hints[0] != (HintRecord{Target: target, ID: id, Version: 1}) {
			t.Fatalf("hints for %s = %+v, want the missed write's (target, id, version)", target, hints)
		}
	}
	waitFor(t, 5*time.Second, "recorded hint counters", func() bool {
		return MetricSum(t, sh.WritePrometheus, "granula_selfheal_hints_total", `event="recorded"`) == 2
	})
	if reached, missed := MetricSum(t, rep.Metrics().WritePrometheus, "granula_replication_quorum_total", `outcome="reached"`), MetricSum(t, rep.Metrics().WritePrometheus, "granula_replication_quorum_total", `outcome="missed"`); reached != 1 || missed != 0 {
		t.Fatalf("quorum outcomes = (%v reached, %v missed), want (1, 0)", reached, missed)
	}
}

func TestReplicatorDetectorShortCircuitsToHint(t *testing.T) {
	shards, m, _ := newFakeCluster(t, 3, 3, 2, 0)
	const id = "job-short-circuit"
	owners := m.owners(id)
	self := owners[0].ID
	corpse := owners[2].ID

	d := NewDetector(m, self, DetectorOptions{})
	defer d.Close()
	for i := 0; i < 4; i++ {
		d.observe(corpse, false)
	}
	journal := newMemJournal()
	rep, err := NewReplicator(self, m, ReplicatorOptions{Hints: journal, Detector: d})
	if err != nil {
		t.Fatal(err)
	}

	before := byID(shards, corpse).hits.Load()
	if err := rep.ReplicateJob(context.Background(), id, 1, []byte(`{"x":1}`)); err != nil {
		t.Fatalf("replicate: %v", err)
	}
	// The write never waited on the corpse: no HTTP attempt, straight
	// to the journal. (The corpse is actually healthy here — the point
	// is the detector's verdict short-circuits, not reachability.)
	if got := byID(shards, corpse).hits.Load(); got != before {
		t.Fatalf("down-marked follower was contacted (%d requests)", got-before)
	}
	// The healthy follower may meet the quorum first; the corpse's hint is
	// journaled on its own push goroutine, possibly after the return.
	waitFor(t, 5*time.Second, "the down follower's hint", func() bool {
		hints, _ := journal.PendingHints(corpse)
		return len(hints) == 1 && hints[0].ID == id
	})
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Hint drainer.

func TestDrainerReplaysHints(t *testing.T) {
	shards, m, _ := newFakeCluster(t, 3, 3, 2, 0)
	journal := newMemJournal()
	sh := NewSelfHealMetrics()
	payload := func(i int) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"id":"job-%d","state":"done"}`, i))
	}
	for i, target := range []string{shards[1].id, shards[1].id, shards[2].id} {
		if err := journal.hold(target, fmt.Sprintf("job-%d", i), uint64(i+1), string(payload(i))); err != nil {
			t.Fatal(err)
		}
	}
	// A hint whose target left the map is unreachable garbage: skipped,
	// never delivered, never an error.
	journal.AppendHint(HintRecord{Target: "ghost", ID: "job-x", Version: 1})

	dr := NewDrainer(m, journal, DrainerOptions{Metrics: sh})
	if got := dr.drainOnce(context.Background()); got != 3 {
		t.Fatalf("drained = %d, want 3", got)
	}
	if got := journal.HintCount(); got != 1 { // the ghost hint remains
		t.Fatalf("pending after drain = %d, want 1 (the unroutable ghost)", got)
	}
	if drained := MetricSum(t, sh.WritePrometheus, "granula_selfheal_hints_total", `event="drained"`); drained != 3 {
		t.Fatalf("drained counter = %v, want 3", drained)
	}
	// The replayed bytes are the node's own records verbatim.
	applied := byID(shards, shards[1].id).appliedRecords()
	if len(applied) != 2 {
		t.Fatalf("target got %d replays, want 2", len(applied))
	}
	for _, rec := range applied {
		if rec.Version == 0 || !json.Valid(rec.Payload) {
			t.Fatalf("replayed record malformed: %+v", rec)
		}
	}
	// A second pass finds nothing to do.
	if got := dr.drainOnce(context.Background()); got != 0 {
		t.Fatalf("second drain delivered %d, want 0", got)
	}
}

func TestDrainerSkipsDownTargetsAndKeepsHints(t *testing.T) {
	shards, m, _ := newFakeCluster(t, 3, 3, 2, 0)
	journal := newMemJournal()
	journal.hold(shards[1].id, "job-keep", 1, `{"x":1}`)

	d := NewDetector(m, "", DetectorOptions{})
	defer d.Close()
	for i := 0; i < 4; i++ {
		d.observe(shards[1].id, false)
	}
	dr := NewDrainer(m, journal, DrainerOptions{Detector: d})
	before := shards[1].hits.Load()
	if got := dr.drainOnce(context.Background()); got != 0 {
		t.Fatalf("drained to a down target: %d", got)
	}
	if got := shards[1].hits.Load(); got != before {
		t.Fatal("drainer contacted a down target")
	}
	if journal.HintCount() != 1 {
		t.Fatal("hint for a down target was dropped")
	}

	// The target recovers; the next pass delivers and clears.
	d.observe(shards[1].id, true)
	d.observe(shards[1].id, true)
	if got := dr.drainOnce(context.Background()); got != 1 {
		t.Fatalf("post-recovery drain = %d, want 1", got)
	}
	if journal.HintCount() != 0 {
		t.Fatal("delivered hint not deleted")
	}
}

func TestDrainerKeepsHintOnFailedReplay(t *testing.T) {
	shards, m, _ := newFakeCluster(t, 2, 2, 1, 0)
	journal := newMemJournal()
	sh := NewSelfHealMetrics()
	journal.hold(shards[1].id, "job-retry", 1, `{"x":1}`)
	shards[1].failing.Store(true)

	dr := NewDrainer(m, journal, DrainerOptions{Metrics: sh})
	if got := dr.drainOnce(context.Background()); got != 0 {
		t.Fatalf("drained through a 500: %d", got)
	}
	if journal.HintCount() != 1 {
		t.Fatal("hint dropped on failed replay")
	}
	// Durable until delivered: the peer comes back, the hint drains.
	shards[1].failing.Store(false)
	if got := dr.drainOnce(context.Background()); got != 1 {
		t.Fatalf("post-recovery drain = %d, want 1", got)
	}
	if applied := shards[1].appliedRecords(); len(applied) != 1 || applied[0].ID != "job-retry" {
		t.Fatalf("target applied %+v, want job-retry", applied)
	}
}

// ---------------------------------------------------------------------
// Anti-entropy.

func TestAntiEntropyConverges(t *testing.T) {
	peer := newFakeShard("s2")
	t.Cleanup(peer.srv.Close)
	nodes := []Node{{ID: "s1", URL: "http://127.0.0.1:1"}, {ID: "s2", URL: peer.srv.URL}}
	m, err := NewMap(1, nodes, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	store := newMemStore()
	// Local is newer on job-a, only local holds job-c, only the peer
	// holds job-b. R=2 over two nodes: everything is co-owned.
	store.ApplyRecord(ReplicaRecord{ID: "job-a", Version: 2, Payload: json.RawMessage(`{"v":2}`)})
	store.ApplyRecord(ReplicaRecord{ID: "job-c", Version: 1, Payload: json.RawMessage(`{"v":1}`)})
	peer.setJob("job-a", fakeJob{body: `{"v":1}`, version: 1})
	peer.setJob("job-b", fakeJob{body: `{"peer":true}`, version: 1})

	sh := NewSelfHealMetrics()
	ae, err := NewAntiEntropy("s1", m, store, AntiEntropyOptions{Metrics: sh})
	if err != nil {
		t.Fatal(err)
	}
	pushed, pulled := ae.sweepOnce(context.Background())
	if pushed != 2 || pulled != 1 {
		t.Fatalf("sweep = (%d pushed, %d pulled), want (2, 1)", pushed, pulled)
	}

	// The peer converged to the local versions, byte for byte.
	peer.mu.Lock()
	a, b, c := peer.jobs["job-a"], peer.jobs["job-b"], peer.jobs["job-c"]
	peer.mu.Unlock()
	if a.version != 2 || a.body != `{"v":2}` {
		t.Fatalf("peer job-a = %+v, want v2 bytes", a)
	}
	if c.version != 1 || c.body != `{"v":1}` {
		t.Fatalf("peer job-c = %+v, want pushed copy", c)
	}
	if b.version != 1 {
		t.Fatalf("peer job-b disturbed: %+v", b)
	}
	// And the local store pulled the peer-only record verbatim.
	rec, ok, _ := store.ExportRecord("job-b")
	if !ok || rec.Version != 1 || string(rec.Payload) != `{"peer":true}` {
		t.Fatalf("local job-b = %+v (ok=%v), want the peer's bytes", rec, ok)
	}

	// Convergence is a fixed point: the next sweep moves nothing.
	if p, q := ae.sweepOnce(context.Background()); p != 0 || q != 0 {
		t.Fatalf("second sweep = (%d, %d), want (0, 0)", p, q)
	}
	if sweeps := MetricSum(t, sh.WritePrometheus, "granula_selfheal_antientropy_total", `event="sweeps"`); sweeps != 2 {
		t.Fatalf("sweep counter = %v, want 2", sweeps)
	}
}

func TestAntiEntropyOnlyExchangesCoOwnedRecords(t *testing.T) {
	// With R=1 no two shards share a replica set, so even wildly
	// divergent digests exchange nothing: convergence is defined over
	// replica sets, not the union of all shards.
	peer := newFakeShard("s2")
	t.Cleanup(peer.srv.Close)
	nodes := []Node{{ID: "s1", URL: "http://127.0.0.1:1"}, {ID: "s2", URL: peer.srv.URL}}
	m, err := NewMap(1, nodes, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	store := newMemStore()
	store.ApplyRecord(ReplicaRecord{ID: "job-mine", Version: 5, Payload: json.RawMessage(`{}`)})
	peer.setJob("job-theirs", fakeJob{body: `{}`, version: 3})

	ae, err := NewAntiEntropy("s1", m, store, AntiEntropyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p, q := ae.sweepOnce(context.Background()); p != 0 || q != 0 {
		t.Fatalf("R=1 sweep exchanged (%d, %d), want (0, 0)", p, q)
	}
	if _, ok, _ := store.ExportRecord("job-theirs"); ok {
		t.Fatal("pulled a record the local shard does not own")
	}
}

func TestAntiEntropySkipsDownPeers(t *testing.T) {
	peer := newFakeShard("s2")
	t.Cleanup(peer.srv.Close)
	nodes := []Node{{ID: "s1", URL: "http://127.0.0.1:1"}, {ID: "s2", URL: peer.srv.URL}}
	m, err := NewMap(1, nodes, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetector(m, "s1", DetectorOptions{})
	defer d.Close()
	for i := 0; i < 4; i++ {
		d.observe("s2", false)
	}
	store := newMemStore()
	store.ApplyRecord(ReplicaRecord{ID: "job-a", Version: 1, Payload: json.RawMessage(`{}`)})

	ae, err := NewAntiEntropy("s1", m, store, AntiEntropyOptions{Detector: d})
	if err != nil {
		t.Fatal(err)
	}
	before := peer.hits.Load()
	if p, q := ae.sweepOnce(context.Background()); p != 0 || q != 0 {
		t.Fatalf("sweep against a down peer = (%d, %d), want (0, 0)", p, q)
	}
	if got := peer.hits.Load(); got != before {
		t.Fatal("anti-entropy contacted a down peer")
	}
}

func TestAntiEntropyRejectsUnknownSelf(t *testing.T) {
	m := detectorMap(t, "s1", "s2")
	if _, err := NewAntiEntropy("ghost", m, newMemStore(), AntiEntropyOptions{}); err == nil {
		t.Fatal("anti-entropy accepted a self outside the map")
	}
}

// ---------------------------------------------------------------------
// Router: retry budget, deadline propagation, promotion.

func TestRouterRetryBudgetBoundsFailover(t *testing.T) {
	cases := []struct {
		budget   int
		attempts int64
	}{
		{budget: 0, attempts: 4},  // default: first try + 3 retries
		{budget: 1, attempts: 2},  // first try + 1 retry
		{budget: -1, attempts: 5}, // unlimited: every owner
	}
	for _, tc := range cases {
		shards, m, _ := newFakeCluster(t, 5, 5, 1, 0)
		rt := NewRouter(m, RouterOptions{RetryBudget: tc.budget})
		for _, fs := range shards {
			fs.failing.Store(true)
		}
		w := routerGet(t, rt, "/jobs/job-budget", nil)
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("budget %d: answered %d, want the shards' 500 relayed", tc.budget, w.Code)
		}
		var total int64
		for _, fs := range shards {
			total += fs.hits.Load()
		}
		if total != tc.attempts {
			t.Fatalf("budget %d: %d shard attempts, want %d", tc.budget, total, tc.attempts)
		}
		if got := MetricSum(t, rt.metrics.writePrometheus, "granula_router_failovers_total"); got != float64(tc.attempts) {
			t.Fatalf("budget %d: failover counter = %v, want %d", tc.budget, got, tc.attempts)
		}
	}
}

func TestRouterDeadlineBoundsSlowShards(t *testing.T) {
	// Every owner is slow (400 ms per attempt) and the client allows
	// 120 ms. Without deadline propagation the router would burn
	// budget+1 shard timeouts; with it the request answers 504 within
	// the client's budget — a slow shard cannot make failover exceed
	// the client timeout.
	shards, m, _ := newFakeCluster(t, 3, 3, 1, 0)
	rt := NewRouter(m, RouterOptions{RetryBudget: -1})
	for _, fs := range shards {
		fs.delay.Store(int64(400 * time.Millisecond))
	}
	deadline := time.Now().Add(120 * time.Millisecond)
	start := time.Now()
	w := routerGet(t, rt, "/jobs/job-deadline", map[string]string{
		DeadlineHeader: strconv.FormatInt(deadline.UnixMilli(), 10),
	})
	elapsed := time.Since(start)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("slow cluster answered %d, want 504: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "deadline exceeded") {
		t.Fatalf("504 body %q does not name the deadline", w.Body)
	}
	// Generous bound: well under even a single full shard delay chain,
	// and in the same order as the client budget.
	if elapsed > 350*time.Millisecond {
		t.Fatalf("router took %v, want ~the 120ms client budget", elapsed)
	}
}

func TestRouterPropagatesDeadlineToShards(t *testing.T) {
	shards, m, _ := newFakeCluster(t, 3, 2, 1, 0)
	rt := NewRouter(m, RouterOptions{})
	const id = "job-deadline-header"
	for _, n := range m.owners(id) {
		byID(shards, n.ID).setJob(id, fakeJob{body: "{}", version: 1})
	}
	deadline := time.Now().Add(5 * time.Second).UnixMilli()
	w := routerGet(t, rt, "/jobs/"+id, map[string]string{
		DeadlineHeader: strconv.FormatInt(deadline, 10),
	})
	if w.Code != http.StatusOK {
		t.Fatalf("read = %d: %s", w.Code, w.Body)
	}
	var seen []string
	for _, fs := range shards {
		fs.mu.Lock()
		seen = append(seen, fs.deadlines...)
		fs.mu.Unlock()
	}
	if len(seen) == 0 {
		t.Fatal("no shard saw the propagated deadline header")
	}
	ms, err := strconv.ParseInt(seen[0], 10, 64)
	if err != nil {
		t.Fatalf("propagated deadline %q is not unix millis", seen[0])
	}
	// The shard sees (about) the client's absolute deadline, not a
	// router-invented one.
	if diff := ms - deadline; diff < -1000 || diff > 1000 {
		t.Fatalf("propagated deadline %d drifted %dms from the client's %d", ms, diff, deadline)
	}
}

// TestRouterListCarriesDeadlineAndFeedsDetector: the GET /jobs fan-out
// is a routed request like any other. Every shard sees the client's
// deadline, and a shard the fan-out cannot reach is a detector miss.
func TestRouterListCarriesDeadlineAndFeedsDetector(t *testing.T) {
	shards, m, _ := newFakeCluster(t, 3, 2, 1, 0)
	d := NewDetector(m, "", DetectorOptions{})
	defer d.Close()
	rt := NewRouter(m, RouterOptions{Detector: d})
	deadline := time.Now().Add(5 * time.Second).UnixMilli()
	hdr := map[string]string{DeadlineHeader: strconv.FormatInt(deadline, 10)}
	if w := routerGet(t, rt, "/jobs", hdr); w.Code != http.StatusOK {
		t.Fatalf("list = %d: %s", w.Code, w.Body)
	}
	for _, fs := range shards {
		fs.mu.Lock()
		seen := append([]string(nil), fs.deadlines...)
		fs.mu.Unlock()
		if len(seen) != 1 || seen[0] != hdr[DeadlineHeader] {
			t.Fatalf("shard %s saw deadlines %v, want [%s]", fs.id, seen, hdr[DeadlineHeader])
		}
	}

	dead := shards[2]
	dead.srv.Close()
	w := routerGet(t, rt, "/jobs", nil)
	if got := w.Header().Get("X-Granula-Shards-Down"); !strings.Contains(got, dead.id) {
		t.Fatalf("down header %q does not name %s", got, dead.id)
	}
	for _, st := range d.snapshot() {
		want := 0
		if st.ID == dead.id {
			want = 1
		}
		if st.Misses != want {
			t.Fatalf("detector counts %d misses for %s, want %d", st.Misses, st.ID, want)
		}
	}
}

func TestRouterPromotesPastDownPrimary(t *testing.T) {
	shards, m, _ := newFakeCluster(t, 3, 2, 1, 0)
	d := NewDetector(m, "", DetectorOptions{})
	defer d.Close()
	rt := NewRouter(m, RouterOptions{Detector: d})

	const id = "job-promote"
	owners := m.owners(id)
	primary, secondary := owners[0], owners[1]
	for i := 0; i < 4; i++ {
		d.observe(primary.ID, false)
	}

	body := fmt.Sprintf(`{"platform":"Giraph","algorithm":"BFS","id":%q}`, id)
	req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader([]byte(body)))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)

	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get(ShardHeader); got != secondary.ID {
		t.Fatalf("write served by %q, want promoted owner %q", got, secondary.ID)
	}
	// The corpse was never attempted — promotion, not failover.
	if got := byID(shards, primary.ID).submittedIDs(); len(got) != 0 {
		t.Fatalf("down primary still saw submits %v", got)
	}
	if got := MetricSum(t, rt.metrics.writePrometheus, "granula_router_promotions_total"); got != 1 {
		t.Fatalf("promotions = %v, want 1", got)
	}

	// Reads route around the corpse too.
	byID(shards, secondary.ID).setJob(id, fakeJob{body: "{}", version: 1})
	for i := 0; i < 4; i++ {
		w := routerGet(t, rt, "/jobs/"+id+"/archive", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("read %d = %d: %s", i, w.Code, w.Body)
		}
		if got := w.Header().Get(ShardHeader); got == primary.ID {
			t.Fatalf("read %d served by the down primary", i)
		}
	}

	// The primary recovers; writes return to it.
	d.observe(primary.ID, true)
	d.observe(primary.ID, true)
	req = httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader([]byte(body)))
	req.Header.Set("Content-Type", "application/json")
	w = httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if got := w.Header().Get(ShardHeader); got != primary.ID {
		t.Fatalf("post-recovery write served by %q, want primary %q", got, primary.ID)
	}
}

// ---------------------------------------------------------------------
// Metrics exposition.

// TestSelfHealMetricsExposition: the two sampled families are absent
// until their sampler is bound, then read the live detector and journal.
// (The format is pinned by TestMetricsGoldenShardNode.)
func TestSelfHealMetricsExposition(t *testing.T) {
	sh := NewSelfHealMetrics()
	d := NewDetector(detectorMap(t, "s1", "s2"), "", DetectorOptions{Metrics: sh})
	defer d.Close()
	var buf bytes.Buffer
	sh.WritePrometheus(&buf)
	for _, absent := range []string{"granula_selfheal_hints_pending", "granula_selfheal_node_state"} {
		if strings.Contains(buf.String(), absent) {
			t.Errorf("%s exposed before its sampler was bound", absent)
		}
	}

	sh.SetDetector(d)
	sh.SetHintGauge(func() int { return 7 })
	for i := 0; i < 4; i++ {
		d.observe("s2", false)
	}
	for _, tc := range []struct {
		name, match string
		want        float64
	}{
		{"granula_selfheal_detector_transitions_total", `to="down"`, 1},
		{"granula_selfheal_hints_pending", "", 7},
		{"granula_selfheal_node_state", `node="s1"`, 0},
		{"granula_selfheal_node_state", `node="s2"`, 2},
	} {
		if got := MetricSum(t, sh.WritePrometheus, tc.name, tc.match); got != tc.want {
			t.Errorf("%s{%s} = %v, want %v", tc.name, tc.match, got, tc.want)
		}
	}
}
