package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/archive"
	"repro/internal/shard"
)

// replicaEnvelope is the JSON body POST /internal/replicate and GET
// /internal/export/{id} carried before a replica crossed the wire as its
// record bytes. With oracleReplicate and oracleExport, the handlers that
// spoke it, it is the oracle the raw wire is checked against.
type replicaEnvelope struct {
	ID      string          `json:"id"`
	Version uint64          `json:"version"`
	Payload json.RawMessage `json:"payload"`
}

// oracleReplicate is handleReplicate as it read the envelope: one
// json.Decoder pass capped at maxSubmitBytes, then applyReplica.
func oracleReplicate(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var rec replicaEnvelope
		if !decodeBody(w, r, &rec) {
			return
		}
		if rec.ID == "" || len(rec.Payload) == 0 {
			writeError(w, http.StatusBadRequest, "replica record needs an id and a payload")
			return
		}
		if err := s.store.applyReplica(rec.ID, rec.Version, rec.Payload); err != nil {
			if errors.Is(err, errDegraded) {
				s.setRetryAfter(w)
				writeError(w, http.StatusServiceUnavailable, "%v", err)
				return
			}
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, replicateResponse{ID: rec.ID, Version: s.store.version(rec.ID)})
	}
}

// oracleExport is handleExport as it wrote the envelope.
func oracleExport(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		payload, version, ok, err := s.store.export(id)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if !ok {
			writeError(w, http.StatusNotFound, "no job %q", id)
			return
		}
		blob, err := json.Marshal(replicaEnvelope{ID: id, Version: version, Payload: payload})
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(blob)
	}
}

// wireNode is one follower under test: a store and its HTTP server,
// speaking the raw wire or, with oracle set, the envelope.
type wireNode struct {
	store  *Store
	url    string
	oracle bool
}

func newWireNode(t *testing.T, oracle bool) *wireNode {
	t.Helper()
	store := tempStore(t)
	exec := NewExecutorWith(1, 4, store, nil, ExecutorOptions{})
	srv := NewServerWith(exec, store, nil, ServerOptions{})
	h := srv.Handler()
	if oracle {
		mux := http.NewServeMux()
		mux.Handle("POST /internal/replicate", oracleReplicate(srv))
		mux.Handle("GET "+shard.ExportPathPrefix+"{id}", oracleExport(srv))
		mux.Handle("/", h)
		h = mux
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		exec.Shutdown(context.Background())
	})
	return &wireNode{store: store, url: ts.URL, oracle: oracle}
}

// push sends one replica in the node's wire form and returns the
// status class (2 for 2xx, 4 for 4xx, ...).
func (n *wireNode) push(t *testing.T, id string, version uint64, payload []byte) int {
	t.Helper()
	if n.oracle {
		body, err := json.Marshal(replicaEnvelope{ID: id, Version: version, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		return n.pushBody(t, body)
	}
	code, _ := postReplica(t, n.url, id, strconv.FormatUint(version, 10), payload)
	return code / 100
}

// pushBody POSTs body unchanged to the oracle's envelope endpoint.
func (n *wireNode) pushBody(t *testing.T, body []byte) int {
	t.Helper()
	resp, err := http.Post(n.url+"/internal/replicate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode / 100
}

// wireState is everything a reader or a peer can see of one job on a
// follower: the bytes in its WAL and their version, its /archive and
// /query answers with their ETags, and its export.
type wireState struct {
	stored                    string
	version                   uint64
	archive, archiveTag       string
	query, queryTag           string
	exportCode, exportVersion uint64
	exported                  string
}

func (n *wireNode) state(t *testing.T, id string) wireState {
	t.Helper()
	var st wireState
	if payload, ok, err := n.store.db.Get(id); err != nil {
		t.Fatal(err)
	} else if ok {
		st.stored = string(payload)
	}
	st.version = n.store.version(id)
	get := func(path string) (int, []byte, http.Header) {
		resp, err := http.Get(n.url + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body, resp.Header
	}
	code, body, hdr := get("/jobs/" + pathSegment(id) + "/archive")
	st.archive, st.archiveTag = fmt.Sprintf("%d %s", code, body), hdr.Get("ETag")
	code, body, hdr = get("/jobs/" + pathSegment(id) + "/query?q=" + url.QueryEscape("duration >= 0 order by start"))
	st.query, st.queryTag = fmt.Sprintf("%d %s", code, body), hdr.Get("ETag")
	code, body, hdr = get(shard.ExportPathPrefix + pathSegment(id))
	st.exportCode = uint64(code)
	if code != http.StatusOK {
		return st
	}
	if n.oracle {
		var env replicaEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.ID != id {
			t.Fatalf("oracle export of %q: %v (id %q)", id, err, env.ID)
		}
		st.exportVersion, st.exported = env.Version, string(env.Payload)
		return st
	}
	v, err := strconv.ParseUint(hdr.Get(shard.VersionHeader), 10, 64)
	if err != nil {
		t.Fatalf("export of %q: version header: %v", id, err)
	}
	st.exportVersion, st.exported = v, string(body)
	return st
}

// TestReplicaWireMatchesEnvelope is the differential for the raw
// replica wire: against the envelope handlers it replaced, a follower
// that receives the same record must answer the same status class and
// end with the same WAL bytes, version, /archive and /query bytes and
// ETags, and export. The inputs are a record of every platform and
// algorithm the harness accepts, hostile job IDs at versions 0, 1 and
// MaxUint64, and malformed bodies. The raw wire goes through the
// shard package's Replicator, so its client is under test too.
//
// The differences it finds, each asserted below:
//   - a record over 1 MiB (OpenG LCC on the test graph is one): the
//     envelope answered 413, so the record never replicated; the raw
//     wire stores it (up to MaxRecordBytes);
//   - a payload that is JSON but not a record: the envelope answered
//     500, which the pusher retries; the raw wire answers 400;
//   - no version: the envelope read an absent version as 0, stored as
//     1; the raw wire refuses a push without its version header.
func TestReplicaWireMatchesEnvelope(t *testing.T) {
	oldN, newN := newWireNode(t, true), newWireNode(t, false)
	m, err := shard.NewMap(1, []shard.Node{{ID: "p", URL: "http://127.0.0.1:1"}, {ID: "f", URL: newN.url}}, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := shard.NewReplicator("p", m, shard.ReplicatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	primary := tempStore(t)
	record := func(job *archive.Job, sum Summary) []byte {
		rec, err := primary.put(job, sum)
		if err != nil {
			t.Fatal(err)
		}
		return rec.Payload
	}
	same := func(id string) {
		t.Helper()
		if o, n := oldN.state(t, id), newN.state(t, id); o != n {
			t.Fatalf("%q: envelope and raw wire disagree:\nenvelope %+.300v\nraw      %+.300v", id, o, n)
		}
	}
	// both pushes id and requires both wires to accept it, except a
	// record whose envelope is over the envelope's 1 MiB cap: that one
	// only the raw wire takes.
	both := func(id string, version uint64, payload []byte) {
		t.Helper()
		env, _ := json.Marshal(replicaEnvelope{ID: id, Version: version, Payload: payload})
		overCap := len(env) > maxSubmitBytes
		want := 2
		if overCap {
			want = 4
		}
		if c := oldN.push(t, id, version, payload); c != want {
			t.Fatalf("envelope push of %q v%d (%d bytes): status class %d", id, version, len(env), c)
		}
		if err := rep.ReplicateJob(context.Background(), id, version, payload); err != nil {
			t.Fatalf("raw push of %q v%d: %v", id, version, err)
		}
		if !overCap {
			same(id)
			return
		}
		t.Logf("%q: a %d-byte record, refused by the envelope, replicated raw", id, len(payload))
		if o, n := oldN.state(t, id), newN.state(t, id); o.stored != "" || n.stored != string(payload) || n.exported != string(payload) {
			t.Fatalf("%q: envelope stored %d bytes, raw %d (exported %d), want 0 and %d", id, len(o.stored), len(n.stored), len(n.exported), len(payload))
		}
	}

	var small []byte
	for platform, algorithms := range map[string][]string{
		"Giraph":     {"BFS", "SSSP", "PageRank", "WCC", "CDLP"},
		"PowerGraph": {"BFS", "SSSP", "PageRank", "WCC"},
		"OpenG":      {"BFS", "SSSP", "PageRank", "WCC", "CDLP", "LCC"},
	} {
		for _, algorithm := range algorithms {
			out := testOutput(t, platform, algorithm)
			out.Job.ID = platform + "-" + algorithm
			payload := record(out.Job, summarize(JobRequest{Algorithm: algorithm}, out))
			both(out.Job.ID, 1, payload)
			if small == nil || len(payload) < len(small) {
				small = payload
			}
		}
	}

	// Every hostile ID at versions 0 (stored as 1), 1 (a replay) and
	// MaxUint64, and a hostile job inside the record.
	hostile := record(hostileJob("<&> "), Summary{ID: "<&> ", ModelErrors: []string{"\"quoted\""}})
	for _, id := range []string{"a/b", "a?b", "a%b", "a#b", "a b", "é✓ 日本", ".", "..", "a/../b", "<&> "} {
		for _, v := range []uint64{0, 1, math.MaxUint64} {
			both(id, v, hostile)
		}
	}

	// Malformed pushes: the body each wire would have carried.
	for _, c := range []struct {
		name          string
		envelope, raw []byte
	}{
		{"empty body", nil, nil},
		{"truncated", []byte(`{"id":"bad","version":1,"payload":` + string(small[:len(small)/2])), small[:len(small)/2]},
		{"not JSON", []byte("not json"), []byte("not json")},
		{"JSON null", []byte("null"), []byte("null")},
	} {
		oc := oldN.pushBody(t, c.envelope)
		code, body := postReplica(t, newN.url, "bad", "1", c.raw)
		if oc != 4 || code/100 != 4 {
			t.Fatalf("%s: envelope class %d, raw %d (%s); want both 4xx", c.name, oc, code, body)
		}
		same("bad")
	}
	empty, _ := json.Marshal(replicaEnvelope{ID: "", Version: 1, Payload: small})
	if oc, code := oldN.pushBody(t, empty), push0(t, newN.url, "", "1", small); oc != 4 || code/100 != 4 {
		t.Fatalf("empty id: envelope class %d, raw %d; want both 4xx", oc, code)
	}

	// Over both caps: the envelope's 1 MiB, and MaxRecordBytes, declared
	// in Content-Length and refused before a byte is read.
	if oc := oldN.pushBody(t, bytes.Repeat([]byte(" "), maxSubmitBytes+1)); oc != 4 {
		t.Fatalf("oversized envelope: status class %d, want 4", oc)
	}
	req := httptest.NewRequest(http.MethodPost, shard.ReplicatePathPrefix+"huge", io.LimitReader(neverRead{t}, shard.MaxRecordBytes+1))
	req.ContentLength = shard.MaxRecordBytes + 1
	req.SetPathValue("id", "huge")
	req.Header.Set(shard.VersionHeader, "1")
	rec := httptest.NewRecorder()
	(&Server{store: newN.store}).handleReplicate(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("raw push over MaxRecordBytes = %d, want 413", rec.Code)
	}
	same("huge")

	// The differences.
	t.Run("record over 1 MiB", func(t *testing.T) {
		big := record(bigJob(t))
		if len(big) <= maxSubmitBytes {
			t.Fatalf("the big record is %d bytes, not over 1 MiB", len(big))
		}
		if c := oldN.push(t, "big", 1, big); c != 4 {
			t.Fatalf("envelope push of a %d-byte record: class %d, want 4", len(big), c)
		}
		if err := rep.ReplicateJob(context.Background(), "big", 1, big); err != nil {
			t.Fatalf("raw push of a %d-byte record: %v", len(big), err)
		}
		if o, n := oldN.state(t, "big"), newN.state(t, "big"); o.stored != "" || n.stored != string(big) || n.exported != string(big) {
			t.Fatalf("envelope stored %d bytes, raw %d (exported %d), want 0 and %d", len(o.stored), len(n.stored), len(n.exported), len(big))
		}
	})
	t.Run("JSON that is not a record", func(t *testing.T) {
		if oc, code := oldN.push(t, "nonrecord", 1, []byte(`{"x":1}`)), push0(t, newN.url, "nonrecord", "1", []byte(`{"x":1}`)); oc != 5 || code != http.StatusBadRequest {
			t.Fatalf("envelope class %d, raw %d; want 5xx and 400", oc, code)
		}
		same("nonrecord")
	})
	t.Run("no version", func(t *testing.T) {
		env, _ := json.Marshal(struct {
			ID      string          `json:"id"`
			Payload json.RawMessage `json:"payload"`
		}{"noversion", small})
		if oc, code := oldN.pushBody(t, env), push0(t, newN.url, "noversion", "", small); oc != 2 || code != http.StatusBadRequest {
			t.Fatalf("envelope class %d, raw %d; want 2xx and 400", oc, code)
		}
		if v := oldN.store.version("noversion"); v != 1 {
			t.Fatalf("envelope stored an absent version as %d, want 1", v)
		}
		if n := newN.state(t, "noversion"); n.stored != "" {
			t.Fatal("the raw wire stored a push without a version")
		}
	})
}

// push0 is postReplica's status alone.
func push0(t *testing.T, base, id, version string, body []byte) int {
	t.Helper()
	code, _ := postReplica(t, base, id, version, body)
	return code
}

// neverRead is a body that fails the test if anything reads it.
type neverRead struct{ t *testing.T }

func (r neverRead) Read([]byte) (int, error) {
	r.t.Error("the handler read a body its Content-Length already refused")
	return 0, io.EOF
}

// bigJob runs what POST /jobs would for a 16-node PowerGraph PageRank
// on the default graph, whose record is over 1 MiB.
func bigJob(t *testing.T) (*archive.Job, Summary) {
	t.Helper()
	return runRequest(t, "big", JobRequest{Platform: "PowerGraph", Algorithm: "PageRank", Nodes: 16})
}

// runRequest runs what POST /jobs would for req, as job id.
func runRequest(t *testing.T, id string, req JobRequest) (*archive.Job, Summary) {
	t.Helper()
	exec := NewExecutorWith(1, 4, tempStore(t), nil, ExecutorOptions{})
	t.Cleanup(func() { exec.Shutdown(context.Background()) })
	req.applyDefaults()
	sum, job, err := exec.run(context.Background(), id, req)
	if err != nil {
		t.Fatal(err)
	}
	return job, sum
}

// TestReplicateRecordOverOneMiB: a valid request whose record is over
// the POST /jobs body cap replicates synchronously. The follower holds
// the record when ReplicateJob returns and no hint stands in for it.
func TestReplicateRecordOverOneMiB(t *testing.T) {
	follower := newWireNode(t, false)
	primary := tempStore(t)
	m, err := shard.NewMap(1, []shard.Node{{ID: "p", URL: "http://127.0.0.1:1"}, {ID: "f", URL: follower.url}}, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := shard.NewReplicator("p", m, shard.ReplicatorOptions{Hints: primary})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := primary.put(bigJob(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Payload) <= 1<<20 {
		t.Fatalf("the record is %d bytes, not over 1 MiB", len(rec.Payload))
	}
	if err := rep.ReplicateJob(context.Background(), rec.ID, rec.Version, rec.Payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := follower.store.db.Get(rec.ID)
	if err != nil || !ok || !bytes.Equal(got, rec.Payload) {
		t.Fatalf("the follower holds %d bytes (ok=%v, err=%v), want the %d-byte record", len(got), ok, err, len(rec.Payload))
	}
	if n := primary.HintCount(); n != 0 {
		t.Fatalf("%d hints journaled for a follower that took the record", n)
	}
}

// FuzzReplicate drives the raw replicate handler with any job ID,
// version header and body. It must not panic; it must refuse with a 4xx
// whatever it cannot apply (a bad ID or version, an empty body, bytes
// that are not a record unless they replay a held version); it must
// accept the rest; and whatever the WAL holds under the ID afterwards
// must decode as a record.
func FuzzReplicate(f *testing.F) {
	store := tempStore(f)
	srv := &Server{store: store}
	seed, err := encodeRecord(Summary{ID: "s"}, &archive.Job{ID: "s", Platform: "P", Root: &archive.Operation{
		ID: "r", Actor: "A", Mission: "Job", Start: 0, End: 2,
		Children: []*archive.Operation{{ID: "c", Actor: "A", Mission: "Step", Start: 0, End: 1, Infos: map[string]string{"k": "v"}}},
	}}, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range []struct {
		id, version string
		body        []byte
	}{
		{"s", "1", seed}, {"s", "2", seed}, {"a/b", "0", seed}, {"", "1", seed}, {"s", "", seed},
		{"s", "-1", seed}, {"s", "18446744073709551615", seed}, {"s", "18446744073709551616", seed},
		{"t", "1", seed[:len(seed)/2]}, {"t", "1", nil}, {"t", "1", []byte("null")},
		{"t", "1", []byte(`{"x":1}`)}, {"t", "1", []byte(`{"job":null}`)}, {"\xff", "1", seed},
		{"~hint/s2/s", "1", seed}, {"~stream/s/00000000000000000001", "1", seed},
	} {
		f.Add(c.id, c.version, c.body)
	}
	f.Fuzz(func(t *testing.T, id, version string, body []byte) {
		held := store.version(id)
		v, verr := strconv.ParseUint(version, 10, 64)
		_, _, _, derr := decodeRecord(body)
		refuse := id == "" || !utf8.ValidString(id) || strings.HasPrefix(id, "~") || verr != nil || len(body) == 0 ||
			(derr != nil && held < max(v, 1))

		req := httptest.NewRequest(http.MethodPost, shard.ReplicatePathPrefix+"x", bytes.NewReader(body))
		req.SetPathValue("id", id)
		if version != "" {
			req.Header.Set(shard.VersionHeader, version)
		}
		rec := httptest.NewRecorder()
		srv.handleReplicate(rec, req)

		switch {
		case refuse && rec.Code/100 != 4:
			t.Fatalf("id %q version %q body %q: %d, want a 4xx", id, version, body, rec.Code)
		case !refuse && rec.Code != http.StatusOK:
			t.Fatalf("id %q version %q body %q: %d (%s), want 200", id, version, body, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		if id == "" {
			return
		}
		stored, ok, err := store.db.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			if _, _, _, err := decodeRecord(stored); err != nil {
				t.Fatalf("the WAL holds an undecodable record under %q: %v", id, err)
			}
		}
	})
}
