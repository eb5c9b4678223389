package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/archivedb"
	"repro/internal/datagen"
	"repro/internal/envmon"
	"repro/internal/platforms"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/trace"
)

// streamStack wires a service stack with live streaming enabled.
func streamStack(t *testing.T, opts ServerOptions) (*httptest.Server, *Store) {
	t.Helper()
	store := tempStore(t)
	metrics := NewMetrics()
	exec := NewExecutorWith(1, 4, store, metrics, ExecutorOptions{})
	srv := NewServerWith(exec, store, metrics, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		exec.Shutdown(context.Background())
	})
	return ts, store
}

// streamEventsFixture is a well-formed event stream for a tiny job:
// root with two sequential children, one info, one env sample, sealed
// done at t=6.
func streamEventsFixture() []stream.Event {
	return []stream.Event{
		{Seq: 1, Type: "start", Time: 0, Op: "op-1", Actor: "Client", Mission: "Job"},
		{Seq: 2, Type: "start", Time: 1, Op: "op-2", Parent: "op-1", Actor: "Worker-0", Mission: "Load"},
		{Seq: 3, Type: "info", Time: 1.5, Op: "op-2", Key: "Bytes", Value: "1000"},
		{Seq: 4, Type: "end", Time: 2, Op: "op-2"},
		{Seq: 5, Type: "env", Time: 2, Node: "node-0", Kind: "cpu", Used: 1.5},
		{Seq: 6, Type: "start", Time: 2, Op: "op-3", Parent: "op-1", Actor: "Worker-1", Mission: "Compute"},
		{Seq: 7, Type: "end", Time: 5, Op: "op-3"},
		{Seq: 8, Type: "end", Time: 6, Op: "op-1"},
		{Seq: 9, Type: stream.TypeSeal, Time: 6, Platform: "Giraph", Algorithm: "BFS", State: stream.StateDone},
	}
}

func postIngest(t *testing.T, base, id string, events []stream.Event) (int, ingestResponse, []byte, http.Header) {
	t.Helper()
	body, err := stream.EncodeEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/ingest/"+id, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	var ack ingestResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(payload, &ack); err != nil {
			t.Fatalf("bad ingest ack: %v: %s", err, payload)
		}
	}
	return resp.StatusCode, ack, payload, resp.Header
}

func TestIngestLifecycle(t *testing.T) {
	ts, store := streamStack(t, ServerOptions{})
	events := streamEventsFixture()

	code, ack, _, _ := postIngest(t, ts.URL, "j1", events[:5])
	if code != http.StatusOK {
		t.Fatalf("first batch: %d", code)
	}
	if ack.Accepted != 5 || ack.LastSeq != 5 || ack.State != "streaming" {
		t.Fatalf("first ack: %+v", ack)
	}

	// Replaying the acked prefix plus the rest is idempotent and seals.
	code, ack, _, _ = postIngest(t, ts.URL, "j1", events)
	if code != http.StatusOK {
		t.Fatalf("seal batch: %d", code)
	}
	if ack.Accepted != 4 || ack.Duplicates != 5 || ack.LastSeq != 9 || ack.State != "archived" {
		t.Fatalf("seal ack: %+v", ack)
	}

	sj, ok := store.get("j1")
	if !ok {
		t.Fatal("sealed job not in store")
	}
	if sj.Summary.Platform != "Giraph" || sj.Summary.Algorithm != "BFS" || sj.Summary.Operations != 3 {
		t.Fatalf("stored summary: %+v", sj.Summary)
	}
	if sj.Summary.Runtime != 6 {
		t.Fatalf("runtime = %v, want 6", sj.Summary.Runtime)
	}

	if code, body, _ := getBytes(t, ts.URL+"/jobs/j1/archive"); code != http.StatusOK || !bytes.Contains(body, []byte("op-3")) {
		t.Fatalf("archive after seal: %d: %s", code, body)
	}

	// A full replay after archiving gets a terminal success, not a gap.
	code, ack, _, _ = postIngest(t, ts.URL, "j1", events)
	if code != http.StatusOK || ack.State != "archived" || ack.Accepted != 0 {
		t.Fatalf("post-archive replay: %d %+v", code, ack)
	}
}

func TestIngestErrors(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{})
	events := streamEventsFixture()

	// A gap answers 409 with the expected next sequence.
	if _, _, _, _ = postIngest(t, ts.URL, "g1", events[:2]); true {
		code, _, body, hdr := postIngest(t, ts.URL, "g1", events[3:5])
		if code != http.StatusConflict {
			t.Fatalf("gap: %d: %s", code, body)
		}
		if hdr.Get("X-Granula-Expected-Seq") != "3" {
			t.Fatalf("expected-seq header = %q", hdr.Get("X-Granula-Expected-Seq"))
		}
	}

	// Malformed lines answer 400.
	resp, err := http.Post(ts.URL+"/ingest/g2", "application/x-ndjson", strings.NewReader("{not json}\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed: %d: %s", resp.StatusCode, body)
	}
	// So does an event carrying a field its type does not use.
	stray := []stream.Event{{Seq: 3, Type: "env", Time: 2, Node: "n", Kind: "cpu", Op: "a", Actor: "w", Value: "x"}}
	if code, _, body, _ := postIngest(t, ts.URL, "g1", stray); code != http.StatusBadRequest {
		t.Fatalf("env event with operation fields: %d: %s", code, body)
	}

	// A tree-invalid batch answers 400 and leaves state untouched.
	bad := []stream.Event{{Seq: 3, Type: "end", Time: 2, Op: "nope"}}
	if code, _, body, _ := postIngest(t, ts.URL, "g1", bad); code != http.StatusBadRequest {
		t.Fatalf("invalid batch: %d: %s", code, body)
	}
	if code, ack, _, _ := postIngest(t, ts.URL, "g1", events); code != http.StatusOK || ack.State != "archived" {
		t.Fatalf("valid continuation after rejects: %d %+v", code, ack)
	}
}

func TestIngestBackpressure(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{Streams: stream.NewManager(stream.Config{MaxLiveJobs: 1, MaxEventsPerJob: 6})})
	events := streamEventsFixture()

	if code, _, _, _ := postIngest(t, ts.URL, "b1", events[:4]); code != http.StatusOK {
		t.Fatalf("open b1: %d", code)
	}
	// Second live job exceeds MaxLiveJobs.
	code, _, body, hdr := postIngest(t, ts.URL, "b2", events[:2])
	if code != http.StatusTooManyRequests {
		t.Fatalf("live-job overflow: %d: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Growing b1 past MaxEventsPerJob sheds too.
	if code, _, _, _ := postIngest(t, ts.URL, "b1", events[:8]); code != http.StatusTooManyRequests {
		t.Fatalf("event overflow: %d", code)
	}
}

func TestStatusStreaming(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{})
	events := streamEventsFixture()
	postIngest(t, ts.URL, "s1", events[:5])

	st := getStatus(t, ts.URL, "s1")
	if st.Status != statusStreaming {
		t.Fatalf("status = %q, want streaming", st.Status)
	}
	if st.Stream == nil || st.Stream.LastSeq != 5 || st.Stream.Events != 5 ||
		st.Stream.CompletedOps != 1 || st.Stream.OpenOps != 1 {
		t.Fatalf("stream progress: %+v", st.Stream)
	}
	if st.Request.Platform != "" {
		// The platform arrives with the seal; until then it is unknown.
		t.Fatalf("platform before seal: %q", st.Request.Platform)
	}

	postIngest(t, ts.URL, "s1", events)
	st = getStatus(t, ts.URL, "s1")
	if st.Status != StatusDone || st.Summary == nil {
		t.Fatalf("archived status: %+v", st)
	}
}

// TestQueryLiveAndCacheBypass pins satellite (a): responses computed
// from a live job are never cached (no stale bytes, no ETag), and the
// sealed archive's answers carry a strong ETag.
func TestQueryLiveAndCacheBypass(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{})
	events := streamEventsFixture()
	q := "/jobs/q1/query?q=" + url.QueryEscape(`duration >= 0 order by start`)

	postIngest(t, ts.URL, "q1", events[:4]) // op-2 completed
	code, body1, hdr1 := getBytes(t, ts.URL+q)
	if code != http.StatusOK {
		t.Fatalf("live query: %d: %s", code, body1)
	}
	if hdr1.Get("ETag") != "" {
		t.Fatalf("live response carries ETag %q", hdr1.Get("ETag"))
	}
	var r1 queryResponse
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if !r1.Live || r1.LastSeq != 4 || r1.Count != 1 {
		t.Fatalf("live response: live=%v lastSeq=%d count=%d", r1.Live, r1.LastSeq, r1.Count)
	}

	// More events arrive without any store write: a cached body would now
	// be stale. The same URL must reflect them.
	postIngest(t, ts.URL, "q1", events[:7]) // op-3 completed too
	_, body2, _ := getBytes(t, ts.URL+q)
	var r2 queryResponse
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Count != 2 || r2.LastSeq != 7 {
		t.Fatalf("stale live response after growth: count=%d lastSeq=%d", r2.Count, r2.LastSeq)
	}

	// Seal: the archive is published, responses turn cacheable with a
	// fresh ETag, and revalidation 304s.
	postIngest(t, ts.URL, "q1", events)
	code, body3, hdr3 := getBytes(t, ts.URL+q)
	if code != http.StatusOK || hdr3.Get("ETag") == "" {
		t.Fatalf("sealed query: %d etag=%q", code, hdr3.Get("ETag"))
	}
	var r3 queryResponse
	if err := json.Unmarshal(body3, &r3); err != nil {
		t.Fatal(err)
	}
	if r3.Live || r3.LastSeq != 0 || r3.Count != 3 {
		t.Fatalf("sealed response: live=%v lastSeq=%d count=%d", r3.Live, r3.LastSeq, r3.Count)
	}
	req, _ := http.NewRequest("GET", ts.URL+q, nil)
	req.Header.Set("If-None-Match", hdr3.Get("ETag"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation after seal: %d", resp.StatusCode)
	}

	// The live mission-indexed path behaves the same way.
	postIngest(t, ts.URL, "q2", events[:4])
	if _, body, hdr := getBytes(t, ts.URL+"/jobs/q2/query?mission=Load"); hdr.Get("ETag") != "" || !bytes.Contains(body, []byte("op-2")) {
		t.Fatalf("live mission query: etag=%q body=%s", hdr.Get("ETag"), body)
	}
}

// watchCollect tails /watch/{id} until the stream closes and returns
// the raw SSE text.
func watchCollect(t *testing.T, base, id, extra string, lastEventID string) string {
	t.Helper()
	req, err := http.NewRequest("GET", base+"/watch/"+id+extra, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	client := &http.Client{} // no timeout: the server closes at seal
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch %s: %d: %s", id, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content type %q", ct)
	}
	return string(body)
}

func TestWatchTailAndResume(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{WatchHeartbeat: 50 * time.Millisecond})
	events := streamEventsFixture()
	postIngest(t, ts.URL, "w1", events[:5])

	// Seal arrives while the tail is open; the server then closes it.
	go func() {
		time.Sleep(150 * time.Millisecond)
		body, _ := stream.EncodeEvents(events)
		resp, err := http.Post(ts.URL+"/ingest/w1", "application/x-ndjson", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	text := watchCollect(t, ts.URL, "w1", "", "")
	for _, want := range []string{"id: 1\nevent: op\n", "id: 5\nevent: env\n", "id: 9\nevent: seal\n", ": heartbeat"} {
		if !strings.Contains(text, want) {
			t.Fatalf("tail missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, `"op":"op-1"`) {
		t.Fatalf("frame data missing op-1:\n%s", text)
	}

	// Resume from seq 7 via Last-Event-ID on the archived job replays
	// nothing; a fresh tail of the archived job gets one seal frame.
	text = watchCollect(t, ts.URL, "w1", "", "7")
	if strings.Contains(text, "id: 1\n") || !strings.Contains(text, "event: seal") {
		t.Fatalf("archived tail:\n%s", text)
	}
}

// TestWatchSealRace forces the interleaving behind the "stream ended
// before seal" flake instead of waiting for it: the watchRace seam runs
// between a watch handler's two reads of the live job, and the test
// lands the final batch, the seal, and finalizeStream (which retires
// the job) in exactly that window. Every tail must still end with its
// seal: the SSE tail with a seal frame, the long-poll client with a
// batch that carries the seal event before it is told to stop.
func TestWatchSealRace(t *testing.T) {
	events := streamEventsFixture()
	for _, mode := range []string{"sse", "poll"} {
		store := tempStore(t)
		metrics := NewMetrics()
		exec := NewExecutorWith(1, 4, store, metrics, ExecutorOptions{})
		srv := NewServerWith(exec, store, metrics, ServerOptions{})
		body, err := stream.EncodeEvents(events)
		if err != nil {
			t.Fatal(err)
		}
		var once sync.Once
		srv.watchRace = func() {
			once.Do(func() {
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/ingest/race", bytes.NewReader(body)))
				if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"archived"`) {
					t.Errorf("%s: sealing ingest inside the window: %d: %s", mode, rec.Code, rec.Body)
				}
			})
		}
		ts := httptest.NewServer(srv.Handler())
		postIngest(t, ts.URL, "race", events[:4])

		switch mode {
		case "sse":
			if text := watchCollect(t, ts.URL, "race", "", ""); !strings.Contains(text, "id: 9\nevent: seal\n") {
				t.Errorf("sse: tail ended without its seal frame:\n%s", text)
			}
		case "poll":
			// A client that has everything so far polls from its cursor
			// and stops on "sealed with nothing new".
			from, sawSeal := uint64(4), false
			for !sawSeal {
				code, payload := httpGet(t, fmt.Sprintf("%s/watch/race?poll=1&wait=0&from=%d", ts.URL, from))
				var batch pollResponse
				if err := json.Unmarshal(payload, &batch); err != nil || code != http.StatusOK {
					t.Fatalf("poll: %d: %v: %s", code, err, payload)
				}
				for _, e := range batch.Events {
					sawSeal = sawSeal || e.Type == stream.TypeSeal
				}
				if batch.Sealed && len(batch.Events) == 0 {
					break
				}
				from = batch.LastSeq
			}
			if !sawSeal {
				t.Errorf("poll: client was told the stream sealed before it was handed the seal event")
			}
		}
		ts.Close()
		exec.Shutdown(context.Background())
	}
}

func TestWatchResumeMidStream(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{})
	events := streamEventsFixture()
	postIngest(t, ts.URL, "w2", events[:6])
	go func() {
		time.Sleep(100 * time.Millisecond)
		body, _ := stream.EncodeEvents(events)
		resp, err := http.Post(ts.URL+"/ingest/w2", "application/x-ndjson", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	text := watchCollect(t, ts.URL, "w2", "?from=4", "")
	if strings.Contains(text, "id: 2\n") || strings.Contains(text, "id: 4\n") {
		t.Fatalf("resume replayed acked frames:\n%s", text)
	}
	for _, want := range []string{"id: 5\n", "id: 9\nevent: seal\n"} {
		if !strings.Contains(text, want) {
			t.Fatalf("resume missing %q:\n%s", want, text)
		}
	}
}

func TestWatchWindowedAggregation(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{})
	events := streamEventsFixture()
	postIngest(t, ts.URL, "w3", events[:5])
	go func() {
		time.Sleep(100 * time.Millisecond)
		body, _ := stream.EncodeEvents(events)
		resp, err := http.Post(ts.URL+"/ingest/w3", "application/x-ndjson", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	text := watchCollect(t, ts.URL, "w3", "?window=2s", "")
	if !strings.Contains(text, "event: window\n") {
		t.Fatalf("no window frames:\n%s", text)
	}
	if !strings.Contains(text, `"phases":{"Load":1}`) {
		t.Fatalf("window 0 lacks Load phase duration:\n%s", text)
	}
	if !strings.Contains(text, "event: seal\n") {
		t.Fatalf("windowed tail lacks final seal:\n%s", text)
	}
}

// TestIngestSealEndsItsBatch: a batch with an event past its seal is
// refused whole with 409, so nothing past the seal reaches the archive
// or an open tail, whose last frame is the seal.
func TestIngestSealEndsItsBatch(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{})
	events := streamEventsFixture()
	if code, _, body, _ := postIngest(t, ts.URL, "sb", events[:5]); code != http.StatusOK {
		t.Fatalf("first batch: %d: %s", code, body)
	}
	// The handler flushes its headers before any frame, so the tail is
	// subscribed once Get returns.
	resp, err := http.Get(ts.URL + "/watch/sb")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	late := stream.Event{Seq: 10, Type: "info", Time: 6, Op: "op-1", Key: "late", Value: "x"}
	if code, _, body, _ := postIngest(t, ts.URL, "sb", append(events[5:], late)); code != http.StatusConflict {
		t.Fatalf("batch past its seal: %d: %s", code, body)
	}
	if code, ack, body, _ := postIngest(t, ts.URL, "sb", events[5:]); code != http.StatusOK || ack.State != "archived" {
		t.Fatalf("batch ending at its seal: %d: %s", code, body)
	}
	tail, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	frames := strings.Split(strings.TrimSpace(string(tail)), "\n\n")
	if last := frames[len(frames)-1]; !strings.HasPrefix(last, "id: 9\nevent: seal\n") {
		t.Fatalf("tail ends with %q, not the seal frame:\n%s", last, tail)
	}
	if code, body, _ := getBytes(t, ts.URL+"/jobs/sb/archive"); code != http.StatusOK || bytes.Contains(body, []byte("late")) {
		t.Fatalf("archive: %d: %s", code, body)
	}
}

func TestWatchUnknownAndExecutorJobs(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{})
	if code, _, _ := getBytes(t, ts.URL+"/watch/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown watch: %d", code)
	}
}

// streamedTwin is one job served twice: server A ran it on the
// executor's batch path, server B received the identical simulation's
// live records purely through /ingest, in 64-event batches, sealed done.
type streamedTwin struct {
	tsA, tsB       *httptest.Server
	storeA, storeB *Store
	events         []stream.Event // what B ingested, seal last
}

func newStreamedTwin(t *testing.T, req JobRequest) *streamedTwin {
	t.Helper()
	// Server A: the batch path.
	storeA := tempStore(t)
	metricsA := NewMetrics()
	execA := NewExecutorWith(1, 4, storeA, metricsA, ExecutorOptions{HostParallelism: 1})
	tsA := httptest.NewServer(NewServerWith(execA, storeA, metricsA, ServerOptions{}).Handler())
	t.Cleanup(func() {
		tsA.Close()
		execA.Shutdown(context.Background())
	})
	if id := submitUntilAccepted(t, tsA.URL, req); id != req.ID {
		t.Fatalf("submit id %q", id)
	}
	if st := waitHTTPTerminal(t, tsA.URL, req.ID); st.Status != StatusDone {
		t.Fatalf("batch job: %+v", st)
	}

	// Capture the identical simulation's live records, exactly as an
	// external runner would emit them.
	ds, err := datagen.Generate(datagen.Config{
		Kind: datagen.SocialNetwork, Vertices: req.Vertices, Edges: req.Edges, Seed: 42, Directed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []stream.Event
	push := func(e stream.Event) {
		mu.Lock()
		e.Seq = uint64(len(events) + 1)
		events = append(events, e)
		mu.Unlock()
	}
	out, err := platforms.Run(platforms.Spec{
		Platform:        req.Platform,
		Algorithm:       req.Algorithm,
		Source:          datagen.PeripheralSource(ds.Graph),
		Iterations:      10,
		Dataset:         ds,
		JobID:           req.ID,
		HostParallelism: 1,
		RecordSink: func(r trace.Record) {
			push(stream.Event{Type: string(r.Event), Time: r.Time, Op: r.Op, Parent: r.Parent,
				Actor: r.Actor, Mission: r.Mission, Key: r.Key, Value: r.Value})
		},
		SampleSink: func(s envmon.Sample) {
			push(stream.Event{Type: "env", Time: s.Time, Node: s.Node, Kind: s.Kind, Used: s.Used})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	push(stream.Event{Type: stream.TypeSeal, Time: out.Runtime, Platform: out.Job.Platform, Algorithm: req.Algorithm, State: stream.StateDone})

	// Server B: the same job arrives purely through /ingest, in batches.
	tsB, storeB := streamStack(t, ServerOptions{})
	for off := 0; off < len(events); off += 64 {
		end := min(off+64, len(events))
		if code, _, body, _ := postIngest(t, tsB.URL, req.ID, events[off:end]); code != http.StatusOK {
			t.Fatalf("ingest batch at %d: %d: %s", off, code, body)
		}
	}
	return &streamedTwin{tsA: tsA, tsB: tsB, storeA: storeA, storeB: storeB, events: events}
}

// equivalent asserts that B serves job id as A does: byte-identical
// /archive and /query responses with the same strong ETag, the same
// stored summary on every field the archive holds (all but the engine's
// replication factor), and the same /query2 over job.supersteps.
func (tw *streamedTwin) equivalent(t *testing.T, id string) {
	t.Helper()
	for _, p := range []string{
		"/jobs/" + id + "/archive",
		"/jobs/" + id + "/query?q=" + url.QueryEscape(`mission = "Superstep" order by start`),
		"/jobs/" + id + "/query?mission=ProcessGraph",
	} {
		codeA, bodyA, hdrA := getBytes(t, tw.tsA.URL+p)
		codeB, bodyB, hdrB := getBytes(t, tw.tsB.URL+p)
		if codeA != http.StatusOK || codeB != http.StatusOK {
			t.Fatalf("%s: batch %d streamed %d", p, codeA, codeB)
		}
		if !bytes.Equal(bodyA, bodyB) {
			t.Fatalf("%s: streamed bytes differ from batch (%d vs %d bytes)", p, len(bodyB), len(bodyA))
		}
		if hdrA.Get("ETag") == "" || hdrA.Get("ETag") != hdrB.Get("ETag") {
			t.Fatalf("%s: ETag %q vs %q", p, hdrA.Get("ETag"), hdrB.Get("ETag"))
		}
	}
	sjA, okA := tw.storeA.get(id)
	sjB, okB := tw.storeB.get(id)
	if !okA || !okB {
		t.Fatalf("%s stored: batch %v streamed %v", id, okA, okB)
	}
	want := sjA.Summary
	want.ReplicationFactor = 0
	if !reflect.DeepEqual(sjB.Summary, want) {
		t.Fatalf("streamed summary differs from batch:\n got %+v\nwant %+v", sjB.Summary, want)
	}
	if want.Supersteps == 0 {
		t.Fatalf("batch summary counts no steps: %+v", want)
	}
	q := shard.Query2Path + "?q=" + url.QueryEscape("from jobs group by job.supersteps agg count")
	_, bodyA, _ := getBytes(t, tw.tsA.URL+q)
	if code, bodyB, _ := getBytes(t, tw.tsB.URL+q); code != http.StatusOK || !bytes.Equal(bodyA, bodyB) {
		t.Fatalf("/query2 over job.supersteps: streamed %d\n%s\nbatch\n%s", code, bodyB, bodyA)
	}
}

// TestHTTPStreamedSealEquivalence is the HTTP half of the
// seal-equivalence oracle: a job streamed through /ingest and sealed
// must serve byte-identical /archive and /query responses — including
// the strong ETag — and the same summary as the same job run by the
// executor's batch path.
func TestHTTPStreamedSealEquivalence(t *testing.T) {
	req := JobRequest{Platform: "Giraph", Algorithm: "BFS", Vertices: 300, Edges: 900, ID: "eq-job"}
	tw := newStreamedTwin(t, req)
	tsA, tsB, events := tw.tsA, tw.tsB, tw.events
	tw.equivalent(t, "eq-job")

	// The same stream under three IDs at once, each with an SSE tail
	// attached as soon as its first event has opened the job: every tail
	// must end on the seal frame and every archive must still equal the
	// batch run of that ID.
	t.Run("concurrent tails", func(t *testing.T) {
		ids := []string{"eq-c0", "eq-c1", "eq-c2"}
		for _, id := range ids {
			r := req
			r.ID = id
			submitUntilAccepted(t, tsA.URL, r)
			if st := waitHTTPTerminal(t, tsA.URL, id); st.Status != StatusDone {
				t.Fatalf("batch job: %+v", st)
			}
		}
		ingest := func(id string, evs []stream.Event) bool {
			body, err := stream.EncodeEvents(evs)
			if err != nil {
				t.Error(err)
				return false
			}
			resp, err := http.Post(tsB.URL+"/ingest/"+id, "application/x-ndjson", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return false
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("ingest %s at seq %d: %d", id, evs[0].Seq, resp.StatusCode)
			}
			return resp.StatusCode == http.StatusOK
		}
		var wg sync.WaitGroup
		for _, id := range ids {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				if !ingest(id, events[:1]) {
					return
				}
				resp, err := http.Get(tsB.URL + "/watch/" + id)
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				for off := 1; off < len(events); off += 64 {
					if !ingest(id, events[off:min(off+64, len(events))]) {
						return
					}
				}
				tail, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Errorf("tail %s: %v", id, err)
				}
				frames := strings.Split(strings.TrimSuffix(string(tail), "\n\n"), "\n\n")
				if last := frames[len(frames)-1]; !strings.HasPrefix(last, fmt.Sprintf("id: %d\nevent: seal\n", len(events))) {
					t.Errorf("tail %s ended on %q, want the seal frame", id, last)
				}
			}(id)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for _, id := range ids {
			tw.equivalent(t, id)
		}
	})
}

// TestHTTPStreamedSealSummaryEquivalence extends the oracle to the
// platforms whose steps are GAS or single-node iterations, not Pregel
// supersteps: the streamed twin reports the same step count as the
// batch run.
func TestHTTPStreamedSealSummaryEquivalence(t *testing.T) {
	for _, platform := range []string{"PowerGraph", "OpenG"} {
		t.Run(platform, func(t *testing.T) {
			id := "eq-" + strings.ToLower(platform)
			newStreamedTwin(t, JobRequest{Platform: platform, Algorithm: "BFS", Vertices: 300, Edges: 900, ID: id}).equivalent(t, id)
		})
	}
}

// failOneAppend is an archivedb.FaultInjector that fails exactly one WAL
// append once armed: the one after skip more appends pass.
type failOneAppend struct {
	mu   sync.Mutex
	skip int // appends to pass before the failing one; -1 disarmed
}

func (f *failOneAppend) arm(skip int) {
	f.mu.Lock()
	f.skip = skip
	f.mu.Unlock()
}

func (f *failOneAppend) Fail(site string) error {
	if site != "archivedb.append" {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.skip < 0:
		return nil
	case f.skip > 0:
		f.skip--
		return nil
	}
	f.skip = -1
	return errors.New("injected append failure")
}

func (f *failOneAppend) Mangle(_ string, frame []byte) ([]byte, error) { return frame, nil }

// TestSealTransientStorageErrorKeepsStream: a storage error while a
// sealed stream publishes is not the stream's fault. The seal answers
// 503 with Retry-After, the job stays live and sealed with every event
// it acked, and replaying the seal batch publishes it. Only a tree that
// cannot assemble answers 422 and retires the stream.
func TestSealTransientStorageErrorKeepsStream(t *testing.T) {
	inj := &failOneAppend{skip: -1}
	db, err := archivedb.Open(t.TempDir(), archivedb.Options{NoSync: true, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	metrics := NewMetrics()
	store, err := NewStoreWithOptions(db, StoreOptions{Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	// One attempt, so the single injected error reaches the client
	// instead of being absorbed by the publish's retry.
	exec := NewExecutorWith(1, 4, store, metrics, ExecutorOptions{Retry: RetryPolicy{Attempts: 1}})
	srv := NewServerWith(exec, store, metrics, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		exec.Shutdown(context.Background())
		store.Close()
		db.Close()
	})
	events := streamEventsFixture()

	if code, ack, body, _ := postIngest(t, ts.URL, "t1", events[:5]); code != http.StatusOK || ack.State != "streaming" {
		t.Fatalf("first batch: %d %+v: %s", code, ack, body)
	}
	// The seal batch's own append passes; the publish's append fails.
	inj.arm(1)
	code, _, body, hdr := postIngest(t, ts.URL, "t1", events)
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("seal under a storage error: %d (Retry-After %q): %s", code, hdr.Get("Retry-After"), body)
	}
	j, live := srv.streams.Get("t1")
	if !live {
		t.Fatal("stream dropped after a transient storage error")
	}
	if sealed, _ := j.Sealed(); !sealed || j.LastSeq() != 9 || len(j.EventsAfter(0)) != 9 {
		t.Fatalf("stream after 503: sealed %v, lastSeq %d, %d events", sealed, j.LastSeq(), len(j.EventsAfter(0)))
	}
	if _, stored := store.get("t1"); stored {
		t.Fatal("failed publish left the job in the store")
	}
	if code, ack, body, _ := postIngest(t, ts.URL, "t1", events[5:]); code != http.StatusOK || ack.State != "archived" {
		t.Fatalf("replayed seal batch: %d %+v: %s", code, ack, body)
	}
	if code, body, _ := getBytes(t, ts.URL+"/jobs/t1/archive"); code != http.StatusOK || !bytes.Contains(body, []byte("op-3")) {
		t.Fatalf("archive after replay: %d: %s", code, body)
	}

	// A child that outlives its parent cannot assemble: 422, retired.
	bad := []stream.Event{
		{Seq: 1, Type: "start", Time: 0, Op: "op-1", Actor: "Client", Mission: "Job"},
		{Seq: 2, Type: "start", Time: 1, Op: "op-2", Parent: "op-1", Actor: "Worker-0", Mission: "Load"},
		{Seq: 3, Type: "end", Time: 2, Op: "op-1"},
		{Seq: 4, Type: "end", Time: 3, Op: "op-2"},
		{Seq: 5, Type: stream.TypeSeal, Time: 3, Platform: "Giraph", Algorithm: "BFS", State: stream.StateDone},
	}
	if code, _, body, _ := postIngest(t, ts.URL, "t2", bad); code != http.StatusUnprocessableEntity {
		t.Fatalf("unassemblable seal: %d: %s", code, body)
	}
	if _, live := srv.streams.Get("t2"); live {
		t.Fatal("unassemblable stream still live")
	}
}

// TestStreamRestartRecovery is the chaos half: acked ingest batches
// survive a hard restart — the live job resumes exactly where it was,
// tails replay the recovered events, and the stream still seals into
// the archive.
func TestStreamRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	events := streamEventsFixture()

	open := func() (*httptest.Server, *Store, *archivedb.DB, *Executor) {
		db, err := archivedb.Open(dir, archivedb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		metrics := NewMetrics()
		store, err := NewStoreWithOptions(db, StoreOptions{Metrics: metrics})
		if err != nil {
			t.Fatal(err)
		}
		exec := NewExecutorWith(1, 4, store, metrics, ExecutorOptions{})
		ts := httptest.NewServer(NewServerWith(exec, store, metrics, ServerOptions{}).Handler())
		return ts, store, db, exec
	}
	kill := func(ts *httptest.Server, store *Store, db *archivedb.DB, exec *Executor) {
		ts.Close()
		ctx, cancel := newTimeoutCtx(10 * time.Second)
		defer cancel()
		exec.Shutdown(ctx)
		store.Close()
		db.Close()
	}

	ts1, store1, db1, exec1 := open()
	if code, ack, _, _ := postIngest(t, ts1.URL, "r1", events[:3]); code != http.StatusOK || ack.LastSeq != 3 {
		t.Fatalf("batch 1: %d %+v", code, ack)
	}
	if code, ack, _, _ := postIngest(t, ts1.URL, "r1", events[:6]); code != http.StatusOK || ack.LastSeq != 6 {
		t.Fatalf("batch 2: %d %+v", code, ack)
	}
	kill(ts1, store1, db1, exec1) // crash mid-stream, after two acks

	ts2, store2, db2, exec2 := open()
	st := getStatus(t, ts2.URL, "r1")
	if st.Status != statusStreaming || st.Stream == nil || st.Stream.LastSeq != 6 {
		t.Fatalf("recovered status: %+v", st)
	}
	// The recovered tail replays every acked event.
	go func() {
		time.Sleep(100 * time.Millisecond)
		body, _ := stream.EncodeEvents(events)
		resp, err := http.Post(ts2.URL+"/ingest/r1", "application/x-ndjson", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	text := watchCollect(t, ts2.URL, "r1", "", "")
	for _, want := range []string{"id: 1\n", "id: 6\n", "id: 9\nevent: seal\n"} {
		if !strings.Contains(text, want) {
			t.Fatalf("recovered tail missing %q:\n%s", want, text)
		}
	}
	// The watch closes on the seal frame, which the ingest handler
	// publishes just before it archives the job — give the put a moment.
	archived := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if _, ok := store2.get("r1"); ok {
			archived = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !archived {
		t.Fatal("sealed job not archived after recovery")
	}
	kill(ts2, store2, db2, exec2) // restart again: archived job back, stream batches gone

	ts3, store3, db3, exec3 := open()
	defer kill(ts3, store3, db3, exec3)
	if _, ok := store3.get("r1"); !ok {
		t.Fatal("archive lost across second restart")
	}
	if st := getStatus(t, ts3.URL, "r1"); st.Status != StatusDone {
		t.Fatalf("status after second restart: %+v", st)
	}
	for _, id := range db3.IDs() {
		if strings.HasPrefix(id, streamKeyPrefix) {
			t.Fatalf("stale stream batch %q survived archiving", id)
		}
	}
}

// TestRecoveredStreamBatchesHandedOverOnce pins that the store hands
// its recovered ingest batches to the server's replay once and then
// holds none of their payloads, while the replayed job resumes at the
// acked sequence and the next ingest persists only what is new.
func TestRecoveredStreamBatchesHandedOverOnce(t *testing.T) {
	dir := t.TempDir()
	events := streamEventsFixture()
	db, err := archivedb.Open(dir, archivedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStoreWithOptions(db, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := stream.EncodeEvents(events[:6])
	if err != nil {
		t.Fatal(err)
	}
	if err := store.appendStreamBatch("r1", 6, payload); err != nil {
		t.Fatal(err)
	}
	store.Close()
	db.Close()

	db, err = archivedb.Open(dir, archivedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	metrics := NewMetrics()
	store, err = NewStoreWithOptions(db, StoreOptions{Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if len(store.recoveredStream) != 1 {
		t.Fatalf("%d batches recovered, want 1", len(store.recoveredStream))
	}
	exec := NewExecutorWith(1, 4, store, metrics, ExecutorOptions{})
	defer exec.Shutdown(context.Background())
	srv := NewServerWith(exec, store, metrics, ServerOptions{})
	if j, live := srv.streams.Get("r1"); !live || j.LastSeq() != 6 {
		t.Fatal("recovered stream not resumed at seq 6")
	}
	if store.recoveredStream != nil {
		t.Fatalf("%d recovered batch payloads still resident after replay", len(store.recoveredStream))
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, ack, body, _ := postIngest(t, ts.URL, "r1", events[:7]); code != http.StatusOK || ack.Accepted != 1 {
		t.Fatalf("ingest after recovery: %d %+v %s", code, ack, body)
	}
	want := []string{streamBatchKey("r1", 6), streamBatchKey("r1", 7)}
	if got := db.IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stored keys %q, want %q", got, want)
	}
}

// TestStreamRecoveryDropsStrayFields pins that a batch acked and
// persisted with fields its events' types do not use (which /ingest
// once accepted and now refuses) still replays on restart: the stray
// fields are dropped, a live stream resumes and a sealed one publishes.
func TestStreamRecoveryDropsStrayFields(t *testing.T) {
	dir := t.TempDir()
	events := streamEventsFixture()
	stray := streamEventsFixture()
	stray[2].Node = "node-0"                                    // info
	stray[4].Op, stray[4].Actor, stray[4].Value = "a", "w", "x" // env
	stray[8].Node, stray[8].Used = "node-1", 2                  // seal

	db, err := archivedb.Open(dir, archivedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStoreWithOptions(db, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		id     string
		events []stream.Event
	}{{"live", stray[:6]}, {"sealed", stray}} {
		payload, err := stream.EncodeEvents(b.events)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stream.DecodeEvents(bytes.NewReader(payload)); err == nil {
			t.Fatalf("%s: /ingest would accept the stray fields", b.id)
		}
		if err := store.appendStreamBatch(b.id, uint64(len(b.events)), payload); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()
	db.Close()

	db, err = archivedb.Open(dir, archivedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	metrics := NewMetrics()
	store, err = NewStoreWithOptions(db, StoreOptions{Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	exec := NewExecutorWith(1, 4, store, metrics, ExecutorOptions{})
	defer exec.Shutdown(context.Background())
	srv := NewServerWith(exec, store, metrics, ServerOptions{})
	j, live := srv.streams.Get("live")
	if !live {
		t.Fatal("live stream with stray fields dropped on recovery")
	}
	if got := j.EventsAfter(0); !reflect.DeepEqual(got, events[:6]) {
		t.Fatalf("recovered events %+v, want %+v", got, events[:6])
	}
	if _, ok := store.get("sealed"); !ok {
		t.Fatal("sealed stream with stray fields not published on recovery")
	}
}

func TestStoreStreamBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := archivedb.Open(dir, archivedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStoreWithOptions(db, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		id   string
		seq  uint64
		data string
	}{{"j1", 4, "a"}, {"j1", 9, "b"}, {"j2", 3, "c"}} {
		if err := store.appendStreamBatch(b.id, b.seq, []byte(b.data)); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()
	db.Close()

	db2, err := archivedb.Open(dir, archivedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store2, err := NewStoreWithOptions(db2, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := store2.takeRecoveredStreams()
	if len(got) != 3 {
		t.Fatalf("recovered %d batches, want 3: %+v", len(got), got)
	}
	want := []streamBatch{
		{JobID: "j1", LastSeq: 4, Payload: []byte("a")},
		{JobID: "j1", LastSeq: 9, Payload: []byte("b")},
		{JobID: "j2", LastSeq: 3, Payload: []byte("c")},
	}
	for i, w := range want {
		g := got[i]
		if g.JobID != w.JobID || g.LastSeq != w.LastSeq || !bytes.Equal(g.Payload, w.Payload) {
			t.Fatalf("batch %d = %+v, want %+v", i, g, w)
		}
	}
	if err := store2.deleteStreamBatches("j1"); err != nil {
		t.Fatal(err)
	}
	store2.Close()
	db2.Close()

	db3, err := archivedb.Open(dir, archivedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store3, err := NewStoreWithOptions(db3, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		store3.Close()
		db3.Close()
	}()
	got = store3.takeRecoveredStreams()
	if len(got) != 1 || got[0].JobID != "j2" {
		t.Fatalf("after delete: %+v", got)
	}
}

// TestExecutorJobsStreamLive pins the in-process emitter hooks: a job
// run by the executor streams its own supersteps, so /watch tails it
// and ends with a seal frame once it completes.
func TestExecutorJobsStreamLive(t *testing.T) {
	streams := stream.NewManager(stream.Config{})
	store := tempStore(t)
	metrics := NewMetrics()
	exec := NewExecutorWith(1, 4, store, metrics, ExecutorOptions{Streams: streams, HostParallelism: 1})
	ts := httptest.NewServer(NewServerWith(exec, store, metrics, ServerOptions{Streams: streams}).Handler())
	defer ts.Close()
	defer exec.Shutdown(context.Background())

	id := submitUntilAccepted(t, ts.URL, JobRequest{Platform: "Giraph", Algorithm: "BFS", Vertices: 300, Edges: 900})

	// Attach whenever possible: before the run opens the stream the
	// watch answers 409 (queued) — poll through it. Whether the tail
	// catches the job live or already archived, it must end in a seal.
	deadline := time.Now().Add(30 * time.Second)
	var text string
	for {
		req, _ := http.NewRequest("GET", ts.URL+"/watch/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			text = string(body)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watch never attached: %d: %s", resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(text, "event: seal") {
		t.Fatalf("executor tail lacks seal:\n%s", text)
	}
	if st := waitHTTPTerminal(t, ts.URL, id); st.Status != StatusDone {
		t.Fatalf("job: %+v", st)
	}
	if streams.Live() != 0 {
		t.Fatalf("%d live jobs leaked after completion", streams.Live())
	}
	if code, _, _ := getBytes(t, ts.URL+"/jobs/"+id+"/archive"); code != http.StatusOK {
		t.Fatalf("archive: %d", code)
	}
}

func TestStreamMetricsExposed(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{})
	events := streamEventsFixture()
	postIngest(t, ts.URL, "m1", events[:5])
	postIngest(t, ts.URL, "m1", events[3:5]) // pure replay still counts a batch

	_, body, _ := getBytes(t, ts.URL+"/metrics")
	wantSamples(t, body,
		"granula_stream_ingest_batches_total 2",
		"granula_stream_ingest_events_total 5",
		"granula_stream_live_jobs 1",
	)
}
