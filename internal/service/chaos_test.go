package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/archivedb"
	"repro/internal/faults"
)

func newTimeoutCtx(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// chaosStack is one fully wired service instance under fault injection:
// injector, durable DB, store with a fast breaker, hardened executor,
// and HTTP server.
type chaosStack struct {
	inj     *faults.Injector
	db      *archivedb.DB
	store   *Store
	exec    *Executor
	metrics *Metrics
	ts      *httptest.Server
}

// chaosInjector parses a faults spec (the -chaos flag's syntax).
func chaosInjector(t *testing.T, spec string) *faults.Injector {
	t.Helper()
	inj, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func startChaosStack(t *testing.T, dir string, spec string) *chaosStack {
	t.Helper()
	inj := chaosInjector(t, spec)
	db, err := archivedb.Open(dir, archivedb.Options{NoSync: true, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	metrics := NewMetrics()
	store, err := NewStoreWithOptions(db, StoreOptions{
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
		ProbeInterval:    10 * time.Millisecond,
		Metrics:          metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutorWith(4, 32, store, metrics, ExecutorOptions{
		Faults: inj,
		Retry:  RetryPolicy{Attempts: 3, Base: time.Millisecond, Max: 10 * time.Millisecond},
	})
	srv := NewServerWith(exec, store, metrics, ServerOptions{Faults: inj})
	s := &chaosStack{inj: inj, db: db, store: store, exec: exec, metrics: metrics,
		ts: httptest.NewServer(srv.Handler())}
	t.Cleanup(func() { s.stop(t) })
	return s
}

func (s *chaosStack) stop(t *testing.T) {
	t.Helper()
	if s.ts == nil {
		return
	}
	ctx, cancel := newTimeoutCtx(60 * time.Second)
	defer cancel()
	s.exec.Shutdown(ctx)
	s.ts.Close()
	s.store.Close()
	s.db.Close()
	s.ts = nil
}

// smallJob is a request sized so a chaos run finishes in seconds.
func smallJob(seed int64) JobRequest {
	return JobRequest{Platform: "Giraph", Algorithm: "BFS", Vertices: 120, Edges: 480, Seed: seed}
}

func postJSON(t *testing.T, url string, v any) (int, []byte, http.Header) {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header
}

func getStatus(t *testing.T, base, id string) JobState {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %s: %s", id, resp.Status, body)
	}
	var st JobState
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("GET /jobs/%s: %v: %s", id, err, body)
	}
	return st
}

func waitHTTPTerminal(t *testing.T, base, id string) JobState {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		switch st.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return JobState{}
}

// TestChaosStormAndRecovery is the headline chaos scenario: concurrent
// clients submit, poll, and query while storage appends and reads fail,
// tear, and lag, and the HTTP submit/query handlers error. The server
// must never crash, every job acked done must have a readable archive
// that also survives a restart, and after the fault source clears the
// breaker must close and new jobs must complete.
func TestChaosStormAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s := startChaosStack(t, dir, "rate=0,seed=7,latency=200us,kinds=error+latency+torn,"+
		"sites=archivedb.append:0.35+archivedb.read:0.05+http.submit:0.1+http.query:0.1")

	const clients, jobsPerClient = 3, 4
	var (
		mu  sync.Mutex
		ids []string
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for j := 0; j < jobsPerClient; j++ {
				req := smallJob(int64(c*100 + j))
				var id string
				for attempt := 0; attempt < 200; attempt++ {
					code, body, _ := postJSON(t, s.ts.URL+"/jobs", req)
					if code == http.StatusAccepted {
						var sub submitResponse
						if err := json.Unmarshal(body, &sub); err != nil {
							t.Errorf("bad 202 body: %v: %s", err, body)
							return
						}
						id = sub.ID
						break
					}
					// Injected handler faults (500), shed load (429), and
					// degraded mode (503) are all legitimate under chaos;
					// anything else is a bug.
					if code != http.StatusInternalServerError &&
						code != http.StatusTooManyRequests &&
						code != http.StatusServiceUnavailable {
						t.Errorf("submit: unexpected status %d: %s", code, body)
						return
					}
					time.Sleep(time.Duration(5+rng.Intn(20)) * time.Millisecond)
				}
				if id == "" {
					t.Errorf("client %d: submit never accepted", c)
					return
				}
				mu.Lock()
				ids = append(ids, id)
				mu.Unlock()
				st := waitHTTPTerminal(t, s.ts.URL, id)
				if st.Status == StatusDone {
					// Query the archive while faults are still firing;
					// injected read errors (500) are tolerated.
					resp, err := http.Get(s.ts.URL + "/jobs/" + id + "/query?mission=ProcessGraph")
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
						t.Errorf("query: unexpected status %d", resp.StatusCode)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The fault source clears; the service must recover on its own.
	s.inj.Disarm()
	waitBreakerClosed(t, s.store)

	// A fresh submission must now complete end to end.
	recID := submitUntilAccepted(t, s.ts.URL, smallJob(999))
	if st := waitHTTPTerminal(t, s.ts.URL, recID); st.Status != StatusDone {
		t.Fatalf("post-recovery job is %s (%s), want done", st.Status, st.Error)
	}

	// Every job acked done has a readable archive, now that reads are
	// fault-free.
	var doneIDs []string
	for _, id := range append(ids, recID) {
		st := getStatus(t, s.ts.URL, id)
		if st.Status != StatusDone {
			continue
		}
		doneIDs = append(doneIDs, id)
		resp, err := http.Get(s.ts.URL + "/jobs/" + id + "/archive")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("done job %s has no archive: %s: %s", id, resp.Status, body)
		}
		a, err := archive.Load(bytes.NewReader(body))
		if err != nil || len(a.Jobs) != 1 {
			t.Fatalf("done job %s archive is unreadable: %v", id, err)
		}
	}
	if len(doneIDs) == 0 {
		t.Fatal("chaos storm completed zero jobs; the scenario tested nothing")
	}

	// Retries must have fired (appends failed at 35% with 3 attempts).
	if counterValue(t, s.metrics, "granula_retries_total") == 0 {
		t.Error("no persistence retries recorded under a 35% append fault rate")
	}

	// No lost acked archive: restart over the same directory (no faults)
	// and require every done job to be restored.
	s.stop(t)
	db2, err := archivedb.Open(dir, archivedb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	store2, err := NewStoreWithOptions(db2, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	for _, id := range doneIDs {
		if _, ok := store2.get(id); !ok {
			t.Fatalf("acked job %s lost across restart", id)
		}
	}
}

func submitUntilAccepted(t *testing.T, base string, req JobRequest) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body, _ := postJSON(t, base+"/jobs", req)
		if code == http.StatusAccepted {
			var sub submitResponse
			if err := json.Unmarshal(body, &sub); err != nil {
				t.Fatalf("bad 202 body: %v: %s", err, body)
			}
			return sub.ID
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("submit never accepted")
	return ""
}

func waitBreakerClosed(t *testing.T, store *Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if store.breaker.current() == breakerClosed {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("breaker did not close after faults cleared (state %v)", store.breaker.current())
}

// appendFaults is an archivedb.FaultInjector that counts WAL appends
// and fails every one of them while failing is set.
type appendFaults struct {
	failing atomic.Bool
	appends atomic.Int64
}

func (f *appendFaults) Fail(site string) error {
	if site != "archivedb.append" {
		return nil
	}
	f.appends.Add(1)
	if f.failing.Load() {
		return errors.New("injected append failure")
	}
	return nil
}

func (f *appendFaults) Mangle(_ string, frame []byte) ([]byte, error) { return frame, nil }

// TestEveryWriteKindTakesTheBreaker: archives, replicas, ingest batches
// and hints all go through the store's one guarded write. One failed
// append of each kind trips a breaker of threshold four, and while it
// is open each kind answers errDegraded and appends nothing to the WAL.
func TestEveryWriteKindTakesTheBreaker(t *testing.T) {
	f := &appendFaults{}
	db, err := archivedb.Open(t.TempDir(), archivedb.Options{NoSync: true, Injector: f})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	store, err := NewStoreWithOptions(db, StoreOptions{BreakerThreshold: 4, BreakerCooldown: time.Hour, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)

	out := testOutput(t, "Giraph", "BFS")
	sum := summarize(JobRequest{Algorithm: "BFS"}, out)
	src := tempStore(t)
	if err := src.Put(out.Job, sum); err != nil {
		t.Fatal(err)
	}
	payload, version, _, err := src.export(sum.ID)
	if err != nil {
		t.Fatal(err)
	}
	writes := []struct {
		kind  string
		write func(round int) error
	}{
		{"archive", func(round int) error {
			s := sum
			s.ID = fmt.Sprintf("put-%d", round)
			return store.Put(out.Job, s)
		}},
		{"replica", func(round int) error { return store.applyReplica(fmt.Sprintf("rep-%d", round), version, payload) }},
		{"ingest batch", func(round int) error { return store.appendStreamBatch("live", uint64(round+1), []byte("{}")) }},
		{"hint", func(round int) error { return store.AppendHint(hint("s2", fmt.Sprintf("hint-%d", round), 1)) }},
	}

	f.failing.Store(true)
	for i, w := range writes {
		if err := w.write(0); err == nil || errors.Is(err, errDegraded) {
			t.Fatalf("%s with a failing append: err = %v, want the storage error", w.kind, err)
		}
		want := breakerClosed
		if i == len(writes)-1 {
			want = breakerOpen
		}
		if got := store.breaker.current(); got != want {
			t.Fatalf("after %d failed writes (last: %s) the breaker is %v, want %v", i+1, w.kind, got, want)
		}
	}
	if n := f.appends.Load(); n != int64(len(writes)) {
		t.Fatalf("%d appends for %d writes", n, len(writes))
	}

	f.failing.Store(false)
	walBytes := db.Stats().WALBytes
	for _, w := range writes {
		if err := w.write(1); !errors.Is(err, errDegraded) {
			t.Errorf("%s while the breaker is open: err = %v, want errDegraded", w.kind, err)
		}
	}
	if n := f.appends.Load(); n != int64(len(writes)) || db.Stats().WALBytes != walBytes || len(db.IDs()) != 0 {
		t.Fatalf("an open breaker let writes reach the WAL: %d appends, WAL %d -> %d bytes, records %v",
			n, walBytes, db.Stats().WALBytes, db.IDs())
	}
	if store.Len() != 0 || store.HintCount() != 0 {
		t.Fatalf("refused writes were published: %d jobs, %d hints", store.Len(), store.HintCount())
	}
}

// TestBreakerOpensAndRecoversOverHTTP drives the breaker through its
// full cycle deterministically: storage appends always fail, so one
// job's persist retries trip the breaker; the service reports degraded
// on /healthz and /metrics and sheds submits with 503 + Retry-After;
// after the faults clear, the background probe closes the breaker and
// submissions flow again — all observable through the HTTP API.
func TestBreakerOpensAndRecoversOverHTTP(t *testing.T) {
	s := startChaosStack(t, t.TempDir(), "rate=0,seed=1,sites=archivedb.append:1")

	id := submitUntilAccepted(t, s.ts.URL, smallJob(1))
	st := waitHTTPTerminal(t, s.ts.URL, id)
	if st.Status != StatusFailed {
		t.Fatalf("job with unwritable storage is %s, want failed", st.Status)
	}
	if !strings.Contains(st.Error, "persist archive") {
		t.Fatalf("failure reason does not name persistence: %q", st.Error)
	}

	// The failed persist attempts tripped the breaker (threshold 3,
	// retry attempts 3). While the probe keeps failing, submissions are
	// shed with 503; poll because the breaker briefly half-opens around
	// each probe.
	sawShed := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, body, hdr := postJSON(t, s.ts.URL+"/jobs", smallJob(2))
		if code == http.StatusServiceUnavailable {
			if hdr.Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After")
			}
			if !strings.Contains(string(body), "degraded") {
				t.Fatalf("503 body does not explain degradation: %s", body)
			}
			sawShed = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawShed {
		t.Fatal("degraded store never shed a submit with 503")
	}

	// /healthz reports degraded; /metrics reports a non-closed breaker.
	var health healthResponse
	code, body, _ := getBytes(t, s.ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.Breaker == "closed" {
		t.Fatalf("degraded service reports %+v", health)
	}
	_, metricsText, _ := getBytes(t, s.ts.URL+"/metrics")
	if !bytes.Contains(metricsText, []byte("granula_breaker_state")) {
		t.Fatalf("/metrics missing breaker gauge:\n%s", metricsText)
	}

	// Recovery: faults clear, the probe closes the breaker, a new job
	// runs to completion.
	s.inj.Disarm()
	waitBreakerClosed(t, s.store)
	recID := submitUntilAccepted(t, s.ts.URL, smallJob(3))
	if st := waitHTTPTerminal(t, s.ts.URL, recID); st.Status != StatusDone {
		t.Fatalf("post-recovery job is %s (%s), want done", st.Status, st.Error)
	}

	// The full open → half-open → closed cycle is visible in /metrics.
	_, metricsText, _ = getBytes(t, s.ts.URL+"/metrics")
	for _, state := range []string{"open", "half-open", "closed"} {
		marker := fmt.Sprintf("granula_breaker_transitions_total{state=%q}", state)
		line := metricLine(metricsText, marker)
		if line == "" || strings.HasSuffix(line, " 0") {
			t.Fatalf("breaker never transitioned to %s:\n%s", state, metricsText)
		}
	}
	if line := metricLine(metricsText, "granula_breaker_state"); !strings.HasSuffix(line, " 0") {
		t.Fatalf("recovered breaker gauge not closed: %q", line)
	}
	if line := metricLine(metricsText, "granula_shed_total"); line == "" || strings.HasSuffix(line, " 0") {
		t.Fatalf("shed counter did not move: %q", line)
	}
}

func getBytes(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header
}

// metricLine returns the first exposition line starting with prefix.
func metricLine(text []byte, prefix string) string {
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, prefix) && !strings.HasPrefix(line, "# ") {
			return line
		}
	}
	return ""
}

// counterValue reads one unlabelled counter from m's exposition.
func counterValue(t *testing.T, m *Metrics, name string) uint64 {
	t.Helper()
	var buf bytes.Buffer
	m.reg.Write(&buf)
	line := metricLine(buf.Bytes(), name+" ")
	n, err := strconv.ParseUint(strings.TrimPrefix(line, name+" "), 10, 64)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return n
}

// TestChaosPanicRecoveredInWorker injects a panic into every run: the
// job must fail with the recovered stack in its state, the process must
// survive, and the same worker must complete the next job.
func TestChaosPanicRecoveredInWorker(t *testing.T) {
	inj := chaosInjector(t, "rate=0,seed=3,kinds=panic,sites=executor.run:1")
	metrics := NewMetrics()
	exec := NewExecutorWith(1, 4, tempStore(t), metrics, ExecutorOptions{Faults: inj})
	defer func() {
		ctx, cancel := newTimeoutCtx(30 * time.Second)
		defer cancel()
		exec.Shutdown(ctx)
	}()

	id, err := exec.submit(smallJob(1))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, exec, id)
	if st.Status != StatusFailed {
		t.Fatalf("panicking job is %s, want failed", st.Status)
	}
	if !strings.Contains(st.Error, "panicked") || !strings.Contains(st.Error, siteRun) {
		t.Fatalf("failure reason does not describe the panic: %q", st.Error)
	}
	if !strings.Contains(st.Stack, "runIsolated") {
		t.Fatalf("job state has no usable stack:\n%s", st.Stack)
	}
	if counterValue(t, metrics, "granula_panics_recovered_total") == 0 {
		t.Fatal("recovered panic not counted")
	}

	// The worker survived the panic: it must run the next job.
	inj.Disarm()
	id2, err := exec.submit(smallJob(2))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, exec, id2); st.Status != StatusDone {
		t.Fatalf("job after panic is %s (%s), want done", st.Status, st.Error)
	}
}

// TestChaosHandlerPanicIsolated injects a panic into the submit
// handler: the client gets a 500, the server keeps serving.
func TestChaosHandlerPanicIsolated(t *testing.T) {
	inj := chaosInjector(t, "rate=0,seed=5,kinds=panic,sites=http.submit:1")
	metrics := NewMetrics()
	store := tempStore(t)
	exec := NewExecutorWith(1, 4, store, metrics, ExecutorOptions{Faults: inj})
	defer func() {
		ctx, cancel := newTimeoutCtx(30 * time.Second)
		defer cancel()
		exec.Shutdown(ctx)
	}()
	ts := httptest.NewServer(NewServerWith(exec, store, metrics, ServerOptions{Faults: inj}).Handler())
	defer ts.Close()

	code, body, _ := postJSON(t, ts.URL+"/jobs", smallJob(1))
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d: %s", code, body)
	}
	if code, _, _ := getBytes(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("server dead after handler panic: %d", code)
	}
	if counterValue(t, metrics, "granula_panics_recovered_total") == 0 {
		t.Fatal("recovered handler panic not counted")
	}
}

// TestChaosDeadlineFreesHungWorker injects a hang into every run; a job
// with a small deadline must fail with a timeout reason and release its
// worker for the next job.
func TestChaosDeadlineFreesHungWorker(t *testing.T) {
	inj := chaosInjector(t, "rate=0,seed=9,kinds=hang,sites=executor.run:1")
	exec := NewExecutorWith(1, 4, tempStore(t), nil, ExecutorOptions{Faults: inj})
	defer func() {
		ctx, cancel := newTimeoutCtx(30 * time.Second)
		defer cancel()
		exec.Shutdown(ctx)
	}()

	req := smallJob(1)
	req.TimeoutSeconds = 0.05
	id, err := exec.submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, exec, id)
	if st.Status != StatusFailed {
		t.Fatalf("hung job is %s, want failed", st.Status)
	}
	if !strings.Contains(st.Error, "timeout") || !strings.Contains(st.Error, "0.05s deadline") {
		t.Fatalf("failure reason is not a timeout: %q", st.Error)
	}

	// The single worker is free again: a fault-free job completes.
	inj.Disarm()
	id2, err := exec.submit(smallJob(2))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, exec, id2); st.Status != StatusDone {
		t.Fatalf("job after hung job is %s (%s), want done", st.Status, st.Error)
	}
}

// TestChaosDefaultTimeoutApplied: the executor's DefaultTimeout bounds
// jobs that carry no deadline of their own.
func TestChaosDefaultTimeoutApplied(t *testing.T) {
	inj := chaosInjector(t, "rate=0,seed=2,kinds=hang,sites=executor.run:1")
	exec := NewExecutorWith(1, 4, tempStore(t), nil, ExecutorOptions{
		Faults:         inj,
		DefaultTimeout: 50 * time.Millisecond,
	})
	defer func() {
		ctx, cancel := newTimeoutCtx(30 * time.Second)
		defer cancel()
		exec.Shutdown(ctx)
	}()
	id, err := exec.submit(smallJob(1))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, exec, id)
	if st.Status != StatusFailed || !strings.Contains(st.Error, "timeout") {
		t.Fatalf("default deadline not applied: %s %q", st.Status, st.Error)
	}
}

// TestChaosCancelFreesQueueSlotUnderLoad is the admission-control
// regression test: with the single worker wedged, canceling a queued
// job must free its queue slot for a new submission immediately.
func TestChaosCancelFreesQueueSlotUnderLoad(t *testing.T) {
	inj := chaosInjector(t, "rate=0,seed=4,kinds=hang,sites=executor.run:1")
	metrics := NewMetrics()
	store := tempStore(t)
	exec := NewExecutorWith(1, 2, store, metrics, ExecutorOptions{Faults: inj})
	ts := httptest.NewServer(NewServerWith(exec, store, metrics, ServerOptions{}).Handler())
	defer ts.Close()

	// First job occupies the worker (hangs until shutdown); wait for it
	// to leave the queue so the capacity math below is exact.
	runningID := submitUntilAccepted(t, ts.URL, smallJob(1))
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts.URL, runningID).Status != statusRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Fill the queue (capacity 2), then overflow: 429 + Retry-After.
	q1 := submitUntilAccepted(t, ts.URL, smallJob(2))
	_ = submitUntilAccepted(t, ts.URL, smallJob(3))
	code, body, hdr := postJSON(t, ts.URL+"/jobs", smallJob(4))
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit answered %d: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if counterValue(t, metrics, "granula_shed_total") == 0 {
		t.Fatal("shed submit not counted")
	}

	// Cancel a queued job over HTTP; its slot must be free immediately —
	// the wedged worker can never reach it to skip it.
	reqDel, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+q1, nil)
	resp, err := http.DefaultClient.Do(reqDel)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel answered %d", resp.StatusCode)
	}
	code, body, _ = postJSON(t, ts.URL+"/jobs", smallJob(5))
	if code != http.StatusAccepted {
		t.Fatalf("submit after cancel answered %d (slot not freed): %s", code, body)
	}

	// Shutdown with a short drain: the hung job is aborted, nothing is
	// left queued or running.
	ctx, cancel := newTimeoutCtx(200 * time.Millisecond)
	defer cancel()
	exec.Shutdown(ctx)
	for _, st := range exec.listStates() {
		if st.Status == statusQueued || st.Status == statusRunning {
			t.Fatalf("job %s left %s after Shutdown", st.ID, st.Status)
		}
	}
}

// TestChaosShutdownDrainsUnderFaults: with storage appends failing half
// the time, Shutdown must still drain every job to a terminal state.
func TestChaosShutdownDrainsUnderFaults(t *testing.T) {
	dir := t.TempDir()
	inj := chaosInjector(t, "rate=0,seed=11,kinds=error+torn,sites=archivedb.append:0.5")
	db, err := archivedb.Open(dir, archivedb.Options{NoSync: true, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	store, err := NewStoreWithOptions(db, StoreOptions{
		BreakerThreshold: 100, // keep the breaker out of this scenario
		ProbeInterval:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	exec := NewExecutorWith(2, 8, store, nil, ExecutorOptions{
		Faults: inj,
		Retry:  RetryPolicy{Attempts: 2, Base: time.Millisecond, Max: 5 * time.Millisecond},
	})
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := exec.submit(smallJob(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ctx, cancel := newTimeoutCtx(60 * time.Second)
	defer cancel()
	if err := exec.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	done := 0
	for _, id := range ids {
		st, _ := exec.jobState(id)
		switch st.Status {
		case StatusDone:
			done++
		case StatusFailed:
			// acceptable: persistence lost the retry lottery
		default:
			t.Fatalf("job %s left %s after a clean drain", id, st.Status)
		}
	}
	if done == 0 {
		t.Fatal("no job survived a 50% append fault rate with retries; retry path is broken")
	}
}

// TestSubmitBodyTooLarge: oversized POST bodies are rejected with 413
// before they are buffered.
func TestSubmitBodyTooLarge(t *testing.T) {
	metrics := NewMetrics()
	store := tempStore(t)
	exec := NewExecutorWith(1, 4, store, metrics, ExecutorOptions{})
	defer func() {
		ctx, cancel := newTimeoutCtx(30 * time.Second)
		defer cancel()
		exec.Shutdown(ctx)
	}()
	ts := httptest.NewServer(NewServerWith(exec, store, metrics, ServerOptions{}).Handler())
	defer ts.Close()

	huge := append([]byte(`{"platform":"`), bytes.Repeat([]byte("x"), maxSubmitBytes+1)...)
	huge = append(huge, []byte(`"}`)...)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit answered %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "exceeds") {
		t.Fatalf("413 body does not explain the limit: %s", body)
	}

	// /diff shares the cap.
	resp, err = http.Post(ts.URL+"/diff", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized diff answered %d", resp.StatusCode)
	}
}
