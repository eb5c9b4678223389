package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// client opens one connection per request. The default transport may
// park a spare connection that never carries a request, and
// http.Server.Shutdown gives such a connection five seconds to send
// one — which would be charged to the shutdown times asserted here.
var client = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// serveLog is run's stderr in these tests: safe to read while run is
// still writing, and it hands over the bound address the moment serve
// announces it.
type serveLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
}

var listeningRE = regexp.MustCompile(`listening on (\S+)`)

func (l *serveLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if l.addr != nil {
		if m := listeningRE.FindSubmatch(l.buf.Bytes()); m != nil {
			l.addr <- string(m[1])
			l.addr = nil
		}
	}
	return len(p), nil
}

func (l *serveLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// served is one run(ctx, …) of the real command on a loopback port.
type served struct {
	base   string
	log    *serveLog
	cancel context.CancelFunc
	exit   chan int
}

// boot starts run with args on 127.0.0.1:0 — the same serve function
// main runs — and returns once it is listening.
func boot(t *testing.T, args ...string) *served {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := &served{
		log:    &serveLog{addr: make(chan string, 1)},
		cancel: cancel,
		exit:   make(chan int, 1),
	}
	addr := s.log.addr
	go func() { s.exit <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), s.log) }()
	t.Cleanup(cancel)
	select {
	case a := <-addr:
		s.base = "http://" + a
	case code := <-s.exit:
		t.Fatalf("run exited %d before listening:\n%s", code, s.log)
	case <-time.After(30 * time.Second):
		t.Fatalf("run never listened:\n%s", s.log)
	}
	return s
}

// stop cancels run's context — what SIGTERM does in main — and returns
// how long the shutdown took. run must exit 0.
func (s *served) stop(t *testing.T) time.Duration {
	t.Helper()
	start := time.Now()
	s.cancel()
	select {
	case code := <-s.exit:
		if code != 0 {
			t.Fatalf("run exited %d, want 0:\n%s", code, s.log)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("run did not return after cancel:\n%s", s.log)
	}
	return time.Since(start)
}

func (s *served) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(s.base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func (s *served) post(t *testing.T, path, body string) {
	t.Helper()
	resp, err := client.Post(s.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if payload, _ := io.ReadAll(resp.Body); resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: %d: %s", path, resp.StatusCode, payload)
	}
}

// status polls GET /jobs/{id} until the job is in one of the wanted
// states and returns the one it reached.
func (s *served) status(t *testing.T, id string, want ...string) string {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, body := s.get(t, "/jobs/"+id)
		var st struct {
			Status string `json:"status"`
		}
		json.Unmarshal(body, &st)
		for _, w := range want {
			if st.Status == w {
				return st.Status
			}
		}
		if st.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("job %s is %q, want %v: %s\n%s", id, st.Status, want, body, s.log)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runJob is the operator's loop: submit, poll until done, fetch the
// archive.
func (s *served) runJob(t *testing.T, id string) []byte {
	t.Helper()
	s.post(t, "/jobs", fmt.Sprintf(`{"platform":"Giraph","algorithm":"BFS","vertices":500,"edges":2000,"id":%q}`, id))
	s.status(t, id, "done")
	code, archive := s.get(t, "/jobs/"+id+"/archive")
	if code != http.StatusOK || !bytes.Contains(archive, []byte(id)) {
		t.Fatalf("archive of %s: %d: %.200s", id, code, archive)
	}
	return archive
}

func TestServeSmoke(t *testing.T) {
	s := boot(t, "-workers", "2")
	s.runJob(t, "j1")
	if code, body := s.get(t, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d: %s", code, body)
	}
	s.stop(t)
	if out := s.log.String(); !strings.Contains(out, "shutting down, draining jobs") || strings.Contains(out, "drain incomplete") {
		t.Fatalf("shutdown log:\n%s", out)
	}
}

// TestServeWithDataDir restarts the command over one -data-dir: the
// second process restores the first one's job and serves its bytes.
func TestServeWithDataDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "archives")
	s := boot(t, "-workers", "2", "-data-dir", dir, "-no-sync")
	first := s.runJob(t, "j1")
	s.stop(t)

	s = boot(t, "-workers", "1", "-data-dir", dir, "-no-sync")
	if !strings.Contains(s.log.String(), "(1 archived jobs restored)") {
		t.Fatalf("second run did not restore the archive:\n%s", s.log)
	}
	if code, again := s.get(t, "/jobs/j1/archive"); code != http.StatusOK || !bytes.Equal(first, again) {
		t.Fatalf("restored archive: %d, %d bytes, want the first run's %d", code, len(again), len(first))
	}
	s.stop(t)
}

// TestServeChaosSmoke arms latency-only fault injection: faults fire
// but no request can fail, so the job must still finish.
func TestServeChaosSmoke(t *testing.T) {
	s := boot(t, "-workers", "2", "-chaos", "rate=0.2,seed=7,latency=1ms,kinds=latency")
	if !strings.Contains(s.log.String(), "chaos mode") {
		t.Fatalf("chaos run did not announce its fault schedule:\n%s", s.log)
	}
	s.runJob(t, "j1")
	s.stop(t)
}

// TestServeCommitWindowPprof runs a durable job with a group-commit
// window and the profiling listener armed.
func TestServeCommitWindowPprof(t *testing.T) {
	s := boot(t, "-workers", "2", "-data-dir", filepath.Join(t.TempDir(), "archives"),
		"-commit-window", "1ms", "-pprof-addr", "127.0.0.1:0")
	if !strings.Contains(s.log.String(), "pprof on http://127.0.0.1:") {
		t.Fatalf("pprof listener did not announce itself:\n%s", s.log)
	}
	s.runJob(t, "j1")
	s.stop(t)
}

// TestServeDrainEndsLiveTails pins the drain budget to the executor:
// open /watch tails of a job that will never seal must end when
// shutdown begins, not hold http.Server.Shutdown for the whole -drain
// (30 s by default) and leave the executor none.
func TestServeDrainEndsLiveTails(t *testing.T) {
	s := boot(t)
	s.post(t, "/ingest/live", `{"seq":1,"type":"start","time":0,"op":"op-1","actor":"Client","mission":"Job"}`+"\n")

	// One SSE tail and one long-poll; each reports when its body ends.
	ended := make(chan error, 2)
	for _, path := range []string{"/watch/live", "/watch/live?poll=1&from=1&wait=60s"} {
		go func(path string) {
			resp, err := client.Get(s.base + path)
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			ended <- err
		}(path)
	}
	// Both handlers count themselves before they start waiting.
	for deadline := time.Now().Add(30 * time.Second); ; {
		if _, m := s.get(t, "/metrics"); bytes.Contains(m, []byte("granula_watch_connections_total 2\n")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the two tails never attached")
		}
	}

	if took := s.stop(t); took > 5*time.Second {
		t.Fatalf("shutdown of an idle server with open tails took %v", took)
	}
	if strings.Contains(s.log.String(), "drain incomplete") {
		t.Fatalf("idle executor did not drain:\n%s", s.log)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-ended:
			if err != nil {
				t.Errorf("tail ended with %v, want a clean end of body", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a tail is still open after run returned")
		}
	}
}

// TestServeDrainFinishesRunningJob cancels while a job is executing:
// the drain waits for it, so it ends done and durable, readable by the
// next process over the same directory.
func TestServeDrainFinishesRunningJob(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "archives")
	s := boot(t, "-workers", "1", "-data-dir", dir, "-no-sync")
	s.post(t, "/jobs", `{"platform":"Giraph","algorithm":"PageRank","vertices":20000,"edges":100000,"id":"long"}`)
	at := s.status(t, "long", "running", "done")
	s.stop(t)
	if strings.Contains(s.log.String(), "drain incomplete") {
		t.Fatalf("drain did not wait for the running job:\n%s", s.log)
	}
	if at != "running" {
		t.Logf("job was already %s at cancel; the drain had nothing to wait for", at)
	}

	s = boot(t, "-data-dir", dir, "-no-sync")
	s.status(t, "long", "done")
	if code, archive := s.get(t, "/jobs/long/archive"); code != http.StatusOK || !bytes.Contains(archive, []byte("long")) {
		t.Fatalf("archive after restart: %d: %.200s", code, archive)
	}
	s.stop(t)
}
