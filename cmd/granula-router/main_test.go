package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/archivedb"
	"repro/internal/service"
	"repro/internal/shard"
)

// TestFlagSurface pins the command line: a new flag is one more
// configuration for every ablation to cover, so adding one must show up
// as a reviewed change to this list.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "heartbeat-interval", "map-version", "quorum",
		"repair-every", "replication", "retry-budget", "shards",
	}
	var usage bytes.Buffer
	parseFlags([]string{"-h"}, &usage)
	var got []string
	for _, line := range strings.Split(usage.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("granula-router -h lists %d flags:\n%v\nwant %d:\n%v", len(got), got, len(want), want)
	}
}

func TestParseFlagsDefaults(t *testing.T) {
	var buf bytes.Buffer
	cfg, err := parseFlags([]string{"-shards", "s1=http://h1:1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":8080" || cfg.replication != 0 || cfg.quorum != 0 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.mapVersion != 1 || cfg.repairEvery != 16 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestParseFlagsRejectsBadCombos(t *testing.T) {
	var buf bytes.Buffer
	if _, err := parseFlags(nil, &buf); err == nil {
		t.Fatal("parseFlags accepted a router without a shard map")
	}
	if _, err := parseFlags([]string{"-shards", "s1=http://h1:1", "-repair-every", "-1"}, &buf); err == nil {
		t.Fatal("parseFlags accepted a negative repair interval")
	}
	if _, err := parseFlags([]string{"-shards", "s1=http://h1:1", "extra"}, &buf); err == nil {
		t.Fatal("parseFlags accepted positional arguments")
	}
	if code := run(context.Background(), []string{"-shards", "bogus"}, &buf); code != 2 {
		t.Fatalf("run with a malformed -shards = %d, want exit code 2", code)
	}
	// A quorum larger than the replica set cannot be satisfied.
	if code := run(context.Background(), []string{"-shards", "s1=http://h1:1,s2=http://h2:1", "-quorum", "3"}, &buf); code != 2 {
		t.Fatalf("run with quorum > replication = %d, want exit code 2", code)
	}
}

// TestLoadMapFromShards: the router's map is the one granula-serve
// builds from the same list as -peers, with the same R, W and version,
// so both sides place every job on one ring.
func TestLoadMapFromShards(t *testing.T) {
	const list = "s1=http://h1:1,s2=http://h2:1,s3=http://h3:1"
	var buf bytes.Buffer
	cfg, err := parseFlags([]string{"-shards", list, "-replication", "3", "-quorum", "2", "-map-version", "7"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := loadMap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 3 || m.Replication != 3 || m.WriteQuorum != 2 || m.Version != 7 {
		t.Fatalf("map from -shards wrong: %+v", m)
	}
	nodes, err := shard.ParseNodes(list)
	if err != nil {
		t.Fatal(err)
	}
	peers, err := shard.NewMap(7, nodes, 3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(m)
	want, _ := json.Marshal(peers)
	if !bytes.Equal(got, want) {
		t.Fatalf("router map differs from the shards' map:\n%s\n%s", got, want)
	}
}

// TestRetiredFlagsExitTwo: the router's ring is the shards' ring and it
// always routes around dead shards, so -vnodes, -map and -no-detector
// are usage errors. The context is already cancelled, so a router that
// accepted one would exit 0 at once.
func TestRetiredFlagsExitTwo(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, extra := range [][]string{{"-vnodes", "7"}, {"-map", "f.json"}, {"-no-detector"}} {
		var buf bytes.Buffer
		args := append([]string{"-addr", "127.0.0.1:0", "-shards", "s1=http://h1:1"}, extra...)
		if code := run(ctx, args, &buf); code != 2 {
			t.Errorf("granula-router %v exited %d, want 2", extra, code)
		}
	}
}

func TestParseFlagsSelfHealing(t *testing.T) {
	var buf bytes.Buffer
	// Defaults: budget and probe period at their package defaults
	// (signalled by zero values).
	cfg, err := parseFlags([]string{"-shards", "s1=http://h1:1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.retryBudget != 0 || cfg.probeEvery != 0 {
		t.Fatalf("self-healing defaults wrong: %+v", cfg)
	}

	cfg, err = parseFlags([]string{
		"-shards", "s1=http://h1:1",
		"-retry-budget", "-1",
		"-heartbeat-interval", "250ms",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.retryBudget != -1 || cfg.probeEvery != 250*time.Millisecond {
		t.Fatalf("self-healing flags wrong: %+v", cfg)
	}

	// A malformed probe period is a parse error, not a silent default.
	if _, err := parseFlags([]string{"-shards", "s1=http://h1:1", "-heartbeat-interval", "soon"}, &buf); err == nil {
		t.Fatal("parseFlags accepted a malformed -heartbeat-interval")
	}
}

// syncLog is run's stderr: safe to read while run is still writing.
type syncLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// TestRouterServeSmoke boots the same run(ctx, …) main does on
// 127.0.0.1:0 in front of one in-process shard, runs the operator's
// loop through it — submit, poll until done, read the archive — and
// stops it the way SIGTERM does: cancel, exit 0.
func TestRouterServeSmoke(t *testing.T) {
	db, err := archivedb.Open(t.TempDir(), archivedb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	store, err := service.NewStoreWithOptions(db, service.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	metrics := service.NewMetrics()
	exec := service.NewExecutorWith(2, 8, store, metrics, service.ExecutorOptions{})
	backend := httptest.NewServer(service.NewServerWith(exec, store, metrics, service.ServerOptions{}).Handler())
	defer func() {
		backend.Close()
		exec.Shutdown(context.Background())
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	log := &syncLog{}
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-addr", "127.0.0.1:0", "-shards", "s1=" + backend.URL, "-heartbeat-interval", "20ms"}, log)
	}()
	listening := regexp.MustCompile(`listening on (\S+)`)
	var base string
	for deadline := time.Now().Add(30 * time.Second); base == ""; time.Sleep(time.Millisecond) {
		if m := listening.FindStringSubmatch(log.String()); m != nil {
			base = "http://" + m[1]
		} else if len(exit) > 0 || time.Now().After(deadline) {
			t.Fatalf("run never listened:\n%s", log)
		}
	}

	// One connection per request: Shutdown gives a parked, never-used
	// keep-alive connection five seconds, which is not what is timed here.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	do := func(method, url, body string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", method, url, err, log)
		}
		defer resp.Body.Close()
		buf, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, buf
	}
	if resp, body := do("POST", base+"/jobs", `{"platform":"Giraph","algorithm":"BFS","vertices":500,"edges":2000,"id":"j1"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit through the router: %d: %s", resp.StatusCode, body)
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		_, body := do("GET", base+"/jobs/j1", "")
		var st struct {
			Status string `json:"status"`
		}
		json.Unmarshal(body, &st)
		if st.Status == "done" {
			break
		}
		if st.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("job is %q: %s", st.Status, body)
		}
	}
	resp, routed := do("GET", base+"/jobs/j1/archive", "")
	_, direct := do("GET", backend.URL+"/jobs/j1/archive", "")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(routed, direct) || len(routed) == 0 {
		t.Fatalf("archive through the router: %d, %d bytes, the shard serves %d", resp.StatusCode, len(routed), len(direct))
	}
	if got := resp.Header.Get(shard.ShardHeader); got != "s1" {
		t.Fatalf("%s = %q, want s1", shard.ShardHeader, got)
	}

	start := time.Now()
	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("run exited %d, want 0:\n%s", code, log)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("run did not return after cancel:\n%s", log)
	}
	if took := time.Since(start); took > shutdownGrace/2 {
		t.Errorf("idle shutdown took %v", took)
	}
	if !strings.Contains(log.String(), "shutting down") {
		t.Fatalf("shutdown log:\n%s", log)
	}
}
