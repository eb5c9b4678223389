package main

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestFlagSurface pins the command line: a new flag is one more
// configuration for every ablation to cover, so adding one must show up
// as a reviewed change to this list.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "anti-entropy", "chaos", "commit-window", "data-dir", "drain",
		"heartbeat-interval", "hint-drain", "job-timeout", "map-version",
		"max-live-jobs", "no-sync", "parallelism", "peers", "pprof-addr",
		"queue", "quorum", "replication", "self-heal", "shard-id",
		"watch-heartbeat", "workers",
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
		t.Fatalf("granula-serve -h lists %d flags:\n%v\nwant %d:\n%v", len(got), got, len(want), want)
	}
}

func TestParseFlagsDefaults(t *testing.T) {
	var buf bytes.Buffer
	cfg, err := parseFlags(nil, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":8080" || cfg.workers != 4 || cfg.queueCap != 64 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.dataDir != "" || cfg.noSync {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.drain != 30*time.Second {
		t.Fatalf("drain default = %v", cfg.drain)
	}
	if cfg.chaos != "" || cfg.jobTimeout != 0 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.commitWindow != 0 || cfg.pprofAddr != "" {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestParseFlagsChaos(t *testing.T) {
	var buf bytes.Buffer
	cfg, err := parseFlags([]string{
		"-chaos", "rate=0.1,seed=7,kinds=error+torn", "-job-timeout", "90s",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.chaos != "rate=0.1,seed=7,kinds=error+torn" || cfg.jobTimeout != 90*time.Second {
		t.Fatalf("parsed config wrong: %+v", cfg)
	}
	// A malformed spec is rejected at parse time, before anything starts.
	if _, err := parseFlags([]string{"-chaos", "rate=2"}, &buf); err == nil {
		t.Fatal("parseFlags accepted a fault rate above 1")
	}
	if _, err := parseFlags([]string{"-chaos", "bogus"}, &buf); err == nil {
		t.Fatal("parseFlags accepted a malformed chaos spec")
	}
	if code := run(context.Background(), []string{"-chaos", "bogus"}, &buf); code != 2 {
		t.Fatalf("run with bad -chaos = %d, want exit code 2", code)
	}
}

func TestParseFlagsValues(t *testing.T) {
	var buf bytes.Buffer
	cfg, err := parseFlags([]string{
		"-addr", ":9999", "-workers", "2", "-queue", "8",
		"-data-dir", "/tmp/x", "-no-sync", "-drain", "5s",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":9999" || cfg.workers != 2 || cfg.queueCap != 8 ||
		cfg.dataDir != "/tmp/x" || !cfg.noSync || cfg.drain != 5*time.Second {
		t.Fatalf("parsed config wrong: %+v", cfg)
	}
}

func TestParseFlagsHotPath(t *testing.T) {
	var buf bytes.Buffer
	cfg, err := parseFlags([]string{
		"-commit-window", "2ms", "-pprof-addr", "127.0.0.1:0",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.commitWindow != 2*time.Millisecond || cfg.pprofAddr != "127.0.0.1:0" {
		t.Fatalf("parsed config wrong: %+v", cfg)
	}
}

func TestParseFlagsErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-workers", "notanumber"},
		{"stray-positional"},
		{"-commit-window", "-5ms"},
	} {
		var buf bytes.Buffer
		if _, err := parseFlags(args, &buf); err == nil {
			t.Fatalf("parseFlags(%v) accepted bad input", args)
		}
		if code := run(context.Background(), args, &buf); code != 2 {
			t.Fatalf("run(%v) = %d, want exit code 2", args, code)
		}
	}
}

func TestParseFlagsCluster(t *testing.T) {
	var buf bytes.Buffer
	cfg, err := parseFlags([]string{
		"-shard-id", "s1",
		"-peers", "s1=http://h1:1,s2=http://h2:1,s3=http://h3:1",
		"-replication", "3", "-quorum", "2",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.shardID != "s1" || cfg.replication != 3 || cfg.quorum != 2 {
		t.Fatalf("cluster flags wrong: %+v", cfg)
	}
	if cfg.mapVersion != 1 {
		t.Fatalf("cluster flags wrong: %+v", cfg)
	}
	// -shard-id and -peers only make sense together.
	if _, err := parseFlags([]string{"-shard-id", "s1"}, &buf); err == nil {
		t.Fatal("parseFlags accepted -shard-id without -peers")
	}
	if _, err := parseFlags([]string{"-peers", "s1=http://h1:1"}, &buf); err == nil {
		t.Fatal("parseFlags accepted -peers without -shard-id")
	}
	// A shard ID outside the map is caught before anything starts.
	if code := run(context.Background(), []string{"-shard-id", "nope", "-peers", "s1=http://h1:1"}, &buf); code != 2 {
		t.Fatalf("run with a shard ID outside the map = %d, want exit code 2", code)
	}
}

func TestParseFlagsSelfHealing(t *testing.T) {
	var buf bytes.Buffer
	// Self-healing is on by default for clustered nodes; the periods
	// fall back to package defaults when left at zero.
	cfg, err := parseFlags([]string{
		"-shard-id", "s1", "-peers", "s1=http://h1:1,s2=http://h2:1",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.selfHeal || cfg.probeEvery != 0 || cfg.hintDrain != 0 || cfg.antiEntropy != 0 {
		t.Fatalf("self-healing defaults wrong: %+v", cfg)
	}

	cfg, err = parseFlags([]string{
		"-shard-id", "s1", "-peers", "s1=http://h1:1,s2=http://h2:1",
		"-self-heal=false",
		"-heartbeat-interval", "100ms",
		"-hint-drain", "2s",
		"-anti-entropy", "30s",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.selfHeal {
		t.Fatal("-self-heal=false did not stick")
	}
	if cfg.probeEvery != 100*time.Millisecond || cfg.hintDrain != 2*time.Second || cfg.antiEntropy != 30*time.Second {
		t.Fatalf("self-healing periods wrong: %+v", cfg)
	}

	if _, err := parseFlags([]string{
		"-shard-id", "s1", "-peers", "s1=http://h1:1", "-anti-entropy", "often",
	}, &buf); err == nil {
		t.Fatal("parseFlags accepted a malformed -anti-entropy")
	}
}
