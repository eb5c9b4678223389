package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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
		"addr", "heartbeat-interval", "map", "map-version", "no-detector",
		"quorum", "repair-every", "replication", "retry-budget", "shards",
		"vnodes",
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
	if cfg.addr != ":8080" || cfg.replication != 0 || cfg.quorum != 0 || cfg.vnodes != 0 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.mapVersion != 1 || cfg.repairEvery != 16 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestParseFlagsRejectsBadCombos(t *testing.T) {
	var buf bytes.Buffer
	// Neither -shards nor -map.
	if _, err := parseFlags(nil, &buf); err == nil {
		t.Fatal("parseFlags accepted a router without a shard map")
	}
	// Both at once.
	if _, err := parseFlags([]string{"-shards", "s1=http://h1:1", "-map", "m.json"}, &buf); err == nil {
		t.Fatal("parseFlags accepted -shards and -map together")
	}
	if _, err := parseFlags([]string{"-shards", "s1=http://h1:1", "-repair-every", "-1"}, &buf); err == nil {
		t.Fatal("parseFlags accepted a negative repair interval")
	}
	if _, err := parseFlags([]string{"-shards", "s1=http://h1:1", "extra"}, &buf); err == nil {
		t.Fatal("parseFlags accepted positional arguments")
	}
	if code := run([]string{"-shards", "bogus"}, &buf); code != 2 {
		t.Fatalf("run with a malformed -shards = %d, want exit code 2", code)
	}
	// A quorum larger than the replica set cannot be satisfied.
	if code := run([]string{"-shards", "s1=http://h1:1,s2=http://h2:1", "-quorum", "3"}, &buf); code != 2 {
		t.Fatalf("run with quorum > replication = %d, want exit code 2", code)
	}
}

func TestLoadMapFromFlagAndFile(t *testing.T) {
	var buf bytes.Buffer
	cfg, err := parseFlags([]string{
		"-shards", "s1=http://h1:1,s2=http://h2:1,s3=http://h3:1",
		"-replication", "3", "-quorum", "2", "-map-version", "7",
	}, &buf)
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

	// The same map via a JSON file round-trips.
	path := filepath.Join(t.TempDir(), "map.json")
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg2, err := parseFlags([]string{"-map", path}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := loadMap(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Shards) != 3 || m2.Replication != 3 || m2.WriteQuorum != 2 || m2.Version != 7 {
		t.Fatalf("map from -map file wrong: %+v", m2)
	}
	if m.Ring().Primary("job-0001") != m2.Ring().Primary("job-0001") {
		t.Fatal("flag-built and file-built maps disagree on placement")
	}
}

func TestParseFlagsSelfHealing(t *testing.T) {
	var buf bytes.Buffer
	// Defaults: detector on, budget and probe period at their package
	// defaults (signalled by zero values).
	cfg, err := parseFlags([]string{"-shards", "s1=http://h1:1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.retryBudget != 0 || cfg.probeEvery != 0 || cfg.noDetector {
		t.Fatalf("self-healing defaults wrong: %+v", cfg)
	}

	cfg, err = parseFlags([]string{
		"-shards", "s1=http://h1:1",
		"-retry-budget", "-1",
		"-heartbeat-interval", "250ms",
		"-no-detector",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.retryBudget != -1 || cfg.probeEvery != 250*time.Millisecond || !cfg.noDetector {
		t.Fatalf("self-healing flags wrong: %+v", cfg)
	}

	// A malformed probe period is a parse error, not a silent default.
	if _, err := parseFlags([]string{"-shards", "s1=http://h1:1", "-heartbeat-interval", "soon"}, &buf); err == nil {
		t.Fatal("parseFlags accepted a malformed -heartbeat-interval")
	}
}
