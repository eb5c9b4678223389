package shard

import (
	"bytes"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// MetricSum totals the samples of one family in the exposition write
// produces, keeping those whose line contains every match (a rendered
// label pair such as `event="drained"`), and fails the test if there is
// no such sample: a family that is absent is not a family at zero.
// Tests in both packages read counters through it.
func MetricSum(t testing.TB, write func(io.Writer), name string, match ...string) float64 {
	t.Helper()
	var buf bytes.Buffer
	write(&buf)
	var sum float64
	found := false
lines:
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		for _, m := range match {
			if !strings.Contains(rest, m) {
				continue lines
			}
		}
		v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		sum, found = sum+v, true
	}
	if !found {
		t.Fatalf("no sample of %s%v in:\n%s", name, match, buf.String())
	}
	return sum
}

// checkGolden compares an exposition to a committed file. A change that
// means to move the exposition edits the file to match what the failing
// test prints and reviews the diff; no test writes it.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exposition differs from %s:\n%s", path, got)
	}
}

// TestMetricsGoldenShardNode pins what a cluster shard appends to
// granula-serve's /metrics, the replication and self-heal families,
// byte for byte. The .prom files in this package were written by the
// hand-rolled writers the registry replaced (see CHANGES.md, PR 19).
func TestMetricsGoldenShardNode(t *testing.T) {
	rep := newReplMetrics()
	rep.acks.With("s2").With("ok").Add(2)
	rep.acks.With("s3").With("error").Inc()
	rep.acks.With("s10").With("ok").Inc()
	rep.acks.With("s10").With("error").Inc()
	for _, seconds := range []float64{0.004, 0.3, 30} {
		rep.seconds.Observe(seconds)
	}
	rep.quorumReached.Add(2)
	rep.quorumMissed.Inc()

	sh := NewSelfHealMetrics()
	d := NewDetector(detectorMap(t, "s1", "s2", "s3"), "s1", DetectorOptions{Metrics: sh})
	defer d.Close()
	sh.SetDetector(d)
	sh.SetHintGauge(func() int { return 7 })
	for _, o := range []struct {
		node string
		ok   bool
		n    int
	}{
		{"s2", false, 4}, // up -> suspect -> down
		{"s3", false, 2}, // up -> suspect
		{"s2", true, 2},  // down -> up
		{"s2", false, 2}, // up -> suspect
	} {
		for i := 0; i < o.n; i++ {
			d.observe(o.node, o.ok)
		}
	}
	sh.probesOK.Add(4)
	sh.probesMiss.Inc()
	sh.hintsRecorded.Add(3)
	sh.hintsDrained.Inc()
	sh.hintsDrainFailed.Inc()
	sh.sweeps.Add(2)
	sh.sweepsPushed.Add(2)
	sh.sweepsPulled.Add(7)
	sh.sweepErrors.Inc()

	var buf bytes.Buffer
	rep.WritePrometheus(&buf)
	sh.WritePrometheus(&buf)
	checkGolden(t, "testdata/metrics_shard.prom", buf.Bytes())
}

// TestMetricsGoldenRouter pins granula-router's /metrics byte for byte.
func TestMetricsGoldenRouter(t *testing.T) {
	nodes := []Node{{ID: "s1", URL: "http://127.0.0.1:1"}, {ID: "s2", URL: "http://127.0.0.1:2"}, {ID: "s10", URL: "http://127.0.0.1:3"}}
	shardMap, err := NewMap(4, nodes, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := NewRouter(shardMap, RouterOptions{}).metrics
	for _, o := range []struct {
		shard   string
		seconds float64
	}{{"s2", 0.0007}, {"s2", 0.02}, {"s10", 1.5}, {"s1", 11}} {
		m.requests.With(o.shard).Inc()
		m.latency.With(o.shard).Observe(o.seconds)
	}
	m.failovers.With("s3").Add(2)
	m.failovers.With("s1").Inc()
	m.repairs.Inc()
	m.probesClean.Add(2)
	m.probesDivergent.Inc()
	m.exhausted.Inc()
	m.promotions.Add(2)

	var buf bytes.Buffer
	m.writePrometheus(&buf)
	checkGolden(t, "testdata/metrics_router.prom", buf.Bytes())
}

// gate is a scraper's io.Writer, or a sampler, that parks its caller
// until the test lets it go.
type gate struct{ entered, release chan struct{} }

func newGate() *gate { return &gate{make(chan struct{}), make(chan struct{})} }

func (g *gate) wait() {
	close(g.entered)
	<-g.release
}

func (g *gate) Write(p []byte) (int, error) {
	g.wait()
	return len(p), nil
}

// countsDuring parks one scrape at g and requires count to finish while
// it is parked there.
func countsDuring(t *testing.T, g *gate, scrape func(), count func()) {
	t.Helper()
	scraped, counted := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		scrape()
	}()
	<-g.entered
	go func() {
		defer close(counted)
		count()
	}()
	select {
	case <-counted:
	case <-time.After(10 * time.Second):
		t.Fatal("counting blocked behind a scrape in progress")
	}
	close(g.release)
	<-scraped
}

// TestScrapeNeverBlocksCounting parks a scrape of each shard-side set
// inside the scraper's Write, and one inside a sampler that waits the
// way Store.HintCount waits for the store lock, and requires the
// measured path to keep counting meanwhile: no lock is held across
// either.
func TestScrapeNeverBlocksCounting(t *testing.T) {
	rt, rep, sh := newRouterMetrics(), newReplMetrics(), NewSelfHealMetrics()
	seen := 0
	fresh := func() string { // a first-seen label value takes the insert path
		seen++
		return "s" + strconv.Itoa(seen)
	}
	for _, tc := range []struct {
		write func(io.Writer)
		count func()
	}{
		{rt.writePrometheus, func() {
			rt.requests.With("s1").Inc()
			rt.latency.With("s1").Observe(0.01)
			rt.failovers.With(fresh()).Inc()
		}},
		{rep.WritePrometheus, func() {
			rep.acks.With(fresh()).With("ok").Inc()
			rep.seconds.Observe(0.01)
		}},
		{sh.WritePrometheus, func() {
			sh.hintsRecorded.Inc()
			sh.SetHintGauge(func() int { return 0 })
		}},
	} {
		tc.count() // the parked scrape has children to render
		writer := newGate()
		countsDuring(t, writer, func() { tc.write(writer) }, tc.count)
	}

	sampler := newGate()
	sh.SetHintGauge(func() int { sampler.wait(); return 0 })
	countsDuring(t, sampler, func() { sh.WritePrometheus(io.Discard) }, func() {
		sh.hintsDrained.Inc()
		sh.SetHintGauge(func() int { return 0 })
	})
}
