package service

import (
	"bytes"
	"io"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/archivedb"
	"repro/internal/metrics"
)

// wantSamples requires each line to be a sample line of the exposition,
// name, labels and value: a family that is absent is not a family at
// zero.
func wantSamples(t *testing.T, exposition []byte, lines ...string) {
	t.Helper()
	for _, line := range lines {
		if !bytes.Contains(exposition, []byte("\n"+line+"\n")) {
			t.Errorf("/metrics lacks %q:\n%s", line, exposition)
		}
	}
}

// goldenMetrics is a metrics set driven with fixed inputs: every
// counter at a distinct value, latencies in the first, a middle and the
// overflow bucket, routes out of order.
func goldenMetrics() *Metrics {
	m := NewMetrics()
	for _, o := range []struct {
		route   string
		seconds float64
	}{
		{"POST /jobs", 0.0004}, {"POST /jobs", 0.75}, {"GET /jobs/{id}", 0.002},
		{"GET /jobs/{id}", 12}, {"GET /metrics", 0.03}, {"GET /jobs/{id}/archive", 0.0005},
	} {
		m.requests.With(o.route).Observe(o.seconds)
	}
	m.jobsStarted.Add(3)
	m.jobsDone.Add(2)
	m.jobsFailed.Add(1)
	m.retries.Add(4)
	m.panics.Add(1)
	m.shed.Add(5)
	m.transitions.With(breakerOpen.String()).Add(2)
	m.transitions.With(breakerHalfOpen.String()).Add(1)
	m.transitions.With(breakerClosed.String()).Add(1)
	m.ingestBatches.Add(2)
	m.ingestEvents.Add(49)
	m.ingestRejected.Add(1)
	m.watchConns.Add(3)
	m.query2Queries.Add(2)
	m.query2Scanned.Add(8)
	m.query2Pruned.Add(9)
	m.gauges.Bind(func(e *metrics.Emitter) { writeGauges(e, 3, 5, breakerHalfOpen) })
	return m
}

var goldenStorage = archivedb.Stats{
	Segments: 3, LiveJobs: 41, LiveBytes: 1 << 20, DeadBytes: 4096, WALBytes: 1<<20 + 4096,
	Compactions: 2, ReclaimedBytes: 8192, Snapshots: 5,
	GroupCommits: 11, GroupCommitRecords: 47, GroupCommitFsyncs: 12, GroupCommitMaxBatch: 8,
	RecoveredRecords: 6, RecoveredFromSnapshot: 35, TruncatedBytes: 5,
	ColSegWrites: 43, ColSegDeletes: 2, ColSegFullReads: 19, ColSegTailReads: 23, ColSegSweeps: 1,
}

var goldenCaches = respCacheStats{Hits: 70, Misses: 30, NotModified: 13}

// TestMetricsGolden pins granula-serve's /metrics byte for byte. The
// .prom file was written by the hand-rolled writers this registry
// replaced (see CHANGES.md, PR 19). A change that means to move the
// exposition edits the file to match what the failing test prints and
// reviews the diff; no test writes it.
func TestMetricsGolden(t *testing.T) {
	const file = "testdata/metrics_durable.prom"
	m := goldenMetrics()
	m.tail.Bind(func(e *metrics.Emitter) {
		writeCaches(e, goldenCaches)
		writeStorage(e, goldenStorage)
		writeLiveJobs(e, 2)
	})
	var buf bytes.Buffer
	m.reg.Write(&buf)
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from %s:\n%s", file, buf.Bytes())
	}
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

// TestScrapeNeverBlocksRequests parks a /metrics scrape inside the
// scraper's Write, and then inside a sampler that waits the way
// Store.Len waits for the store lock, and requires what every request
// does on its way out (Server.instrument) to finish meanwhile: no lock
// is held across either.
func TestScrapeNeverBlocksRequests(t *testing.T) {
	m := goldenMetrics()
	writer, sampler := newGate(), newGate()
	for i, tc := range []struct {
		held   *gate
		scrape func()
	}{
		{writer, func() { m.reg.Write(writer) }},
		{sampler, func() {
			m.tail.Bind(func(*metrics.Emitter) { sampler.wait() })
			m.reg.Write(io.Discard)
		}},
	} {
		scraped, served := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(scraped)
			tc.scrape()
		}()
		<-tc.held.entered
		go func() {
			defer close(served)
			m.requests.With("POST /jobs").Observe(0.01)
			m.requests.With("GET /first-seen/" + strconv.Itoa(i)).Observe(0.01) // takes the insert path
			m.jobsDone.Inc()
			m.shed.Inc()
		}()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("a request blocked behind a scrape in progress")
		}
		close(tc.held.release)
		<-scraped
	}
}
