package metrics

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRegistryWrite: families come out in declaration order; a closed
// vector writes its declared values in the order declared and from
// zero, and refuses any other; an open one writes the values it has
// seen, sorted; a sampled slot writes nothing until bound.
func TestRegistryWrite(t *testing.T) {
	r := NewRegistry()
	jobs := r.CounterVec("jobs_total", "Jobs.", "state", "started", "done")
	routes := r.CounterVec("routes_total", "Routes.", "route")
	late := r.Sampled()
	hits := r.Counter("hits_total", "Hits.")
	acks := r.CounterVec2("acks_total", "Acks.", "shard", "outcome", "ok", "error")
	jobs.With("done").Inc()
	routes.With("b").Add(2)
	routes.With("a").Inc()
	hits.Add(3)
	acks.With("s2").With("error").Inc()
	acks.With("s10").With("ok").Inc()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a closed vector accepted a value it did not declare")
			}
		}()
		jobs.With("dnoe")
	}()

	const head = `# HELP jobs_total Jobs.
# TYPE jobs_total counter
jobs_total{state="started"} 0
jobs_total{state="done"} 1
# HELP routes_total Routes.
# TYPE routes_total counter
routes_total{route="a"} 1
routes_total{route="b"} 2
`
	const tail = `# HELP hits_total Hits.
# TYPE hits_total counter
hits_total 3
# HELP acks_total Acks.
# TYPE acks_total counter
acks_total{shard="s10",outcome="ok"} 1
acks_total{shard="s10",outcome="error"} 0
acks_total{shard="s2",outcome="ok"} 0
acks_total{shard="s2",outcome="error"} 1
`
	var buf bytes.Buffer
	r.Write(&buf)
	if got := buf.String(); got != head+tail {
		t.Fatalf("unbound:\n%s", got)
	}
	late.Bind(func(e *Emitter) {
		e.Gauge("depth", "Depth.", -4)
		e.Header("state", "State.", "gauge")
		e.Sample("state", "node", `a"b`, 2)
	})
	const sampled = `# HELP depth Depth.
# TYPE depth gauge
depth -4
# HELP state State.
# TYPE state gauge
state{node="a\"b"} 2
`
	buf.Reset()
	r.Write(&buf)
	if got := buf.String(); got != head+sampled+tail {
		t.Fatalf("bound:\n%s", got)
	}
}

// TestRegistryAllocs is the measured path's budget: counting and
// observing on metrics that already exist allocates nothing.
func TestRegistryAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "C.")
	h := r.Histogram("h_seconds", "H.")
	cv := r.CounterVec("cv_total", "CV.", "shard")
	hv := r.HistogramVec("hv_seconds", "HV.", "route")
	cv2 := r.CounterVec2("cv2_total", "CV2.", "shard", "outcome", "ok", "error")
	cv.With("s1")
	hv.With("GET /jobs/{id}")
	cv2.With("s1")
	for name, f := range map[string]func(){
		"Counter.Inc":            func() { c.Inc() },
		"Histogram.Observe":      func() { h.Observe(0.003) },
		"CounterVec.With hit":    func() { cv.With("s1").Inc() },
		"HistogramVec.With hit":  func() { hv.With("GET /jobs/{id}").Observe(0.003) },
		"CounterVec2.With hit":   func() { cv2.With("s1").With("ok").Inc() },
		"Histogram.Observe +Inf": func() { h.Observe(99) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}
}

// TestRegistryConcurrent counts from many goroutines, through hits and
// racing first inserts, while another scrapes in a loop (run under
// -race). At quiescence every total is exact, and in every scrape taken
// on the way each histogram's +Inf bucket equals its _count.
func TestRegistryConcurrent(t *testing.T) {
	const workers, rounds = 8, 2000
	r := NewRegistry()
	c := r.Counter("c_total", "C.")
	cv := r.CounterVec("cv_total", "CV.", "shard")
	hv := r.HistogramVec("hv_seconds", "HV.", "route")
	r.Sampled().Bind(func(e *Emitter) { e.Gauge("g", "G.", 1) })

	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			var buf bytes.Buffer
			r.Write(&buf)
			checkHistograms(t, buf.String())
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				value := fmt.Sprintf("v%d", i%7)
				c.Inc()
				cv.With(value).Inc()
				hv.With(value).Observe(float64(i%20) * 0.001)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-scraped

	if got := c.value(); got != workers*rounds {
		t.Errorf("counter = %d, want %d", got, workers*rounds)
	}
	var buf bytes.Buffer
	r.Write(&buf)
	var counted, observed uint64
	for _, line := range strings.Split(buf.String(), "\n") {
		var n uint64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &n); err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(line, "cv_total{"):
			counted += n
		case strings.HasPrefix(line, "hv_seconds_count{"):
			observed += n
		}
	}
	if counted != workers*rounds || observed != workers*rounds {
		t.Errorf("vector totals = %d counted, %d observed, want %d each", counted, observed, workers*rounds)
	}
	checkHistograms(t, buf.String())
}

// checkHistograms requires each +Inf bucket line to carry the value of
// the _count line that follows its _sum.
func checkHistograms(t *testing.T, exposition string) {
	lines := strings.Split(exposition, "\n")
	for i, line := range lines {
		if !strings.Contains(line, `le="+Inf"`) {
			continue
		}
		inf := line[strings.LastIndexByte(line, ' '):]
		if count := lines[i+2]; !strings.Contains(count, "_count") || !strings.HasSuffix(count, inf) {
			t.Errorf("+Inf bucket and count disagree:\n%s\n%s", line, count)
		}
	}
}
