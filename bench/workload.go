package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run of one workload.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"ops_attempted"`
	Failed    int               `json:"ops_failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
}

// workload is one named traffic mix. e2e and layers list the metrics
// it emits, in the untraced and in the traced run, on top of those
// every workload emits (the dense ones of defs.go).
type workload struct {
	name   string
	why    string
	run    func(*env) error
	e2e    []string
	layers []string
}

// env is what a workload run works with: its parameters, its scratch
// directory and the result it fills in.
type env struct {
	w       *workload
	seed    int64
	seconds float64
	// scale is 1 for real runs. The smoke test runs at 1/50: sample
	// floors and corpus sizes shrink with it.
	scale float64
	trace bool
	tmp   string
	out   string // directory for trace files; empty = do not write
	// tracer records the spans of a traced run; nil in an untraced one.
	tracer *Tracer
	// start is when the run began: setup_s counts from here.
	start time.Time

	mu  sync.Mutex
	res *Result
}

func newEnv(w *workload, seed int64, seconds, scale float64, trace bool, tmp, out string) *env {
	var tracer *Tracer
	if trace {
		tracer = newTracer()
	}
	return &env{
		w: w, seed: seed, seconds: seconds, scale: scale, trace: trace, tmp: tmp, out: out, tracer: tracer,
		start: time.Now(),
		res: &Result{
			Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
			Correct: true, Metrics: map[string]Metric{},
		},
	}
}

// set records a metric, under the demotion prefix if the calibration
// demoted it on this workload. Emitting an unknown name, a name twice,
// or a value that is not finite is a bug in the benchmark, reported as
// a correctness failure so it cannot pass silently.
func (e *env) set(name string, v float64) {
	if demoted[e.w.name+"/"+name] {
		name = demotedPrefix + name
	}
	def, ok := defOf(name)
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case !ok:
		e.problemLocked("metric %q is not defined", name)
	case math.IsNaN(v) || math.IsInf(v, 0):
		e.problemLocked("metric %q is not finite: %v", name, v)
	default:
		if _, dup := e.res.Metrics[name]; dup {
			e.problemLocked("metric %q emitted twice", name)
		}
		e.res.Metrics[name] = Metric{Value: v, Unit: def.unit}
	}
}

func (e *env) problemLocked(format string, args ...any) {
	e.res.Correct = false
	if len(e.res.Problems) < 20 {
		e.res.Problems = append(e.res.Problems, fmt.Sprintf(format, args...))
	}
}

// incorrect records a failed correctness oracle.
func (e *env) incorrect(format string, args ...any) {
	e.mu.Lock()
	e.problemLocked(format, args...)
	e.mu.Unlock()
}

// attempted adds the ops of a measured phase to ops_attempted.
func (e *env) attempted(n int) {
	e.mu.Lock()
	e.res.Attempted += n
	e.mu.Unlock()
}

// opFailed counts one failed op and keeps its reason.
func (e *env) opFailed(err error) {
	e.mu.Lock()
	e.res.Failed++
	if len(e.res.Problems) < 20 {
		e.res.Problems = append(e.res.Problems, "op failed: "+err.Error())
	}
	e.mu.Unlock()
}

// scaled shrinks a size (a corpus, a graph, a sample count) with the
// run's scale.
func (e *env) scaled(n int) int {
	return max(1, int(math.Round(float64(n)*e.scale)))
}

// measuringFrom is called when the first measured op is about to
// start. Everything the run did until then — generating datasets,
// building and reopening a corpus, starting servers, the discarded
// warm-up — is its set-up time. The warm-up belongs to it: caches fill
// and lazy set-up finishes there, it is a fixed number of ops, and
// without it the figure would be a node's 3 ms start on half the
// workloads, which does not repeat within 50 %.
func (e *env) measuringFrom() {
	if !e.trace {
		e.set("setup_s", time.Since(e.start).Seconds())
	}
}

// replayBudget is how long the layer replay of a traced run may keep
// repeating: 30 % of the measured time.
func (e *env) replayBudget() time.Duration {
	return time.Duration(0.3 * e.seconds * e.scale * float64(time.Second))
}

// warmUp is the share of a pass's ops that the discarded warm-up runs.
const warmUp = 0.12

// ops returns how many ops a phase runs: its rate on the reference box
// times the measured seconds, so that --seconds sets how long a run
// measures there, while the work itself is a fixed count. With fixed
// counts the store a phase leaves behind, and so every figure that
// depends on its size (heap, scan time, disk bytes), repeats exactly.
// frac is the share of a whole run's ops: 1 for the single untraced
// pass, less for a warm-up or one of the passes of a traced run.
func (e *env) ops(perSecond, frac float64) int {
	return max(1, int(math.Round(perSecond*e.seconds*e.scale*frac)))
}

// passes returns the measured passes of this run: one untraced pass
// over the whole op count, or, for a traced run, four passes of 17.5 %
// each in the order untraced, traced, traced, untraced (the time left
// goes to the layer replay). A store that fills up makes later passes
// slower whatever is traced; in this order a steady drift costs both
// sides the same, and what is left is the tracing.
func (e *env) passes() []*pass {
	if !e.trace {
		return []*pass{{frac: 1}}
	}
	return []*pass{{frac: 0.175}, {frac: 0.175, tr: e.tracer}, {frac: 0.175, tr: e.tracer}, {frac: 0.175}}
}

// setTraceOverhead reports how much slower the traced passes ran. It
// takes the median latency of the workload's headline op in each pass,
// in the order passes returns them: a closed loop's throughput is the
// inverse of its latency, and over passes this short the median is
// much steadier than the op count.
func (e *env) setTraceOverhead(latMs []float64) {
	untraced, traced := latMs[0]+latMs[3], latMs[1]+latMs[2]
	e.set("bench.trace_overhead_pct", 100*(traced-untraced)/untraced)
}

// reportTrace sets what the traced run of every workload reports: the
// tracing overhead (from the headline median latency of each pass), the
// client-side spans of write ops, the counter-derived metrics, the
// layer replay over inputs, and the process figures; then it checks
// and writes the trace.
func (e *env) reportTrace(passLatMs []float64, counts counterInputs, inputs []layerInput) error {
	e.setTraceOverhead(passLatMs)
	e.setClientSpans()
	e.setCounterMetrics(counts)
	if err := e.layerReplay(inputs); err != nil {
		return err
	}
	e.setProcStats()
	e.finishTrace()
	return nil
}

// pass is one measured repetition of a workload's phases over frac of
// the run's op counts.
type pass struct {
	frac float64
	tr   *Tracer
}

// loopSlices is how many equal parts of a closed loop's ops are timed
// on their own.
const loopSlices = 8

// loopTime is how long a closed loop took, as a whole and slice by
// slice: slice k is the ops from starts[k] up to starts[k+1], timed
// from when its first op was picked up to when the next slice's was.
type loopTime struct {
	elapsed time.Duration
	starts  []int
	slices  []time.Duration
}

// perSecond is the loop's throughput: the median over its slices of
// each slice's ops per second. On a shared host a stall of a few
// hundred milliseconds (a stolen CPU, a burst of write-back) is common;
// it ruins the mean rate of a ten-second loop but only one slice.
func (t loopTime) perSecond() float64 {
	rates := make([]float64, len(t.slices))
	for k, d := range t.slices {
		rates[k] = float64(t.starts[k+1]-t.starts[k]) / d.Seconds()
	}
	return median(rates)
}

// closedLoop runs op(worker, i) for i = base … base+count-1 on `clients`
// goroutines, each sending its next op only after its previous one
// completed.
func closedLoop(clients, count, base int, op func(worker, i int)) loopTime {
	slices := min(loopSlices, count)
	starts := make([]int, slices+1)
	for k := range starts {
		starts[k] = k * count / slices
	}
	marks := make([]time.Time, slices+1)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				// Each slice has one first op, so no two workers write
				// the same mark.
				if k := sort.SearchInts(starts, i); starts[k] == i {
					marks[k] = time.Now()
				}
				op(w, base+i)
			}
		}(w)
	}
	wg.Wait()
	marks[slices] = time.Now()
	t := loopTime{elapsed: marks[slices].Sub(marks[0]), starts: starts}
	for k := 0; k < slices; k++ {
		t.slices = append(t.slices, marks[k+1].Sub(marks[k]))
	}
	return t
}

// openLoop sends count ops on a fixed schedule of rate per second,
// whatever the replies do. An op is timed from when it was due, so a
// stall is charged to every request it delayed. It returns, per op,
// how late the generator started it.
func openLoop(clients, count int, rate float64, base int, op func(worker, i int, due time.Time)) []float64 {
	gap := time.Duration(float64(time.Second) / rate)
	late := make([][]float64, clients)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				due := start.Add(time.Duration(i) * gap)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				late[w] = append(late[w], ms(time.Since(due)))
				op(w, base+i, due)
			}
		}(w)
	}
	wg.Wait()
	var all []float64
	for _, l := range late {
		all = append(all, l...)
	}
	return all
}

// samples collects latencies per worker without locking; merge after
// the loop has returned.
type samples struct {
	perWorker []map[string][]float64
}

func newSamples(workers int) *samples {
	s := &samples{perWorker: make([]map[string][]float64, workers)}
	for i := range s.perWorker {
		s.perWorker[i] = map[string][]float64{}
	}
	return s
}

func (s *samples) add(worker int, kind string, d time.Duration) {
	s.perWorker[worker][kind] = append(s.perWorker[worker][kind], ms(d))
}

// byKind merges the workers' samples.
func (s *samples) byKind() map[string][]float64 {
	out := map[string][]float64{}
	for _, m := range s.perWorker {
		for k, v := range m {
			out[k] = append(out[k], v...)
		}
	}
	return out
}

// steadyMean is a mean that one stall does not move: each worker's
// samples of the kind are cut, in the order they were taken, into
// loopSlices slices, and the result is the median over the slices of the
// mean of a slice (over all workers).
func (s *samples) steadyMean(kind string) float64 {
	sums, counts := make([]float64, loopSlices), make([]int, loopSlices)
	for _, m := range s.perWorker {
		v := m[kind]
		for i, x := range v {
			k := i * loopSlices / len(v)
			sums[k] += x
			counts[k]++
		}
	}
	var means []float64
	for k, n := range counts {
		if n > 0 {
			means = append(means, sums[k]/float64(n))
		}
	}
	return median(means)
}

// of returns the workers' samples of one kind.
func (s *samples) of(kind string) []float64 {
	var out []float64
	for _, m := range s.perWorker {
		out = append(out, m[kind]...)
	}
	return out
}

// liveHeapMB is HeapAlloc after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// procStats are the whole-process context figures of the traced run.
func (e *env) setProcStats() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	e.set("proc.gc_pause_ms_total", float64(m.PauseTotalNs)/1e6)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		e.set("proc.cpu_s", cpu.Seconds())
	} else {
		e.set("proc.cpu_s", 0)
	}
	e.set("proc.rss_peak_mb", rssPeakMB())
}

// rssPeakMB reads VmHWM from /proc/self/status (0 where there is none).
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
