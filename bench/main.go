// Command bench is the repository's benchmark: one driver, six named
// workloads over the real code paths (loopback HTTP listeners, durable
// archivedb with fsync on, the real platforms harness), end-to-end
// metrics from an untraced run and per-layer metrics from a traced one.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: how long the driver asks
// one run to measure.
const runSeconds = 10

// workloads are the six traffic mixes, in the order the suite runs them.
var workloads = []*workload{
	{
		name: "fig5-pipeline",
		why:  "library calls only: the harness, engines, trace, monitor, metrics, viz do all the work and the serving and storage layers none; the control for serving changes",
		run:  runFig5,
		e2e:  []string{"job_ms_p50", "jobs_per_s"},
	},
	{
		name: "serve-write",
		why:  "submit, poll until done, fetch the archive on one durable node: executor queue, harness run and Store.Put (marshal, WAL fsync, segment write) dominate; read accelerators idle",
		run:  runServeWrite,
		e2e:  []string{"job_ms_p50", "job_ms_p95", "jobs_per_s", "disk_bytes_per_job"},
		layers: []string{
			"service.submit_ack_ms", "service.done_wait_ms",
			"service.handler_ms.jobs", "service.handler_ms.status", "service.handler_ms.archive",
		},
	},
	{
		name: "serve-read-mixed",
		why:  "a reopened 600-job corpus read 95 % and written 5 %, closed loop then open loop: query cache, response cache (working set 30 times its size), ETags work; writes invalidate reads",
		run:  runServeReadMixed,
		e2e:  []string{"read_ms_p50", "read_ms_p99", "reads_per_s", "cold_start_s", "disk_bytes_per_job"},
		layers: []string{
			"service.submit_ack_ms", "service.done_wait_ms", "bench.generator_lag_ms_p99",
			"service.handler_ms.jobs", "service.handler_ms.status", "service.handler_ms.archive",
			"service.handler_ms.query", "service.handler_ms.viz",
		},
	},
	{
		name:   "query2-analytics",
		why:    "cross-job aggregates over the reopened corpus, using the segment layer three ways: uncached scans read bodies, pruned queries only footers, cached repeats nothing; executor idle",
		run:    runQuery2Analytics,
		e2e:    []string{"query2_scan_ms_p50", "query2_pruned_ms_p50", "query2_cached_ms_p50", "cold_start_s"},
		layers: []string{"service.handler_ms.query2"},
	},
	{
		name:   "stream-live",
		why:    "externally run jobs pushed through /ingest in 32-event batches while an SSE tail follows: stream log, ingest validation, per-batch WAL append, SSE fan-out and finalize dominate; no simulation runs",
		run:    runStreamLive,
		e2e:    []string{"ingest_events_per_s", "ingest_to_frame_ms_p50"},
		layers: []string{"service.handler_ms.ingest", "service.handler_ms.watch", "service.handler_ms.archive"},
	},
	{
		name: "cluster-rw",
		why:  "three durable shards (R=2, W=2, self-heal) behind the router: ring lookup, proxying, quorum replication, ETag-probe read-repair and /query2 scatter-gather run only here",
		run:  runClusterRW,
		e2e:  []string{"job_ms_p50", "jobs_per_s", "read_ms_p50", "reads_per_s", "query2_scan_ms_p50"},
		layers: []string{
			"service.submit_ack_ms", "service.done_wait_ms",
			"shard.route_overhead_ms", "shard.replicate_ms", "shard.query2_gather_ms",
			"service.handler_ms.jobs", "service.handler_ms.status", "service.handler_ms.archive",
			"service.handler_ms.query", "service.handler_ms.viz",
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Host records where and how a result was measured.
type Host struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	Fsync      string `json:"fsync_policy"`
}

// commit is the revision the binary was built from. run.sh sets it with
// -ldflags "-X main.commit=…" (it builds with -buildvcs=false, so the
// build info has none); `go run .` in a git checkout finds it in the
// build info; where there is no git it stays "unknown".
var commit = "unknown"

func hostInfo() Host {
	h := Host{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Kernel: "unknown",
		Fsync: "archivedb NoSync=false, GroupCommitWindow=0",
	}
	if info, ok := debug.ReadBuildInfo(); ok && h.Commit == "unknown" {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	return h
}

// ResultFile is what -out writes and -compare reads.
type ResultFile struct {
	Schema int       `json:"schema"`
	Host   Host      `json:"host"`
	Runs   []*Result `json:"runs"`
}

// runWorkload runs one workload once in a scratch directory of its own.
func runWorkload(w *workload, seed int64, seconds, scale float64, trace bool, out string) (*Result, error) {
	tmp, err := os.MkdirTemp("", "granula-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := newEnv(w, seed, seconds, scale, trace, tmp, out)
	if err := w.run(e); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	e.finish()
	return e.res, nil
}

// wants lists the metrics a run of the workload must emit, under the
// names they are reported by: the dense ones plus the workload's own.
func (w *workload) wants(trace bool) []string {
	own := w.e2e
	if trace {
		own = w.layers
	}
	out := denseNames(!trace)
	for _, name := range own {
		if demoted[w.name+"/"+name] {
			name = demotedPrefix + name
		}
		out = append(out, name)
	}
	return out
}

// finish checks that the workload emitted exactly what it declares.
func (e *env) finish() {
	want := e.w.wants(e.trace)
	for _, name := range want {
		if _, ok := e.res.Metrics[name]; !ok {
			e.incorrect("metric %q was not emitted", name)
		}
	}
	for name := range e.res.Metrics {
		if !slices.Contains(want, name) {
			e.incorrect("metric %q is not declared for %s", name, e.w.name)
		}
	}
	if e.res.Attempted < 1 {
		e.incorrect("no op was attempted")
	}
}

// finishTrace checks the span tree and writes it out.
func (e *env) finishTrace() {
	spans := e.tracer.Spans()
	if err := checkNesting(spans); err != nil {
		e.incorrect("trace: %v", err)
	}
	if e.out == "" {
		return
	}
	path := filepath.Join(e.out, "trace-"+e.w.name+".json")
	if err := writeTrace(path, spans); err != nil {
		e.incorrect("write %s: %v", path, err)
	}
}

// printResult prints every metric of a run by name with its unit.
func printResult(r *Result) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Printf("%s (%s, seed %d, %.0f s): %d ops attempted, %d failed, correct=%v\n",
		r.Workload, mode, r.Seed, r.Seconds, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("  %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, p := range r.Problems {
		fmt.Printf("  ! %s\n", p)
	}
}

// driverLine is the one-line JSON object the driver reads: with
// tracing off every end_to_end metric of BENCHMARK.json, with tracing
// on every per_layer metric.
func driverLine(r *Result) string {
	metrics := map[string]Metric{}
	for _, name := range denseNames(!r.Trace) {
		metrics[name] = r.Metrics[name]
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(line)
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", runSeconds, "measured seconds per workload run")
	trace := fs.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = untraced (end-to-end metrics)")
	repeat := fs.Int("repeat", 1, "run each workload this many times and report median and quartiles")
	out := fs.String("out", "", "directory for results.json and trace-<workload>.json")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	spreadOf := fs.String("spread", "", "print the per-metric run-to-run spread of a result file as JSON")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *manifest:
		fmt.Println(manifestJSON())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	case *spreadOf != "":
		return printSpread(*spreadOf)
	}

	selected := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	file := ResultFile{Schema: 1, Host: hostInfo()}
	fmt.Printf("host: %d cores, GOMAXPROCS %d, %s, kernel %s, commit %s, fsync: %s\n",
		file.Host.Nproc, file.Host.GOMAXPROCS, file.Host.GoVersion, file.Host.Kernel, file.Host.Commit, file.Host.Fsync)
	ok := true
	var last *Result
	for _, w := range selected {
		var runs []*Result
		for i := 0; i < *repeat; i++ {
			start := time.Now()
			r, err := runWorkload(w, *seed, *seconds, 1, *trace == 1, *out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			printResult(r)
			fmt.Printf("  (run took %.1f s)\n", time.Since(start).Seconds())
			runs = append(runs, r)
			ok = ok && r.Correct
			last = r
		}
		if *repeat > 1 {
			printRepeats(runs)
		}
		file.Runs = append(file.Runs, runs...)
	}
	if *out != "" {
		data, _ := json.MarshalIndent(file, "", "  ")
		if err := os.WriteFile(filepath.Join(*out, "results.json"), append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: a correctness check failed; no result line printed")
		return 1
	}
	if len(selected) == 1 {
		fmt.Println(driverLine(last))
	}
	return 0
}
