package main

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/service"
)

// paperArchive is the archive of the full-scale paper run, committed
// with the figures rendered from it and held byte for byte by
// cmd/experiments' TestPaperGolden.
const paperArchive = "../../out/archive.json"

// writeArchive serializes one single-job archive whose ProcessGraph
// child takes the given duration, to a temp file.
func writeArchive(t *testing.T, dir, name string, processSeconds float64) string {
	t.Helper()
	end := 10 + processSeconds + 5
	job := &archive.Job{
		ID:       "bfs-test",
		Platform: "Giraph",
		Root: &archive.Operation{
			ID: "root", Actor: "Granula", Mission: "GiraphJob", Start: 0, End: end,
			Children: []*archive.Operation{
				{ID: "startup", Actor: "Driver", Mission: "Startup", Start: 0, End: 5},
				{ID: "load", Actor: "Driver", Mission: "LoadGraph", Start: 5, End: 10},
				{ID: "proc", Actor: "Driver", Mission: "ProcessGraph", Start: 10, End: 10 + processSeconds},
				{ID: "cleanup", Actor: "Driver", Mission: "Cleanup", Start: 10 + processSeconds, End: end},
			},
		},
	}
	a := archive.New()
	a.Add(job)
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := a.Save(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodeContract pins the CI contract of every subcommand: 0 =
// pass, 1 = regression (or another finding), 2 = usage/error.
func TestExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	baseline := writeArchive(t, dir, "baseline.json", 20)
	same := writeArchive(t, dir, "same.json", 20)
	slower := writeArchive(t, dir, "slower.json", 30)
	faster := writeArchive(t, dir, "faster.json", 15)
	if err := os.WriteFile(filepath.Join(dir, "garbage.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	garbage, absent := filepath.Join(dir, "garbage.json"), filepath.Join(dir, "absent.json")
	const giraph = "giraph-bfs-dg1000"

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"identical runs pass", []string{"diff", "-baseline", baseline, "-current", same}, 0},
		{"improvement passes", []string{"diff", "-baseline", baseline, "-current", faster}, 0},
		{"regression fails", []string{"diff", "-baseline", baseline, "-current", slower}, 1},
		{"regression under loose threshold passes", []string{"diff", "-baseline", baseline, "-current", slower, "-threshold", "0.60"}, 0},
		{"job filter finds regression", []string{"diff", "-baseline", baseline, "-current", slower, "-job", "bfs-test"}, 1},
		{"missing flags", []string{"diff"}, 2},
		{"missing current", []string{"diff", "-baseline", baseline}, 2},
		{"unknown flag", []string{"diff", "-baseline", baseline, "-current", same, "-wat"}, 2},
		{"unreadable baseline", []string{"diff", "-baseline", filepath.Join(dir, "absent.json"), "-current", same}, 2},
		{"invalid archive", []string{"diff", "-baseline", filepath.Join(dir, "garbage.json"), "-current", same}, 2},
		{"no comparable jobs", []string{"diff", "-baseline", baseline, "-current", slower, "-job", "ghost"}, 2},

		{"no subcommand", nil, 2},
		{"unknown subcommand", []string{"serve"}, 2},
		{"stray argument", []string{"query", paperArchive}, 2},

		{"run unknown graph kind", []string{"run", "-graph", "lattice"}, 2},
		{"run bad flag value", []string{"run", "-vertices", "many"}, 2},

		{"model list", []string{"model", "-list"}, 0},
		{"model without a model", []string{"model", "-render"}, 2},
		{"model unknown platform", []string{"model", "-platform", "flink", "-render"}, 2},
		{"model check conforms", []string{"model", "-check", paperArchive}, 0},
		{"model check mismatch", []string{"model", "-platform", "powergraph", "-check", paperArchive, "-job", giraph}, 1},
		{"model check unreadable archive", []string{"model", "-platform", "giraph", "-check", absent}, 2},
		{"model check invalid archive", []string{"model", "-check", garbage}, 2},
		{"model check unknown job", []string{"model", "-check", paperArchive, "-job", "ghost"}, 2},
		{"model unreadable model", []string{"model", "-in", absent, "-check", paperArchive}, 2},
		{"model invalid model", []string{"model", "-in", garbage, "-render"}, 2},

		{"query listing", []string{"query", "-archive", paperArchive}, 0},
		{"query without archive", []string{"query", "-job", giraph}, 2},
		{"query single-job select without job", []string{"query", "-archive", paperArchive, "-select", "mission = Compute order by duration desc limit 2"}, 2},
		{"query single-job aggregate without job", []string{"query", "-archive", paperArchive, "-select", "group by mission agg count"}, 2},
		{"query path without job", []string{"query", "-archive", paperArchive, "-path", "GiraphJob/LoadGraph"}, 2},
		{"query bad syntax", []string{"query", "-archive", paperArchive, "-job", giraph, "-select", "mission =="}, 2},
		{"query unknown job", []string{"query", "-archive", paperArchive, "-job", "ghost", "-breakdown"}, 2},
		{"query no operation matched", []string{"query", "-archive", paperArchive, "-job", giraph, "-mission", "Nope"}, 1},
		{"query select matched nothing", []string{"query", "-archive", paperArchive, "-job", giraph, "-select", "duration > 100000"}, 1},
		{"query invalid archive", []string{"query", "-archive", garbage}, 2},
		{"query url without select", []string{"query", "-url", "http://127.0.0.1:1"}, 2},

		{"viz without archive", []string{"viz"}, 2},
		{"viz tree", []string{"viz", "-archive", paperArchive, "-chart", "tree"}, 0},
		{"viz unknown chart", []string{"viz", "-archive", paperArchive, "-chart", "pie"}, 2},
		{"viz chart without svg form", []string{"viz", "-archive", paperArchive, "-chart", "tree", "-svg", filepath.Join(dir, "t.svg")}, 2},
		{"viz unknown job", []string{"viz", "-archive", paperArchive, "-job", "ghost"}, 2},
		{"viz unreadable archive", []string{"viz", "-archive", absent}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(c.args, &stdout, &stderr)
			if got != c.want {
				t.Fatalf("run(%v) = %d, want %d\nstdout: %s\nstderr: %s",
					c.args, got, c.want, stdout.String(), stderr.String())
			}
		})
	}
}

func TestDiffReportContent(t *testing.T) {
	dir := t.TempDir()
	baseline := writeArchive(t, dir, "baseline.json", 20)
	slower := writeArchive(t, dir, "slower.json", 30)

	var stdout, stderr bytes.Buffer
	if got := run([]string{"diff", "-baseline", baseline, "-current", slower}, &stdout, &stderr); got != 1 {
		t.Fatalf("run = %d, want 1 (stderr: %s)", got, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"bfs-test", "ProcessGraph", "regression", "FAIL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report lacks %q:\n%s", want, out)
		}
	}
}

// granula runs args and returns stdout, failing the test unless the
// exit code is want.
func granula(t *testing.T, want int, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if got := run(args, &stdout, &stderr); got != want {
		t.Fatalf("granula %s = %d, want %d\nstderr: %s", strings.Join(args, " "), got, want, stderr.String())
	}
	return stdout.String()
}

// TestVizReproducesPaperFigures renders the committed figures and
// report from the committed archive: the archive alone must reproduce
// them byte for byte.
func TestVizReproducesPaperFigures(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ file, job, chart string }{
		{"fig5-giraph.svg", "giraph-bfs-dg1000", "breakdown"},
		{"fig5-powergraph.svg", "powergraph-bfs-dg1000", "breakdown"},
		{"fig6-giraph.svg", "giraph-bfs-dg1000", "cpu"},
		{"fig7-powergraph.svg", "powergraph-bfs-dg1000", "cpu"},
		{"fig8-giraph-gantt.svg", "giraph-bfs-dg1000", "gantt"},
		{"report.html", "", ""},
	} {
		args := []string{"viz", "-archive", paperArchive, "-job", c.job, "-chart", c.chart, "-svg", filepath.Join(dir, c.file)}
		if c.chart == "" {
			args = []string{"viz", "-archive", paperArchive, "-report", filepath.Join(dir, c.file)}
		}
		granula(t, 0, args...)
		got, err := os.ReadFile(filepath.Join(dir, c.file))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("../../out", c.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("granula %s differs from out/%s", strings.Join(args, " "), c.file)
		}
	}
}

// TestVizChokepoints pins the choke-point analysis of both paper jobs;
// the PowerGraph one is the paper's Figure 7 diagnosis, found unaided.
func TestVizChokepoints(t *testing.T) {
	for job, want := range map[string]string{
		"giraph-bfs-dg1000": `Choke-point analysis of giraph-bfs-dg1000 (makespan 85.28s)

Blocking-chain profile (who gates completion):
  Compute                 19.92s   23.4%
  LocalLoad               19.57s   23.0%
  LoadHdfsData             9.85s   11.6%
  OffloadHdfsData          8.09s    9.5%
  LaunchWorkers            7.58s    8.9%
  JobStartup               7.20s    8.4%
  ServerCleanup            4.00s    4.7%
  AbortWorkers             2.50s    2.9%
  ClientCleanup            2.50s    2.9%
  Message                  1.18s    1.4%
  PostStep                 1.15s    1.4%
  ZkCleanup                1.13s    1.3%
  PreStep                  0.34s    0.4%
  SyncZookeeper            0.17s    0.2%
  LocalStartup             0.08s    0.1%

Ranked choke-points:
  1. [dominant-operation] Compute — impact 19.92s (23.4%)
     Compute operations gate 23.4% of the job's completion (19.92s of 85.28s)
  2. [dominant-operation] LocalLoad — impact 19.57s (23.0%)
     LocalLoad operations gate 23.0% of the job's completion (19.57s of 85.28s)
  3. [latency-bound] Startup — impact 14.86s (17.4%)
     Startup leaves the CPU idle (0.4 of 192.0 cpu-s/s): latency-bound — look at coordination, provisioning, or I/O waits
  4. [latency-bound] Cleanup — impact 10.13s (11.9%)
     Cleanup leaves the CPU idle (0.0 of 192.0 cpu-s/s): latency-bound — look at coordination, provisioning, or I/O waits
  5. [latency-bound] OffloadGraph — impact 8.09s (9.5%)
     OffloadGraph leaves the CPU idle (0.0 of 192.0 cpu-s/s): latency-bound — look at coordination, provisioning, or I/O waits
`,
		"powergraph-bfs-dg1000": `Choke-point analysis of powergraph-bfs-dg1000 (makespan 407.70s)

Blocking-chain profile (who gates completion):
  ParseEdges             347.62s   85.3%
  ReadEdgeFile            20.60s    5.1%
  DistributeEdges         11.56s    2.8%
  FinalizeGraph            9.10s    2.2%
  Scatter                  5.54s    1.4%
  Apply                    4.50s    1.1%
  WriteResults             3.30s    0.8%
  CollectResults           1.76s    0.4%
  Gather                   1.46s    0.4%
  MpiStartup               1.20s    0.3%
  LocalIteration           0.74s    0.2%
  MpiFinalize              0.30s    0.1%
  Iteration                0.01s    0.0%

Ranked choke-points:
  1. [single-node-hotspot] LoadGraph — impact 388.90s (95.4%)
     LoadGraph runs almost entirely on node339 (94% of all CPU during the operation) while the other 7 nodes idle — parallelize this stage
  2. [dominant-operation] ParseEdges — impact 347.62s (85.3%)
     ParseEdges operations gate 85.3% of the job's completion (347.62s of 407.70s)
  3. [latency-bound] OffloadGraph — impact 5.05s (1.2%)
     OffloadGraph leaves the CPU idle (1.0 of 192.0 cpu-s/s): latency-bound — look at coordination, provisioning, or I/O waits
`,
	} {
		if got := granula(t, 0, "viz", "-archive", paperArchive, "-job", job, "-chart", "chokepoints"); got != want {
			t.Errorf("chokepoints of %s:\n%s\nwant:\n%s", job, got, want)
		}
	}
}

func TestModel(t *testing.T) {
	const list = `Giraph       32 missions, depth 5 — 4-level model of an Apache Giraph job: Yarn-based startup, HDFS loading, Pregel supersteps with ZooKeeper synchronization, HDFS offloading, and multi-stage cleanup.
PowerGraph   21 missions, depth 5 — Model of a PowerGraph job: MPI startup, sequential edge-list loading with parallel finalization, synchronous GAS iterations, and master-collected offloading.
OpenG        13 missions, depth 3 — Model of a single-machine job: process startup, local edge-list loading and CSR construction, iterative in-memory processing, local result writing.
`
	if got := granula(t, 0, "model", "-list"); got != list {
		t.Errorf("model -list:\n%s\nwant:\n%s", got, list)
	}

	// The Giraph model render is Figure 4 of the paper transcript.
	render := granula(t, 0, "model", "-platform", "giraph", "-render")
	transcript, err := os.ReadFile("../../out/experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(transcript), render) {
		t.Errorf("model -platform giraph -render is not the transcript's Figure 4:\n%s", render)
	}

	// An exported model loads back as the same model.
	exported := filepath.Join(t.TempDir(), "giraph.json")
	granula(t, 0, "model", "-platform", "giraph", "-export", exported)
	if got := granula(t, 0, "model", "-in", exported, "-render"); got != render {
		t.Errorf("exported model renders differently:\n%s", got)
	}

	// -check defaults to the model of the job's own platform.
	if got, want := granula(t, 0, "model", "-check", paperArchive), "job giraph-bfs-dg1000 conforms to the Giraph model\n"; got != want {
		t.Errorf("model -check = %q, want %q", got, want)
	}
	if got := granula(t, 1, "model", "-platform", "powergraph", "-check", paperArchive); !strings.Contains(got, "mismatches against the PowerGraph model") {
		t.Errorf("model mismatch report:\n%s", got)
	}
}

func TestQuery(t *testing.T) {
	const giraph = "giraph-bfs-dg1000"
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{}, `2 job(s):
  giraph-bfs-dg1000              platform=Giraph       makespan=85.28s ops=851 samples=2150
  powergraph-bfs-dg1000          platform=PowerGraph   makespan=407.70s ops=844 samples=10200
`},
		{[]string{"-job", giraph, "-breakdown"}, "total 85.28s: setup 29.3%, input/output 44.0%, processing 26.7%\n"},
		{[]string{"-job", giraph, "-path", "GiraphJob/LoadGraph"},
			"op-000013  LoadGraph              GiraphMaster           start=   14.865 dur=   29.429\n"},
		{[]string{"-job", "powergraph-bfs-dg1000", "-mission", "LoadGraph", "-infos"}, `op-000004  LoadGraph              PowergraphClient       start=    1.200 dur=  388.896
  derived CPUSeconds=5990.076087000011
  derived Duration=388.895515083332
  derived PercentOfJob=95.3883861620722
`},
		{[]string{"-job", giraph, "-select", "mission = Compute order by duration desc limit 2"}, `op-000554  Compute                GiraphWorker-2         start=   55.864 dur=    4.207
op-000558  Compute                GiraphWorker-6         start=   55.864 dur=    4.202
`},
		{[]string{"-select", "from jobs group by job.platform agg count"}, `{
  "query": "from jobs group by job.platform agg count",
  "scope": "jobs",
  "groupBy": [
    "job.platform"
  ],
  "aggregates": [
    "count"
  ],
  "jobs": 2,
  "rows": 1695,
  "groups": [
    {
      "key": [
        "Giraph"
      ],
      "rows": 851,
      "aggregates": {
        "count": "851"
      }
    },
    {
      "key": [
        "PowerGraph"
      ],
      "rows": 844,
      "aggregates": {
        "count": "844"
      }
    }
  ]
}
`},
	} {
		args := append([]string{"query", "-archive", paperArchive}, c.args...)
		if got := granula(t, 0, args...); got != c.want {
			t.Errorf("granula %s:\n%s\nwant:\n%s", strings.Join(args, " "), got, c.want)
		}
	}
}

// TestQueryRemote checks which endpoint -url sends each query to and
// that the response body is printed verbatim.
func TestQueryRemote(t *testing.T) {
	requested := make(chan string, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requested <- r.URL.RequestURI()
		if r.URL.Path == "/jobs/ghost/query" {
			http.Error(w, "no such job", http.StatusNotFound)
			return
		}
		io.WriteString(w, "{}\n")
	}))
	defer srv.Close()

	if got := granula(t, 0, "query", "-url", srv.URL, "-select", "from jobs group by mission"); got != "{}\n" {
		t.Errorf("remote body = %q", got)
	}
	if got := <-requested; got != "/query2?q=from+jobs+group+by+mission" {
		t.Errorf("cross-job query went to %s", got)
	}
	granula(t, 0, "query", "-url", srv.URL, "-job", "j1", "-select", "mission = Compute")
	if got := <-requested; got != "/jobs/j1/query?q=mission+%3D+Compute" {
		t.Errorf("single-job query went to %s", got)
	}
	granula(t, 2, "query", "-url", srv.URL, "-job", "ghost", "-select", "mission = Compute")
	<-requested
}

// TestQueryRemoteMatchesLocal: a cross-job query over operation details
// prints the same bytes from a live service holding the committed
// archive's jobs as from the archive file itself.
func TestQueryRemoteMatchesLocal(t *testing.T) {
	a, err := loadArchive(paperArchive)
	if err != nil {
		t.Fatal(err)
	}
	store, err := service.NewStoreWithOptions(nil, service.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, j := range a.Jobs {
		if err := store.Put(j, service.Summary{ID: j.ID, Platform: j.Platform}); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(service.NewServerWith(nil, store, nil, service.ServerOptions{}).Handler())
	defer srv.Close()

	const sel = "from jobs where derived.PercentOfJob > 10 group by job.platform, mission agg count, max(derived.CPUSeconds)"
	local := granula(t, 0, "query", "-archive", paperArchive, "-select", sel)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"query", "-url", srv.URL, "-select", sel}, &stdout, &stderr); code != 0 {
		t.Fatalf("remote query = %d: %s", code, stderr.String())
	}
	if stdout.String() != local {
		t.Fatalf("remote output differs from local:\n%s\nvs\n%s", stdout.String(), local)
	}
	if got := stderr.String(); got != "jobs: 2 scanned, 0 pruned\n" {
		t.Errorf("remote stderr = %q", got)
	}
}

// TestRunThenDiff runs a small job into an archive, appends a second
// one, and diffs the archive against itself.
func TestRunThenDiff(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs", "archive.json")
	small := []string{"-vertices", "2000", "-edges", "10000", "-seed", "7", "-archive", path}
	out := granula(t, 0, append([]string{"run", "-platform", "giraph"}, small...)...)
	for _, want := range []string{"model check: job conforms to the Giraph performance model", "(1 job(s))"} {
		if !strings.Contains(out, want) {
			t.Fatalf("run output lacks %q:\n%s", want, out)
		}
	}
	out = granula(t, 0, append([]string{"run", "-platform", "powergraph", "-append"}, small...)...)
	if !strings.Contains(out, "(2 job(s))") {
		t.Fatalf("-append did not add a second job:\n%s", out)
	}
	if out := granula(t, 0, "diff", "-baseline", path, "-current", path); strings.Count(out, "no operations changed beyond the thresholds") != 2 {
		t.Errorf("diff of an archive against itself:\n%s", out)
	}
}

// TestFlagSurface pins each subcommand's command line: a new flag is
// one more configuration for every test to cover, so adding one must
// show up as a reviewed change to this table.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"run":   "algorithm append archive edges graph iterations platform scale seed source vertices",
		"model": "check export in job list platform render",
		"query": "archive breakdown infos job mission path select url",
		"viz":   "archive chart job report svg width",
		"diff":  "baseline current job min-seconds threshold",
	}
	if len(want) != len(subcommands) {
		t.Fatalf("%d subcommands, the table pins %d", len(subcommands), len(want))
	}
	for name, define := range subcommands {
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		define(fs)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		sort.Strings(got)
		if strings.Join(got, " ") != want[name] {
			t.Errorf("granula %s flags:\n%v\nwant:\n%s", name, got, want[name])
		}
	}
}
