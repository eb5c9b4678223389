// Command granula-query inspects a Granula performance archive: it lists
// jobs, resolves mission paths, filters by mission, and prints recorded
// and derived infos — the systematic querying the archive format exists
// for.
//
// Examples:
//
//	granula-query -archive out/archive.json                      # list jobs
//	granula-query -archive out/archive.json -job giraph-bfs-dg1000 -breakdown
//	granula-query -archive out/archive.json -job giraph-bfs-dg1000 \
//	              -path GiraphJob/ProcessGraph/Superstep
//	granula-query -archive out/archive.json -job giraph-bfs-dg1000 -mission Compute
//	granula-query -archive out/archive.json -job giraph-bfs-dg1000 \
//	              -select "mission = Compute and duration > 1 order by duration desc limit 5"
//
// The v2 analytical syntax aggregates instead of listing rows —
// across every job in the archive with "from jobs":
//
//	granula-query -archive out/archive.json \
//	              -select "from jobs where mission = Superstep group by job.platform agg count, avg(duration)"
//	granula-query -archive out/archive.json -job giraph-bfs-dg1000 \
//	              -select "group by mission agg count, p95(duration)"
//
// With -url the same queries run against a live granula-serve (or
// cluster router) instead of a local archive file: cross-job queries
// hit GET /query2, single-job aggregates hit GET /jobs/{id}/query.
//
//	granula-query -url http://localhost:8080 \
//	              -select "from jobs group by job.platform agg count, max(job.runtime)"
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/query"
)

func main() {
	archivePath := flag.String("archive", "", "archive JSON path")
	serveURL := flag.String("url", "", "granula-serve or router base URL; queries run remotely instead of over -archive")
	jobID := flag.String("job", "", "job ID to inspect")
	path := flag.String("path", "", "mission path to resolve, e.g. GiraphJob/ProcessGraph/Superstep")
	mission := flag.String("mission", "", "list every operation with this mission")
	sel := flag.String("select", "", `query expression, e.g. "mission = Compute and duration > 1 order by duration desc limit 5"`)
	breakdown := flag.Bool("breakdown", false, "print the domain-level breakdown")
	infos := flag.Bool("infos", false, "include recorded and derived infos per operation")
	flag.Parse()

	if *serveURL != "" {
		runRemote(*serveURL, *jobID, *sel)
		return
	}
	if *archivePath == "" {
		fmt.Fprintln(os.Stderr, "usage: granula-query -archive <file> [-job <id>] [-path|-mission|-breakdown|-select <query>]\n       granula-query -url <base> -select <query> [-job <id>]")
		os.Exit(2)
	}
	f, err := os.Open(*archivePath)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	a, err := archive.Load(f)
	if err != nil {
		fatalf("load archive: %v", err)
	}

	// v2 queries aggregate; parse -select up front so a cross-job
	// query ("from jobs ...") can run without -job.
	var q *query.Query
	if *sel != "" {
		if q, err = query.Parse(*sel); err != nil {
			fatalf("%v", err)
		}
		if q.FromJobs() {
			printAggregate(q, *sel, "jobs", "", a.Jobs)
			return
		}
	}

	if *jobID == "" {
		fmt.Printf("%d job(s):\n", len(a.Jobs))
		for _, j := range a.Jobs {
			fmt.Printf("  %-30s platform=%-12s makespan=%.2fs ops=%d samples=%d\n",
				j.ID, j.Platform, j.Root.Duration(), countOps(j), len(j.EnvSamples))
		}
		return
	}
	job := a.Job(*jobID)
	if job == nil {
		fatalf("no job %q in archive", *jobID)
	}

	switch {
	case *breakdown:
		b, err := core.DomainBreakdown(job)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(b)
	case *sel != "":
		if q.IsAggregate() {
			printAggregate(q, *sel, "job", job.ID, []*archive.Job{job})
			return
		}
		ops := q.SelectColumns(query.BuildColumns(job))
		if len(ops) == 0 {
			fatalf("no operations match %q", *sel)
		}
		printOps(ops, *infos)
	case *path != "":
		ops := job.Find(strings.Split(*path, "/")...)
		if len(ops) == 0 {
			fatalf("no operations at path %q", *path)
		}
		printOps(ops, *infos)
	case *mission != "":
		ops := job.FindAll(*mission)
		if len(ops) == 0 {
			fatalf("no operations with mission %q", *mission)
		}
		printOps(ops, *infos)
	default:
		printOps([]*archive.Operation{job.Root}, *infos)
	}
}

func countOps(j *archive.Job) int {
	n := 0
	j.Root.Walk(func(*archive.Operation) { n++ })
	return n
}

func printOps(ops []*archive.Operation, withInfos bool) {
	for _, op := range ops {
		fmt.Printf("%-10s %-22s %-22s start=%9.3f dur=%9.3f\n",
			op.ID, op.Mission, op.Actor, op.Start, op.Duration())
		if withInfos {
			printKV("  info   ", op.Infos)
			printKV("  derived", op.Derived)
		}
	}
}

func printKV(label string, m map[string]string) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s %s=%s\n", label, k, m[k])
	}
}

// cliJobMeta derives the job.* metadata fields from a raw archive.
// Raw archives carry no execution summary, so job.algorithm is empty,
// job.runtime is the root operation's span, and job.supersteps counts
// operations with the Superstep mission — close enough for filtering
// and grouping; the service's /query2 uses the authoritative summary.
func cliJobMeta(j *archive.Job) query.JobMeta {
	runtime := 0.0
	supersteps := 0
	if j.Root != nil {
		runtime = j.Root.Duration()
		supersteps = len(j.FindAll("Superstep"))
	}
	return query.JobMeta{
		ID:         j.ID,
		Platform:   j.Platform,
		Runtime:    runtime,
		Supersteps: supersteps,
		Operations: countOps(j),
	}
}

// printAggregate runs an aggregate query over the given jobs with the
// exact engine the service uses (per-job partials, canonical-fold
// merge) and prints the service's byte format.
func printAggregate(q *query.Query, raw, scope, jobID string, jobs []*archive.Job) {
	partials := make([]query.JobPartial, 0, len(jobs))
	for _, j := range jobs {
		f := query.BuildColumns(j).Frame(cliJobMeta(j))
		jp, err := q.AggregateFrame(f)
		if err != nil {
			fatalf("%v", err)
		}
		partials = append(partials, jp)
	}
	body, err := q.RenderAggregate(raw, scope, jobID, partials)
	if err != nil {
		fatalf("%v", err)
	}
	os.Stdout.Write(body)
}

// runRemote executes -select against a live granula-serve (or cluster
// router): cross-job queries hit GET /query2, single-job aggregates
// and row queries hit GET /jobs/{id}/query. The response body is the
// service's deterministic JSON, printed verbatim.
func runRemote(base, jobID, sel string) {
	if sel == "" {
		fatalf("-url needs -select")
	}
	q, err := query.Parse(sel)
	if err != nil {
		fatalf("%v", err)
	}
	var target string
	switch {
	case q.FromJobs():
		target = strings.TrimRight(base, "/") + "/query2?q=" + url.QueryEscape(sel)
	case jobID != "":
		target = strings.TrimRight(base, "/") + "/jobs/" + url.PathEscape(jobID) + "/query?q=" + url.QueryEscape(sel)
	default:
		fatalf("remote query needs either 'from jobs ...' or -job <id>")
	}
	resp, err := http.Get(target)
	if err != nil {
		fatalf("%v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatalf("read response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		fatalf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if scanned := resp.Header.Get("X-Granula-Scanned"); scanned != "" {
		fmt.Fprintf(os.Stderr, "segments: %s scanned, %s pruned\n",
			scanned, resp.Header.Get("X-Granula-Pruned"))
	}
	os.Stdout.Write(body)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
