package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/query"
)

// queryCmd inspects a performance archive: it lists jobs, resolves
// mission paths, filters by mission, prints recorded and derived infos,
// and runs the query language — row queries and aggregates over one job
// (-job), or aggregates across every job ("from jobs ..."). With -url
// the -select query runs against a live granula-serve or cluster
// router instead: cross-job queries hit GET /query2, single-job ones
// GET /jobs/{id}/query.
func queryCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) int {
	archivePath := fs.String("archive", "", "archive JSON path")
	serveURL := fs.String("url", "", "granula-serve or router base URL; queries run remotely instead of over -archive")
	jobID := fs.String("job", "", "job ID to inspect")
	path := fs.String("path", "", "mission path to resolve, e.g. GiraphJob/ProcessGraph/Superstep")
	mission := fs.String("mission", "", "list every operation with this mission")
	sel := fs.String("select", "", `query expression, e.g. "mission = Compute and duration > 1 order by duration desc limit 5"`)
	breakdown := fs.Bool("breakdown", false, "print the domain-level breakdown")
	infos := fs.Bool("infos", false, "include recorded and derived infos per operation")
	return func(stdout, stderr io.Writer) int {
		var q *query.Query
		if *sel != "" {
			var err error
			if q, err = query.Parse(*sel); err != nil {
				return errorf(stderr, "%v", err)
			}
		}
		singleJob := (q != nil && !q.FromJobs()) || *path != "" || *mission != "" || *breakdown
		if singleJob && *jobID == "" {
			return errorf(stderr, "granula query: needs -job <id> or 'from jobs'")
		}
		if *serveURL != "" {
			if q == nil {
				return errorf(stderr, "granula query: -url needs -select")
			}
			return queryRemote(stdout, stderr, *serveURL, *jobID, q, *sel)
		}
		if *archivePath == "" {
			return errorf(stderr, "usage: granula query -archive <file> [-job <id>] [-path|-mission|-breakdown|-select <query>]\n       granula query -url <base> -select <query> [-job <id>]")
		}
		a, err := loadArchive(*archivePath)
		if err != nil {
			return errorf(stderr, "%v", err)
		}
		if q != nil && q.FromJobs() {
			return printAggregate(stdout, stderr, q, *sel, "jobs", "", a.Jobs)
		}
		if *jobID == "" {
			fmt.Fprintf(stdout, "%d job(s):\n", len(a.Jobs))
			for _, j := range a.Jobs {
				fmt.Fprintf(stdout, "  %-30s platform=%-12s makespan=%.2fs ops=%d samples=%d\n",
					j.ID, j.Platform, j.Root.Duration(), countOps(j), len(j.EnvSamples))
			}
			return exitOK
		}
		job, err := pickJob(a, *jobID)
		if err != nil {
			return errorf(stderr, "%v", err)
		}

		var ops []*archive.Operation
		switch {
		case *breakdown:
			b, err := core.DomainBreakdown(job)
			if err != nil {
				return errorf(stderr, "%v", err)
			}
			fmt.Fprintln(stdout, b)
			return exitOK
		case q != nil && q.IsAggregate():
			return printAggregate(stdout, stderr, q, *sel, "job", job.ID, []*archive.Job{job})
		case q != nil:
			// Rows are depth-first, the order Walk visits.
			var all []*archive.Operation
			job.Root.Walk(func(op *archive.Operation) { all = append(all, op) })
			for _, r := range q.SelectColumns(query.BuildColumns(job)) {
				ops = append(ops, all[r])
			}
		case *path != "":
			ops = job.Find(strings.Split(*path, "/")...)
		case *mission != "":
			ops = job.FindAll(*mission)
		default:
			ops = []*archive.Operation{job.Root}
		}
		if len(ops) == 0 {
			fmt.Fprintln(stderr, "no operations matched")
			return exitFinding
		}
		for _, op := range ops {
			fmt.Fprintf(stdout, "%-10s %-22s %-22s start=%9.3f dur=%9.3f\n",
				op.ID, op.Mission, op.Actor, op.Start, op.Duration())
			if *infos {
				printKV(stdout, "  info   ", op.Infos)
				printKV(stdout, "  derived", op.Derived)
			}
		}
		return exitOK
	}
}

func countOps(j *archive.Job) int {
	n := 0
	j.Root.Walk(func(*archive.Operation) { n++ })
	return n
}

func printKV(w io.Writer, label string, m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %s=%s\n", label, k, m[k])
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
func printAggregate(stdout, stderr io.Writer, q *query.Query, raw, scope, jobID string, jobs []*archive.Job) int {
	partials := make([]query.JobPartial, 0, len(jobs))
	for _, j := range jobs {
		jp, err := q.AggregateFrame(query.BuildColumns(j).Frame(cliJobMeta(j)))
		if err != nil {
			return errorf(stderr, "%v", err)
		}
		partials = append(partials, jp)
	}
	body, err := q.RenderAggregate(raw, scope, jobID, partials)
	if err != nil {
		return errorf(stderr, "%v", err)
	}
	stdout.Write(body)
	return exitOK
}

// queryRemote runs the query against a live service and prints its
// deterministic JSON response verbatim.
func queryRemote(stdout, stderr io.Writer, base, jobID string, q *query.Query, raw string) int {
	target := strings.TrimRight(base, "/") + "/query2?q=" + url.QueryEscape(raw)
	if !q.FromJobs() {
		target = strings.TrimRight(base, "/") + "/jobs/" + url.PathEscape(jobID) + "/query?q=" + url.QueryEscape(raw)
	}
	resp, err := http.Get(target)
	if err != nil {
		return errorf(stderr, "%v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return errorf(stderr, "read response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return errorf(stderr, "%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if scanned := resp.Header.Get("X-Granula-Scanned"); scanned != "" {
		fmt.Fprintf(stderr, "jobs: %s scanned, %s pruned\n", scanned, resp.Header.Get("X-Granula-Pruned"))
	}
	stdout.Write(body)
	return exitOK
}
