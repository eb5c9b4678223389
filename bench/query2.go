package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/url"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/archive"
	"repro/internal/query"
	"repro/internal/shard"
)

// cachedQueries are the eight fixed /query2 requests of the cached
// phase: a dashboard's repeated panels.
var cachedQueries = []string{
	`from jobs group by job.platform agg count, sum(duration)`,
	`from jobs group by mission agg count, sum(duration), max(duration)`,
	`from jobs where mission = Compute group by job.platform, actor agg count, sum(duration), p95(duration)`,
	`from jobs top 3 actor by sum(duration)`,
	`from jobs group by job.algorithm agg count, avg(job.runtime)`,
	`from jobs where depth >= 2 group by depth agg count, p50(duration)`,
	`from jobs group by job.platform, job.algorithm agg count, max(job.supersteps)`,
	`from jobs where duration > 1 group by actor agg count, sum(duration) order by sum(duration) desc limit 10`,
}

// query2Load issues /query2 requests against one base URL and keeps,
// per distinct query text, a checksum of its answer for the oracle.
type query2Load struct {
	cl     *client
	jobs   int     // jobs in the corpus
	lo, hi float64 // job.runtime window only the top two templates exceed
	// pruneFloor is the share of the corpus's segments a pruned query
	// must be answered for from the footer: the jobs whose runtime is
	// not above the window.
	pruneFloor float64
	unique     int // counter behind the unique constants
	etag       map[string]string
	answers    map[string]uint32
	asOf       map[string]int // query text -> jobs in the store when it was answered
	scanRaw    []byte         // one uncached scan answer, for rows per group
}

// newQuery2Load sizes the pruned predicate from the corpus: a runtime
// threshold between the second and third largest template runtime is
// exceeded by 2 of 24 templates, so zone maps answer ≥ 90 % of the
// segments from their footers.
func newQuery2Load(cl *client, c *corpus) *query2Load {
	var runtimes []float64
	for _, t := range c.templates {
		runtimes = append(runtimes, t.out.Runtime)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(runtimes)))
	q := &query2Load{
		cl: cl, jobs: len(c.ids), lo: runtimes[2], hi: runtimes[1],
		etag: map[string]string{}, answers: map[string]uint32{}, asOf: map[string]int{},
	}
	above := 0
	for _, id := range c.ids {
		if c.summaries[id].Runtime > q.lo {
			above++
		}
	}
	q.pruneFloor = 1 - float64(above)/float64(len(c.ids))
	return q
}

// scanQuery is uncached (the constant is new each time) and prunes
// nothing: every segment body is read, decoded and folded.
func (q *query2Load) scanQuery() string {
	q.unique++
	return fmt.Sprintf("from jobs where duration >= 0.%09d group by job.platform, actor agg count, sum(duration), max(duration)", q.unique)
}

// prunedQuery is uncached and is answered for most segments from the
// zone-map footer alone.
func (q *query2Load) prunedQuery() string {
	q.unique++
	x := q.lo + (q.hi-q.lo)*float64(q.unique)/100_000
	if q.unique%2 == 1 {
		return fmt.Sprintf("from jobs where job.platform = Giraph and job.runtime > %.9f group by job.algorithm agg count, max(job.runtime)", x)
	}
	return fmt.Sprintf("from jobs where job.runtime > %.9f group by job.platform agg count, max(job.runtime)", x)
}

// issue sends one /query2 request and checks status, segment
// accounting and, for a repeated query, that the bytes repeat.
// wantPruned is the least share of segments the zone maps must answer,
// or -1 for a request that may come from the response cache.
func (q *query2Load) issue(tr *Tracer, op int, name, raw string, conditional bool, wantPruned float64) (time.Duration, error) {
	path := shard.Query2Path + "?q=" + url.QueryEscape(raw)
	etag := ""
	if conditional {
		etag = q.etag[raw]
	}
	sp := tr.Start(name, 0, op)
	r, err := q.cl.do("GET", path, nil, etag)
	tr.End(sp)
	if err != nil {
		return 0, err
	}
	if r.status == http.StatusNotModified && etag != "" {
		return r.dur, nil
	}
	if r.status != http.StatusOK || len(r.body) == 0 {
		return r.dur, fmt.Errorf("GET /query2 %q: %d: %.200s", raw, r.status, r.body)
	}
	if wantPruned >= 0 {
		scanned, _ := strconv.Atoi(r.header.Get(shard.ScannedHeader))
		pruned, _ := strconv.Atoi(r.header.Get(shard.PrunedHeader))
		if scanned+pruned != q.jobs {
			return r.dur, fmt.Errorf("/query2 %q: %d scanned + %d pruned of %d segments", raw, scanned, pruned, q.jobs)
		}
		if share := ratio(float64(pruned), float64(q.jobs)); (wantPruned == 0 && pruned != 0) || share < wantPruned-1e-9 {
			return r.dur, fmt.Errorf("/query2 %q: %d of %d segments pruned, want share %.2f", raw, pruned, q.jobs, wantPruned)
		}
		if wantPruned == 0 {
			q.scanRaw = r.body
		}
	}
	sum := crc32.ChecksumIEEE(r.body)
	if old, seen := q.answers[raw]; seen && old != sum {
		return r.dur, fmt.Errorf("/query2 %q: bytes changed between identical requests", raw)
	}
	q.answers[raw], q.asOf[raw] = sum, q.jobs
	if tag := r.header.Get("ETag"); tag != "" {
		q.etag[raw] = tag
	}
	return r.dur, nil
}

// oracleJob is one stored job as the tree-walk oracle sees it. Jobs
// that share an operation tree (made from one template, or from
// identical requests) share a tree key: their partial is computed once
// and relabelled.
type oracleJob struct {
	id   string
	tree string
	job  *archive.Job
	meta query.JobMeta
}

// checkOracle recomputes every answer the load received with the
// tree-walk oracle: AggregateTree over each distinct operation tree,
// merged and rendered. jobs lists the store's jobs in the order they
// were written; an answer is checked against those that were there
// when it was given.
func (q *query2Load) checkOracle(e *env, jobs []oracleJob) {
	for _, raw := range sortedKeys(q.answers) {
		parsed, err := query.Parse(raw)
		if err != nil {
			e.incorrect("oracle parse %q: %v", raw, err)
			return
		}
		byTree := map[string]query.JobPartial{}
		present := jobs[:min(q.asOf[raw], len(jobs))]
		partials := make([]query.JobPartial, len(present))
		for i, j := range present {
			jp, done := byTree[j.tree]
			if !done {
				if jp, err = parsed.AggregateTree(j.job, j.meta); err != nil {
					e.incorrect("oracle %q: %v", raw, err)
					return
				}
				byTree[j.tree] = jp
			}
			jp.Job = j.id
			partials[i] = jp
		}
		want, err := parsed.RenderAggregate(raw, "jobs", "", partials)
		if err != nil {
			e.incorrect("oracle render %q: %v", raw, err)
			return
		}
		if crc32.ChecksumIEEE(want) != q.answers[raw] {
			e.incorrect("/query2 %q: answer differs from the tree-walk oracle over %d jobs", raw, len(present))
			return
		}
	}
}

func (q *query2Load) rowsPerGroup() float64 {
	if q.scanRaw == nil {
		return 0
	}
	rows, groups, err := decodeAgg(q.scanRaw)
	if err != nil {
		return 0
	}
	return ratio(float64(rows), float64(groups))
}

func runQuery2Analytics(e *env) error {
	cn, err := startCorpusNode(filepath.Join(e.tmp, "corpus"), e.scaled(corpusJobs), 1)
	if err != nil {
		return err
	}
	defer cn.stop()
	load := newQuery2Load(cn.cl, cn.c)
	if e.scale == 1 && load.pruneFloor < 0.9 {
		e.incorrect("the pruned queries can prune only %.2f of the corpus, the workload needs 0.90", load.pruneFloor)
	}

	// Ops per measured second: on the reference box a scan of the
	// 600-job corpus takes ≈50 ms, a pruned query ≈22 ms, a cached one
	// ≈45 µs, so the three phases take about 4 s, 2.2 s and 1 s at
	// --seconds 10 (80 scans, 100 pruned, 20,000 cached).
	type phase struct {
		name      string
		perSecond float64
		pruned    float64
		next      func(i int) (raw string, conditional bool)
	}
	phases := []phase{
		{"query2.scan", 8, 0, func(int) (string, bool) { return load.scanQuery(), false }},
		{"query2.pruned", 10, load.pruneFloor, func(int) (string, bool) { return load.prunedQuery(), false }},
		{"query2.cached", 2000, -1, func(i int) (string, bool) {
			return cachedQueries[i%len(cachedQueries)], i%5 == 4
		}},
	}
	// runPhases runs the three phases and returns their latencies and
	// the op count.
	runPhases := func(tr *Tracer, frac float64) (smp *samples, total int) {
		smp = newSamples(1)
		for _, ph := range phases {
			n := e.ops(ph.perSecond, frac)
			closedLoop(1, n, 0, func(_, i int) {
				raw, conditional := ph.next(i)
				d, err := load.issue(tr, i, ph.name, raw, conditional, ph.pruned)
				if err != nil {
					e.opFailed(err)
					return
				}
				smp.add(0, ph.name, d)
			})
			total += n
		}
		return smp, total
	}
	runPhases(nil, warmUp) // discarded; it also fills the cache with the fixed queries
	e.measuringFrom()

	before, err := cn.cl.scrape()
	if err != nil {
		return err
	}
	var lat []float64
	for _, p := range e.passes() {
		smp, n := runPhases(p.tr, p.frac)
		e.attempted(n)
		lat = append(lat, median(smp.of("query2.scan")))
		if e.trace {
			continue
		}
		e.set("query2_scan_ms_p50", lat[0])
		e.set("op_ms_p50", lat[0])
		e.set("query2_pruned_ms_p50", median(smp.of("query2.pruned")))
		e.set("query2_cached_ms_p50", median(smp.of("query2.cached")))
		e.set("cold_start_s", cn.c.coldStart.Seconds())
		e.set("live_heap_mb", liveHeapMB())
	}

	if e.trace {
		after, err := cn.cl.scrape()
		if err != nil {
			return err
		}
		counts := counterInputs{node: after.delta(before), rowsPerGroup: load.rowsPerGroup()}
		if err := e.reportTrace(lat, counts, cn.c.layerInputs()); err != nil {
			return err
		}
	}
	load.checkOracle(e, cn.c.oracleJobs())
	cn.checkTemplates(e)
	return nil
}

// decodeAgg reads the rows and group count of a /query2 answer.
func decodeAgg(body []byte) (rows, groups int, err error) {
	var resp struct {
		Rows   int               `json:"rows"`
		Groups []json.RawMessage `json:"groups"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, 0, fmt.Errorf("decode /query2 answer: %w", err)
	}
	return resp.Rows, len(resp.Groups), nil
}
