package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/archive"
)

// genJob builds a random operation tree with missions, actors, and
// timings drawn from vocabularies that exercise the tricky corners:
// numeric-looking symbols ("5", "5.0", "-1"), negative and zero
// durations, occasional infos for tree-only fields.
func genJob(rng *rand.Rand, id string) *archive.Job {
	missions := []string{"Load", "Compute", "Superstep", "Cleanup", "5", "5.0", "-1", "Zed"}
	actors := []string{"Master", "Worker-0", "Worker-1", "Worker-10", "client"}
	opSeq := 0
	var build func(depth int, lo, hi float64) *archive.Operation
	build = func(depth int, lo, hi float64) *archive.Operation {
		opSeq++
		start := lo + rng.Float64()*(hi-lo)
		end := start + rng.Float64()*(hi-start)
		if rng.Intn(10) == 0 {
			end = start // zero duration
		}
		op := &archive.Operation{
			ID:      fmt.Sprintf("%s-op%d", id, opSeq),
			Mission: missions[rng.Intn(len(missions))],
			Actor:   actors[rng.Intn(len(actors))],
			Start:   start,
			End:     end,
		}
		if rng.Intn(4) == 0 {
			op.Infos = map[string]string{"Vertices": fmt.Sprint(rng.Intn(2000))}
		}
		if rng.Intn(6) == 0 {
			op.Derived = map[string]string{"PercentOfJob": fmt.Sprint(rng.Intn(100))}
		}
		if depth < 3 {
			for i, n := 0, rng.Intn(4); i < n; i++ {
				op.Children = append(op.Children, build(depth+1, start, end))
			}
		}
		return op
	}
	lo := -10 + rng.Float64()*20
	return &archive.Job{
		ID:       id,
		Platform: []string{"Giraph", "GraphX", "PGX.D", "PowerGraph"}[rng.Intn(4)],
		Root:     build(0, lo, lo+rng.Float64()*100),
	}
}

func genMeta(rng *rand.Rand, j *archive.Job) JobMeta {
	ops := 0
	j.Root.Walk(func(*archive.Operation) { ops++ })
	return JobMeta{
		ID:         j.ID,
		Platform:   j.Platform,
		Algorithm:  []string{"BFS", "PageRank", "WCC"}[rng.Intn(3)],
		Runtime:    j.Root.Duration(),
		Supersteps: rng.Intn(30),
		Operations: ops,
	}
}

// genAggQuery emits a random valid v2 aggregate query.
func genAggQuery(rng *rand.Rand) string {
	preds := []string{
		`mission = Compute`, `mission != Superstep`, `mission = "5"`, `mission > Load`,
		`actor ~ Worker`, `actor = Master`, `duration > 1`, `duration <= 0`,
		`depth >= 1`, `depth < 2`, `start > 5`, `end <= 40`,
		`job.platform = Giraph`, `job.runtime > 20`, `job.supersteps >= 10`,
		`id ~ op1`,
	}
	var where string
	switch rng.Intn(4) {
	case 0:
	case 1:
		where = "where " + preds[rng.Intn(len(preds))] + " "
	case 2:
		where = fmt.Sprintf("where %s and %s ", preds[rng.Intn(len(preds))], preds[rng.Intn(len(preds))])
	case 3:
		where = fmt.Sprintf("where not (%s or %s) ", preds[rng.Intn(len(preds))], preds[rng.Intn(len(preds))])
	}
	groupSets := [][]string{
		{"mission"}, {"actor"}, {"depth"}, {"mission", "actor"},
		{"job.platform"}, {"job.platform", "mission"}, {"depth", "job.algorithm"},
	}
	group := groupSets[rng.Intn(len(groupSets))]
	aggPool := []string{
		"count", "sum(duration)", "avg(duration)", "min(duration)", "max(duration)",
		"p50(duration)", "p95(duration)", "p99(duration)", "min(start)", "max(end)",
		"min(mission)", "max(actor)", "min(id)", "max(job.runtime)", "sum(depth)",
	}
	rng.Shuffle(len(aggPool), func(i, j int) { aggPool[i], aggPool[j] = aggPool[j], aggPool[i] })
	aggs := aggPool[:1+rng.Intn(4)]

	if rng.Intn(6) == 0 {
		// top-k form.
		byAgg := aggs[0]
		if byAgg == "count" && rng.Intn(2) == 0 {
			byAgg = "sum(duration)"
		}
		return fmt.Sprintf("from jobs %stop %d %s by %s", where, 1+rng.Intn(4), join(group), byAgg)
	}
	q := fmt.Sprintf("from jobs %sgroup by %s agg %s", where, join(group), join(aggs))
	switch rng.Intn(3) {
	case 1:
		q += " order by " + aggs[rng.Intn(len(aggs))]
		if rng.Intn(2) == 0 {
			q += " desc"
		}
	case 2:
		q += " order by " + group[rng.Intn(len(group))] + " desc"
	}
	if rng.Intn(3) == 0 {
		q += fmt.Sprintf(" limit %d", rng.Intn(5))
	}
	return q
}

func join(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}

func marshalPartial(t *testing.T, jp JobPartial) []byte {
	t.Helper()
	b, err := json.Marshal(jp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAggregateFrameTreeEquivalence is the core oracle suite: for
// random jobs and random queries, the columnar frame scan and the
// tree walk must produce byte-identical partials.
func TestAggregateFrameTreeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		job := genJob(rng, fmt.Sprintf("job-%03d", i))
		meta := genMeta(rng, job)
		raw := genAggQuery(rng)
		q, err := Parse(raw)
		if err != nil {
			t.Fatalf("generated query %q does not parse: %v", raw, err)
		}
		f := BuildColumns(job).Frame(meta)
		jpF, errF := q.AggregateFrame(f)
		jpT, errT := q.AggregateTree(job, meta)
		if (errF != nil) != (errT != nil) {
			t.Fatalf("%q: frame err=%v tree err=%v", raw, errF, errT)
		}
		if errF != nil {
			continue
		}
		bf, bt := marshalPartial(t, jpF), marshalPartial(t, jpT)
		if !bytes.Equal(bf, bt) {
			t.Fatalf("%q diverged on %s:\nframe: %s\ntree:  %s", raw, job.ID, bf, bt)
		}
	}
}

// TestCrossJobOracleByteEquivalence renders a full cross-job response
// through the frame path and the tree-walk oracle: byte-identical.
func TestCrossJobOracleByteEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var jobs []*archive.Job
	var metas []JobMeta
	for i := 0; i < 25; i++ {
		j := genJob(rng, fmt.Sprintf("job-%03d", i))
		jobs = append(jobs, j)
		metas = append(metas, genMeta(rng, j))
	}
	for iter := 0; iter < 60; iter++ {
		raw := genAggQuery(rng)
		q, err := Parse(raw)
		if err != nil {
			t.Fatalf("generated query %q does not parse: %v", raw, err)
		}
		var fp, tp []JobPartial
		for i, j := range jobs {
			a, err := q.AggregateFrame(BuildColumns(j).Frame(metas[i]))
			if err != nil {
				t.Fatalf("%q: %v", raw, err)
			}
			b, err := q.AggregateTree(j, metas[i])
			if err != nil {
				t.Fatalf("%q: %v", raw, err)
			}
			fp, tp = append(fp, a), append(tp, b)
		}
		bf, err := q.RenderAggregate(raw, "jobs", "", fp)
		if err != nil {
			t.Fatal(err)
		}
		bt, err := q.RenderAggregate(raw, "jobs", "", tp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bf, bt) {
			t.Fatalf("%q cross-job render diverged:\n%s\nvs\n%s", raw, bf, bt)
		}
	}
}

// TestMergeOrderAndReplicaInvariance: shuffling partials and
// duplicating some (replicas) must not change a byte of the merge.
func TestMergeOrderAndReplicaInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var jobs []*archive.Job
	var metas []JobMeta
	for i := 0; i < 12; i++ {
		j := genJob(rng, fmt.Sprintf("job-%03d", i))
		jobs = append(jobs, j)
		metas = append(metas, genMeta(rng, j))
	}
	for iter := 0; iter < 40; iter++ {
		raw := genAggQuery(rng)
		q, err := Parse(raw)
		if err != nil {
			t.Fatalf("generated query %q does not parse: %v", raw, err)
		}
		var partials []JobPartial
		for i, j := range jobs {
			jp, err := q.AggregateFrame(BuildColumns(j).Frame(metas[i]))
			if err != nil {
				t.Fatalf("%q: %v", raw, err)
			}
			partials = append(partials, jp)
		}
		want, err := q.RenderAggregate(raw, "jobs", "", append([]JobPartial(nil), partials...))
		if err != nil {
			t.Fatal(err)
		}
		shuffled := append([]JobPartial(nil), partials...)
		// Replicas: every job appears 1-3 times.
		for _, jp := range partials {
			for r, n := 0, rng.Intn(3); r < n; r++ {
				shuffled = append(shuffled, jp)
			}
		}
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got, err := q.RenderAggregate(raw, "jobs", "", shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%q merge depends on partial order/replication:\n%s\nvs\n%s", raw, want, got)
		}
	}
}

// TestAggregateRepeatDeterminism runs the same query 50 times from a
// fresh parse and requires identical bytes every run.
func TestAggregateRepeatDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var jobs []*archive.Job
	var metas []JobMeta
	for i := 0; i < 10; i++ {
		j := genJob(rng, fmt.Sprintf("job-%03d", i))
		jobs = append(jobs, j)
		metas = append(metas, genMeta(rng, j))
	}
	raw := `from jobs where duration > 0 group by mission, actor agg count, sum(duration), avg(duration), p95(duration), min(actor), max(end) order by sum(duration) desc`
	var first []byte
	for run := 0; run < 50; run++ {
		q, err := Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		var partials []JobPartial
		for i, j := range jobs {
			jp, err := q.AggregateFrame(BuildColumns(j).Frame(metas[i]))
			if err != nil {
				t.Fatal(err)
			}
			partials = append(partials, jp)
		}
		body, err := q.RenderAggregate(raw, "jobs", "", partials)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(first, body) {
			t.Fatalf("run %d produced different bytes:\n%s\nvs\n%s", run, first, body)
		}
	}
}

// TestAggregateNonFiniteValues pins the NaN/Inf rules: non-finite
// sums and percentiles render as their fixed strings, min/max on a
// column containing NaN falls back to deterministic string order, and
// both engines agree.
func TestAggregateNonFiniteValues(t *testing.T) {
	job := &archive.Job{
		ID: "nf",
		Root: &archive.Operation{
			ID: "r", Mission: "Job", Actor: "M", Start: 0, End: 10,
			Children: []*archive.Operation{
				{ID: "a", Mission: "X", Actor: "W", Start: 0, End: math.Inf(1)},
				{ID: "b", Mission: "X", Actor: "W", Start: math.NaN(), End: 5},
				{ID: "c", Mission: "X", Actor: "W", Start: 2, End: 4},
			},
		},
	}
	meta := JobMeta{ID: "nf", Platform: "Giraph"}
	for _, raw := range []string{
		`group by mission agg sum(duration), min(duration), max(duration), p50(duration)`,
		`group by mission agg min(start), max(start), avg(duration)`,
	} {
		q, err := Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		jpF, errF := q.AggregateFrame(BuildColumns(job).Frame(meta))
		jpT, errT := q.AggregateTree(job, meta)
		if errF != nil || errT != nil {
			t.Fatalf("%q: frame err=%v tree err=%v", raw, errF, errT)
		}
		bf, bt := marshalPartial(t, jpF), marshalPartial(t, jpT)
		if !bytes.Equal(bf, bt) {
			t.Fatalf("%q diverged on non-finite data:\n%s\nvs\n%s", raw, bf, bt)
		}
		if _, err := q.RenderAggregate(raw, "job", "nf", []JobPartial{jpF}); err != nil {
			t.Fatalf("%q: render: %v", raw, err)
		}
	}
}

// bigFrame builds a frame with rows spread over a fixed set of groups
// so the alloc gate can compare different row counts at equal group
// counts.
func bigFrame(rows int) *Frame {
	rng := rand.New(rand.NewSource(23))
	root := &archive.Operation{ID: "r", Mission: "Job", Actor: "M", Start: 0, End: 1e6}
	for i := 0; i < rows-1; i++ {
		start := rng.Float64() * 1000
		root.Children = append(root.Children, &archive.Operation{
			ID:      fmt.Sprintf("op%d", i),
			Mission: []string{"Load", "Compute", "Superstep", "Cleanup"}[i%4],
			Actor:   fmt.Sprintf("Worker-%d", i%8),
			Start:   start,
			End:     start + rng.Float64()*10,
		})
	}
	job := &archive.Job{ID: "big", Platform: "Giraph", Root: root}
	return BuildColumns(job).Frame(JobMeta{ID: "big", Platform: "Giraph", Runtime: 100})
}

// TestAggregateFrameAllocsScaleWithGroups gates the hot loop: for a
// non-percentile query, allocations are O(distinct groups), so the
// per-run alloc count must not grow with the row count.
func TestAggregateFrameAllocsScaleWithGroups(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	q, err := Parse(`from jobs where duration >= 0 group by mission, actor agg count, sum(duration), min(duration), max(actor)`)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(f *Frame) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := q.AggregateFrame(f); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := bigFrame(1000), bigFrame(8000)
	a1, a8 := measure(small), measure(large)
	// Same group structure at 8x the rows: identical allocations, with
	// a tiny slack for map-growth nondeterminism.
	if a8 > a1+8 {
		t.Fatalf("hot loop allocates per row: %.0f allocs at 1k rows, %.0f at 8k", a1, a8)
	}
	t.Logf("allocs: %.0f at 1k rows, %.0f at 8k rows", a1, a8)
}

// --- benchmarks: segment scan vs deserialize-and-tree-walk ---

// benchJob builds an archive shaped like a real Granula capture: a
// Job root, graph load/offload phases, and a processing phase of ~60
// supersteps each fanned out over 4 workers — ~300 operations per job.
// 1 job in 20 is a straggler with a long runtime, so zone maps on
// job.runtime can prune the other 95%.
func benchJob(rng *rand.Rand, id string, i int) (*archive.Job, JobMeta) {
	platform := []string{"Giraph", "PowerGraph", "OpenG"}[i%3]
	runtime := 50 + rng.Float64()*50
	if i%20 == 0 {
		runtime = 150 + rng.Float64()*50
	}
	root := &archive.Operation{ID: id + "-r", Mission: "Job", Actor: "Client", Start: 0, End: runtime}
	root.Children = append(root.Children,
		&archive.Operation{ID: id + "-l", Mission: "LoadGraph", Actor: "Master", Start: 0, End: runtime * 0.1})
	proc := &archive.Operation{ID: id + "-p", Mission: "ProcessGraph", Actor: "Master",
		Start: runtime * 0.1, End: runtime * 0.95}
	const steps, workers = 60, 4
	span := (proc.End - proc.Start) / steps
	for s := 0; s < steps; s++ {
		ss := &archive.Operation{
			ID: fmt.Sprintf("%s-s%d", id, s), Mission: "Superstep", Actor: "Master",
			Start: proc.Start + float64(s)*span, End: proc.Start + float64(s+1)*span,
		}
		for w := 0; w < workers; w++ {
			ss.Children = append(ss.Children, &archive.Operation{
				ID: fmt.Sprintf("%s-s%d-w%d", id, s, w), Mission: "Compute",
				Actor: fmt.Sprintf("Worker-%d", w),
				Start: ss.Start, End: ss.Start + rng.Float64()*span,
			})
		}
		proc.Children = append(proc.Children, ss)
	}
	root.Children = append(root.Children, proc,
		&archive.Operation{ID: id + "-c", Mission: "Cleanup", Actor: "Master", Start: runtime * 0.95, End: runtime})
	job := &archive.Job{ID: id, Platform: platform, Root: root}
	meta := JobMeta{
		ID: id, Platform: platform, Algorithm: []string{"BFS", "PageRank"}[i%2],
		Runtime: runtime, Supersteps: steps, Operations: 3 + steps*(workers+1),
	}
	return job, meta
}

// benchCorpus is a frozen corpus of jobs in both representations: the
// encoded columnar segments the v2 engine scans, and the persisted
// JSON records the v1 path would deserialize and walk.
type benchCorpus struct {
	segs  [][]byte
	blobs [][]byte
	metas []JobMeta
	query *Query
	raw   string
}

func buildBenchCorpus(tb testing.TB, jobs int, raw string) *benchCorpus {
	tb.Helper()
	rng := rand.New(rand.NewSource(29))
	q, err := Parse(raw)
	if err != nil {
		tb.Fatal(err)
	}
	c := &benchCorpus{query: q, raw: raw}
	for i := 0; i < jobs; i++ {
		j, meta := benchJob(rng, fmt.Sprintf("job-%04d", i), i)
		seg, err := EncodeSegment(BuildColumns(j).Frame(meta), 1)
		if err != nil {
			tb.Fatal(err)
		}
		blob, err := json.Marshal(j)
		if err != nil {
			tb.Fatal(err)
		}
		c.segs = append(c.segs, seg)
		c.blobs = append(c.blobs, blob)
		c.metas = append(c.metas, meta)
	}
	return c
}

const benchQuery = `from jobs where mission = Compute group by job.platform, actor agg count, sum(duration), max(duration)`
const benchPrunedQuery = `from jobs where job.runtime > 120 group by job.platform agg count, max(job.runtime)`

// runSegments is the production read path in miniature: decode the
// zone-map footer from the segment tail, prune if the stats prove no
// row can match, and only decode the body of surviving segments.
func (c *benchCorpus) runSegments(tb testing.TB) ([]byte, int) {
	partials := make([]JobPartial, 0, len(c.segs))
	pruned := 0
	for _, seg := range c.segs {
		tail := seg
		if len(tail) > SegmentTailHint {
			tail = seg[len(seg)-SegmentTailHint:]
		}
		st, err := DecodeSegmentStats(tail, int64(len(seg)))
		if err != nil {
			tb.Fatal(err)
		}
		if c.query.PruneAgainst(st) {
			pruned++
			partials = append(partials, PrunedPartial(st.Meta.ID))
			continue
		}
		f, _, err := DecodeSegment(seg)
		if err != nil {
			tb.Fatal(err)
		}
		jp, err := c.query.AggregateFrame(f)
		if err != nil {
			tb.Fatal(err)
		}
		partials = append(partials, jp)
	}
	body, err := c.query.RenderAggregate(c.raw, "jobs", "", partials)
	if err != nil {
		tb.Fatal(err)
	}
	return body, pruned
}

func (c *benchCorpus) runTreeWalk(tb testing.TB) []byte {
	partials := make([]JobPartial, 0, len(c.blobs))
	for i, blob := range c.blobs {
		var j archive.Job
		if err := json.Unmarshal(blob, &j); err != nil {
			tb.Fatal(err)
		}
		jp, err := c.query.AggregateTree(&j, c.metas[i])
		if err != nil {
			tb.Fatal(err)
		}
		partials = append(partials, jp)
	}
	body, err := c.query.RenderAggregate(c.raw, "jobs", "", partials)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestBenchPathsAgree pins that the segment path and the tree walk
// answer the same bytes, with and without pruning in play.
func TestBenchPathsAgree(t *testing.T) {
	for _, raw := range []string{benchQuery, benchPrunedQuery} {
		c := buildBenchCorpus(t, 50, raw)
		got, pruned := c.runSegments(t)
		want := c.runTreeWalk(t)
		if !bytes.Equal(got, want) {
			t.Fatalf("%q: bench paths disagree:\n%s\nvs\n%s", raw, got, want)
		}
		if raw == benchPrunedQuery && pruned == 0 {
			t.Fatalf("%q: prunes nothing", raw)
		}
	}
}

// groupFrame builds a frame of rows operations over exactly groups
// (mission, actor) pairs.
func groupFrame(rows, groups int) *Frame {
	root := &archive.Operation{ID: "r", Mission: "Job", Actor: "Worker-0", Start: 0, End: 1e6}
	for i := 0; i < rows-1; i++ {
		g := (i + 1) % groups
		root.Children = append(root.Children, &archive.Operation{
			ID: fmt.Sprintf("op%d", i), Mission: "Compute", Actor: fmt.Sprintf("Worker-%d", g),
			Start: float64(i % 1000), End: float64(i%1000) + float64(i%7)/2,
		})
	}
	root.Mission = "Compute"
	return BuildColumns(&archive.Job{ID: "g", Platform: "Giraph", Root: root}).Frame(JobMeta{ID: "g", Platform: "Giraph", Runtime: 100})
}

// TestScanAllocsPerGroup gates the kernel's allocations per frame: a
// fixed number of slices sized by the group count (the groups, their
// keys, their partials) whatever the rows and the groups, and one more
// per percentile aggregate, which keeps every matching value in one
// array: its bytes grow with the rows, its count does not.
func TestScanAllocsPerGroup(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	for _, c := range []struct {
		raw  string
		want float64
	}{
		{`from jobs where duration >= 0 group by mission, actor agg count, sum(duration), min(duration), max(actor)`, 3},
		{`from jobs where duration > 1 and not actor = Worker-3 group by job.platform, actor agg count, avg(end), max(duration)`, 3},
		{`from jobs group by actor, depth agg count, p95(duration), p50(start)`, 5},
	} {
		q, err := Parse(c.raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range []int{1000, 8000} {
			for _, groups := range []int{8, 64} {
				f := groupFrame(rows, groups)
				got := testing.AllocsPerRun(20, func() {
					if _, err := q.AggregateFrame(f); err != nil {
						t.Fatal(err)
					}
				})
				if got != c.want {
					t.Errorf("%q: %.0f allocs per frame at %d rows in %d groups, want %.0f", c.raw, got, rows, groups, c.want)
				}
			}
		}
	}
}
