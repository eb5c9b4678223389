package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/archive"
)

// diffJob draws an operation tree for the kernel differential: symbols
// that read as numbers ("2", "10", "5.0", "NaN", "-Inf") beside words,
// zero, negative and non-finite durations, and infos and derived infos
// whose values are numbers, words, non-finite spellings and "".
func diffJob(rng *rand.Rand, id string) *archive.Job {
	words := []string{"Load", "Compute", "Superstep", "2", "10", "1a", "5.0", "NaN", "-Inf", "Worker-1", "worker-10", ""}
	vals := []string{"0", "7", "-3", "10", "2", "1a", "x", "NaN", "+Inf", "1e3", "0.5", ""}
	num := func() float64 {
		switch rng.Intn(40) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		case 3:
			return math.Copysign(0, -1)
		}
		return float64(rng.Intn(200)-50) / 4
	}
	seq := 0
	var build func(depth int) *archive.Operation
	build = func(depth int) *archive.Operation {
		seq++
		start := num()
		end := start + float64(rng.Intn(20))/2
		if rng.Intn(25) == 0 {
			end = num()
		}
		op := &archive.Operation{
			ID:      fmt.Sprintf("%s-%d", id, seq),
			Mission: words[rng.Intn(len(words))],
			Actor:   words[rng.Intn(len(words))],
			Start:   start,
			End:     end,
		}
		if rng.Intn(3) == 0 {
			op.Infos = map[string]string{"V": vals[rng.Intn(len(vals))]}
			if rng.Intn(2) == 0 {
				op.Infos["W"] = vals[rng.Intn(len(vals))]
			}
		}
		if rng.Intn(4) == 0 {
			op.Derived = map[string]string{"P": vals[rng.Intn(len(vals))]}
		}
		if depth < 3 {
			for i, n := 0, rng.Intn(5); i < n; i++ {
				op.Children = append(op.Children, build(depth+1))
			}
		}
		return op
	}
	return &archive.Job{ID: id, Platform: []string{"Giraph", "PowerGraph", "10", "2"}[rng.Intn(4)], Root: build(0)}
}

// diffQuery draws an aggregate query for the differential: where
// clauses over every field kind, group keys from one job.* field to
// five columns, and every aggregate function over numeric, string,
// job.*, info. and derived. fields.
func diffQuery(rng *rand.Rand) string {
	preds := []string{
		`mission = Compute`, `mission != 2`, `mission > 10`, `actor ~ orker`, `actor <= 1a`,
		`id ~ -1`, `duration > 1`, `duration <= 0`, `duration = NaN`, `duration > -Inf`,
		`start >= 2.5`, `end < 10`, `end ~ 5`, `depth >= 1`, `depth != 2`, `depth ~ 1`,
		`info.V > 2`, `info.V = NaN`, `info.W ~ 1`, `derived.P < 10`, `INFO.V = 7`,
		`job.platform = Giraph`, `job.runtime > 5`, `job.supersteps <= 3`, `job.id ~ d`,
	}
	where := ""
	pick := func() string { return preds[rng.Intn(len(preds))] }
	switch rng.Intn(6) {
	case 1, 2:
		where = "where " + pick() + " "
	case 3:
		where = fmt.Sprintf("where %s and %s ", pick(), pick())
	case 4:
		where = fmt.Sprintf("where %s or not %s ", pick(), pick())
	case 5:
		where = fmt.Sprintf("where not (%s or %s) and %s ", pick(), pick(), pick())
	}
	fields := []string{"mission", "actor", "id", "depth", "job.platform", "job.runtime", "info.V", "derived.P", "Info.W"}
	rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	group := fields[:1+rng.Intn(5)]
	pool := []string{
		"count", "sum(duration)", "avg(start)", "sum(depth)", "avg(job.runtime)", "sum(job.supersteps)",
		"min(duration)", "max(duration)", "min(end)", "max(depth)", "min(mission)", "max(actor)",
		"min(id)", "max(job.platform)", "min(job.runtime)", "max(info.V)", "min(info.W)", "max(derived.P)",
		"min(INFO.V)", "p50(duration)", "p95(start)", "p99(depth)", "p95(job.operations)",
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	aggs := pool[:1+rng.Intn(5)]
	q := fmt.Sprintf("from jobs %sgroup by %s agg %s", where, strings.Join(group, ", "), strings.Join(aggs, ", "))
	switch rng.Intn(3) {
	case 1:
		q += " order by " + aggs[rng.Intn(len(aggs))]
	case 2:
		q += " order by " + group[rng.Intn(len(group))]
	}
	if strings.Contains(q, " order by ") && rng.Intn(2) == 0 {
		q += " desc"
	}
	if rng.Intn(4) == 0 {
		q += fmt.Sprintf(" limit %d", rng.Intn(6))
	}
	return q
}

// diffFrames returns each job's frame as the store builds it and, for
// jobs whose values a segment can hold, as a decoded segment.
func diffFrames(t testing.TB, jobs []*archive.Job, metas []JobMeta) []*Frame {
	var out []*Frame
	for i, j := range jobs {
		f := BuildColumns(j).Frame(metas[i])
		out = append(out, f)
		seg, err := EncodeSegment(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		dec, _, err := DecodeSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		dec.Meta.ID += "-seg"
		out = append(out, dec)
	}
	return out
}

// kernelDiff is what the differential found for one query: whether it
// ran, and whether the merged bytes differed from the parent's only in
// the order of groups the query's order puts in a cycle.
type kernelDiff struct {
	ran, reordered bool
}

// diffKernel runs one query through the kernel and the parent's scan
// over every frame and fails on any difference but the one the typed
// merge makes on purpose: the parent's merge fed its groups to
// orderGroups in the order each job's partial sorted them, so for
// groups the query's order (compareValues on a group field or an
// aggregate, then cmpKey) puts in a cycle, its result hung on that
// order; the typed merge first puts the groups in plain string order.
// Where the bytes differ, the parent's merged groups are put in that
// order, ordered and limited the same way, and must then render the
// kernel's bytes exactly.
func diffKernel(t testing.TB, raw string, frames []*Frame) kernelDiff {
	q, err := Parse(raw)
	if err != nil {
		t.Fatalf("%q does not parse: %v", raw, err)
	}
	var news []JobPartial
	var olds []oldJobPartial
	for _, f := range frames {
		jp, err := q.AggregateFrame(f)
		op, oerr := oldAggregateFrame(q, f)
		if fmt.Sprint(err) != fmt.Sprint(oerr) {
			t.Fatalf("%q on %s: kernel error %v, parent %v", raw, f.Meta.ID, err, oerr)
		}
		// The where clause selects the rows the parent's filter visits.
		s := getScan(f)
		sel, serr := s.selection(q.where)
		var want []int32
		if scan, ferr := oldFilter(q, f); ferr == nil {
			scan(func(r int) { want = append(want, int32(r)) })
		}
		if serr == nil && !slices.Equal(sel, want) {
			t.Fatalf("%q on %s: selection %v, parent's filter %v", raw, f.Meta.ID, sel, want)
		}
		s.release()
		if err != nil {
			continue
		}
		b, err := json.Marshal(jp)
		if err != nil {
			t.Fatal(err)
		}
		ob, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, ob) {
			t.Fatalf("%q on %s: partials differ:\nkernel: %s\nparent: %s", raw, f.Meta.ID, b, ob)
		}
		news, olds = append(news, jp), append(olds, op)
	}
	if len(news) == 0 {
		return kernelDiff{}
	}
	got, err := q.RenderAggregate(raw, "jobs", "", news)
	if err != nil {
		t.Fatalf("%q: %v", raw, err)
	}
	// The router's path: the partials through their wire form.
	wire, err := json.Marshal(news)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []JobPartial
	if err := json.Unmarshal(wire, &decoded); err != nil {
		t.Fatal(err)
	}
	routed, err := q.RenderAggregate(raw, "jobs", "", decoded)
	if err != nil {
		t.Fatalf("%q: decoded partials: %v", raw, err)
	}
	if !bytes.Equal(got, routed) {
		t.Fatalf("%q: merged in memory and through the wire differ:\n%s\nvs\n%s", raw, got, routed)
	}
	oldResp, err := oldMergePartials(q, raw, "jobs", "", olds)
	if err != nil {
		t.Fatalf("%q: parent merge: %v", raw, err)
	}
	want, err := RenderAggResponse(oldResp)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return kernelDiff{ran: true}
	}
	all := *q
	all.limit = -1
	oldResp, err = oldMergePartials(&all, raw, "jobs", "", olds)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(oldResp.Groups, func(a, b AggGroupView) int { return slices.Compare(a.Key, b.Key) })
	q.orderGroups(oldResp.Groups)
	if q.limit >= 0 && len(oldResp.Groups) > q.limit {
		oldResp.Groups = oldResp.Groups[:q.limit]
	}
	reordered, err := RenderAggResponse(oldResp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reordered) {
		t.Fatalf("%q: merged responses differ:\nkernel: %s\nparent, reordered: %s", raw, got, reordered)
	}
	return kernelDiff{ran: true, reordered: true}
}

// diffCorpus draws n jobs and their metadata.
func diffCorpus(rng *rand.Rand, n int) ([]*archive.Job, []JobMeta) {
	var jobs []*archive.Job
	var metas []JobMeta
	for i := 0; i < n; i++ {
		j := diffJob(rng, fmt.Sprintf("d%02d", i))
		ops := 0
		j.Root.Walk(func(*archive.Operation) { ops++ })
		jobs = append(jobs, j)
		metas = append(metas, JobMeta{
			ID: j.ID, Platform: j.Platform, Algorithm: []string{"BFS", "WCC"}[rng.Intn(2)],
			Runtime: []float64{3, 7.5, math.Inf(1), 12}[rng.Intn(4)], Supersteps: rng.Intn(6), Operations: ops,
		})
	}
	return jobs, metas
}

// TestKernelMatchesParentScan is the differential of the frame scan
// kernel and the typed merge against the parent commit's closure scan
// and string partials (oldscan_test.go): random jobs, as built and as
// decoded segments, under random aggregate queries. Partials must
// encode to the same bytes, the where clause must select the same rows,
// and the merged response must render the same bytes in memory and
// through the wire form. The one difference it tolerates, and counts,
// is the merged order of groups the query's order puts in a cycle, and
// only in the exact order the typed merge defines.
func TestKernelMatchesParentScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4601))
	jobs, metas := diffCorpus(rng, 12)
	frames := diffFrames(t, jobs, metas)
	ran, reordered := 0, 0
	for i := 0; i < 800; i++ {
		d := diffKernel(t, diffQuery(rng), frames)
		if d.ran {
			ran++
		}
		if d.reordered {
			reordered++
		}
	}
	if ran < 400 {
		t.Fatalf("only %d of 800 queries ran on some frame", ran)
	}
	t.Logf("%d queries ran; %d differed only in the order of groups their order puts in a cycle", ran, reordered)
}

// TestKernelWideGroupKeys covers the group keys the differential's
// small frames cannot reach: more than denseBits bits (a map) and more
// than 64 bits (numbered in two passes), on 6,000 operations whose
// symbol and info tables are thousands of entries long.
func TestKernelWideGroupKeys(t *testing.T) {
	root := &archive.Operation{ID: "r", Mission: "Job", Actor: "M", Start: 0, End: 1e4}
	for i := 0; i < 6000; i++ {
		root.Children = append(root.Children, &archive.Operation{
			ID: fmt.Sprintf("op%d", i), Mission: fmt.Sprintf("m%d", i%7), Actor: fmt.Sprintf("w%d", i%5),
			Start: float64(i), End: float64(i) + float64(i%13)/4,
			Infos:   map[string]string{"A": fmt.Sprint(i % 3000), "B": fmt.Sprint(i % 11), "D": fmt.Sprint(i % 4)},
			Derived: map[string]string{"C": fmt.Sprint(i % 2)},
		})
	}
	f := BuildColumns(&archive.Job{ID: "wide", Root: root}).Frame(JobMeta{ID: "wide", Platform: "Giraph", Runtime: 1e4})
	for _, raw := range []string{
		`from jobs group by mission agg count, sum(duration), max(info.A)`,                                     // 13 bits: dense
		`from jobs group by depth, derived.C agg count, min(info.B)`,                                           // 13 bits: dense
		`from jobs group by mission, id agg count, min(duration), p50(start)`,                                  // 26 bits: map
		`from jobs where depth = 1 group by id, actor, mission, info.A, info.B, derived.C agg count, sum(end)`, // 75 bits: two passes
		`from jobs group by info.A, mission, id, actor, info.B agg count, max(actor) order by count desc limit 20`,
		`from jobs group by info.A, mission, actor, info.B, derived.C, info.D agg count, sum(duration)`, // 74 bits, no unique column
	} {
		d := diffKernel(t, raw, []*Frame{f})
		if !d.ran || d.reordered {
			t.Fatalf("%q: %+v", raw, d)
		}
	}
}

// FuzzKernelDiff runs the differential on a corpus and a query drawn
// from the fuzzer's seed.
func FuzzKernelDiff(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 46} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		jobs, metas := diffCorpus(rng, 1+rng.Intn(4))
		diffKernel(t, diffQuery(rng), diffFrames(t, jobs, metas))
	})
}
