package query

import (
	"encoding/json"
	"strings"
	"testing"
)

func parseOK(t *testing.T, input string) *Query {
	t.Helper()
	q, err := Parse(input)
	if err != nil {
		t.Fatalf("parse %q: %v", input, err)
	}
	return q
}

func TestParseV2GroupBy(t *testing.T) {
	q := parseOK(t, `from jobs where mission = Compute group by mission, actor agg count, avg(duration) order by avg(duration) desc limit 3`)
	if !q.IsAggregate() || !q.FromJobs() {
		t.Fatalf("expected cross-job aggregate, got aggregate=%v fromJobs=%v", q.IsAggregate(), q.FromJobs())
	}
	if got := strings.Join(q.groupFields(), ","); got != "mission,actor" {
		t.Fatalf("group fields = %q", got)
	}
	if got := strings.Join(q.aggNames(), ","); got != "count,avg(duration)" {
		t.Fatalf("agg names = %q", got)
	}
}

func TestParseV2DefaultAggIsCount(t *testing.T) {
	q := parseOK(t, `group by mission`)
	if q.FromJobs() {
		t.Fatal("no 'from jobs' prefix, but FromJobs() is true")
	}
	if got := strings.Join(q.aggNames(), ","); got != "count" {
		t.Fatalf("agg names = %q, want count", got)
	}
}

// needsDetails reports whether q reads an info. or derived. field in
// its where clause, group fields or aggregates: operation details only
// a frame built from a tree carries, not one decoded from a segment.
func needsDetails(q *Query) bool {
	needs := false
	walkPredicates(q.where, func(pr predicate) { needs = needs || pr.field.kind >= infoField })
	for i := range q.aggs {
		needs = needs || q.aggs[i].field.kind >= infoField
	}
	for i := range q.groupBy {
		needs = needs || q.groupBy[i].kind >= infoField
	}
	return needs
}

func TestParseV2JobFieldsAndNeedsOps(t *testing.T) {
	q := parseOK(t, `from jobs where job.runtime > 1 group by job.platform agg count, max(job.runtime)`)
	if needsDetails(q) {
		t.Fatal("job.* query should not need operation details")
	}
	q = parseOK(t, `from jobs group by info.Vertices`)
	if !needsDetails(q) {
		t.Fatal("info.* group field must need operation details")
	}
	q = parseOK(t, `from jobs where info.Vertices > 10 group by mission`)
	if !needsDetails(q) {
		t.Fatal("info.* predicate must need operation details")
	}
}

func TestParseV2Rejects(t *testing.T) {
	bad := []string{
		`from jobs`,                                         // aggregation required
		`from jobs where mission = Compute`,                 // row query across jobs
		`from jobs mission = Compute`,                       // missing where
		`job.platform = Giraph`,                             // job.* needs aggregation
		`group by duration`,                                 // not a group field
		`group by start`,                                    // not a group field
		`group by mission, mission`,                         // duplicate group field
		`group by mission agg sum(mission)`,                 // sum needs numeric field
		`group by mission agg avg(actor)`,                   // avg needs numeric field
		`group by mission agg p95(mission)`,                 // percentile needs numeric field
		`group by mission agg count, count`,                 // duplicate agg name
		`group by mission agg sum(duration), sum(duration)`, // duplicate agg name
		`group by mission agg bogus(duration)`,              // unknown aggregate
		`group by mission order by duration`,                // order target not in group by
		`group by mission order by sum(duration)`,           // order agg not declared
		`group by mission agg count limit x`,                // bad limit
		`top 0 mission by count`,                            // top needs k >= 1
		`top mission by count`,                              // top needs a count
		`top 2 mission by sum(duration) limit 3`,            // top owns order/limit
		`top 2 mission by sum(duration) order by count`,     // top owns order/limit
		`group by`,                   // empty field list
		`group by mission agg`,       // empty agg list
		`group by mission agg sum()`, // missing field
		`group by mission,`,          // trailing comma
	}
	for _, input := range bad {
		if _, err := Parse(input); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", input)
		}
	}
}

func TestTopDesugarsToGroupOrderLimit(t *testing.T) {
	job := testJob()
	meta := JobMeta{ID: "q", Platform: "Giraph", Runtime: 20}
	run := func(input string) string {
		q := parseOK(t, input)
		jp, err := q.AggregateFrame(BuildColumns(job).Frame(meta))
		if err != nil {
			t.Fatalf("%q: %v", input, err)
		}
		// Render under a fixed raw string so only the semantics differ.
		b, err := q.RenderAggregate("X", "job", "q", []JobPartial{jp})
		if err != nil {
			t.Fatalf("%q: %v", input, err)
		}
		return string(b)
	}
	top := run(`from jobs top 2 mission by sum(duration)`)
	long := run(`from jobs group by mission agg sum(duration) order by sum(duration) desc limit 2`)
	if top != long {
		t.Fatalf("top-k result differs from its desugared form:\n%s\nvs\n%s", top, long)
	}
}

func TestSingleJobAggregateSemantics(t *testing.T) {
	job := testJob()
	meta := JobMeta{ID: "q", Platform: "Giraph", Algorithm: "BFS", Runtime: 20, Operations: 8}
	q := parseOK(t, `group by mission agg count, sum(duration)`)
	jp, err := q.AggregateFrame(BuildColumns(job).Frame(meta))
	if err != nil {
		t.Fatal(err)
	}
	body, err := q.RenderAggregate(`group by mission agg count, sum(duration)`, "job", "q", []JobPartial{jp})
	if err != nil {
		t.Fatal(err)
	}
	var resp AggResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	if resp.Scope != "job" || resp.Job != "q" || resp.Jobs != 1 || resp.Rows != 8 {
		t.Fatalf("header fields wrong: %+v", resp)
	}
	want := map[string][2]string{
		"Cleanup":      {"1", "2"},
		"Compute":      {"2", "14"},
		"Job":          {"1", "20"},
		"LoadGraph":    {"1", "8"},
		"LocalLoad":    {"2", "15"},
		"ProcessGraph": {"1", "10"},
	}
	if len(resp.Groups) != len(want) {
		t.Fatalf("got %d groups, want %d:\n%s", len(resp.Groups), len(want), body)
	}
	prev := ""
	for _, g := range resp.Groups {
		if len(g.Key) != 1 {
			t.Fatalf("bad key %v", g.Key)
		}
		k := g.Key[0]
		if prev != "" && !(prev < k) {
			t.Fatalf("groups not sorted: %q before %q", prev, k)
		}
		prev = k
		w, ok := want[k]
		if !ok {
			t.Fatalf("unexpected group %q", k)
		}
		if g.Aggregates["count"] != w[0] || g.Aggregates["sum(duration)"] != w[1] {
			t.Fatalf("group %q = %v, want count=%s sum=%s", k, g.Aggregates, w[0], w[1])
		}
	}
}

func TestJobMetaFieldsInAggregates(t *testing.T) {
	job := testJob()
	meta := JobMeta{ID: "q", Platform: "Giraph", Algorithm: "BFS", Runtime: 12.5, Supersteps: 4, Operations: 8}
	q := parseOK(t, `from jobs where job.platform = Giraph group by job.platform, job.algorithm agg count, max(job.runtime)`)
	jp, err := q.AggregateFrame(BuildColumns(job).Frame(meta))
	if err != nil {
		t.Fatal(err)
	}
	body, err := q.RenderAggregate("raw", "jobs", "", []JobPartial{jp})
	if err != nil {
		t.Fatal(err)
	}
	var resp AggResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Groups) != 1 {
		t.Fatalf("got %d groups:\n%s", len(resp.Groups), body)
	}
	g := resp.Groups[0]
	if g.Key[0] != "Giraph" || g.Key[1] != "BFS" {
		t.Fatalf("key = %v", g.Key)
	}
	if g.Aggregates["max(job.runtime)"] != "12.5" {
		t.Fatalf("max(job.runtime) = %q", g.Aggregates["max(job.runtime)"])
	}
	// A job whose platform differs contributes no rows.
	q2 := parseOK(t, `from jobs where job.platform = GraphX group by mission`)
	jp2, err := q2.AggregateFrame(BuildColumns(job).Frame(meta))
	if err != nil {
		t.Fatal(err)
	}
	if jp2.Rows != 0 || len(jp2.groups) != 0 {
		t.Fatalf("non-matching job.* filter matched rows: %+v", jp2)
	}
}

func TestV1QueriesStillParse(t *testing.T) {
	for _, input := range []string{
		`mission = Compute`,
		`duration > 1 and actor ~ Worker order by duration desc limit 5`,
		`not (mission = Load or mission = Cleanup)`,
		`info.Vertices >= 1000`,
	} {
		q := parseOK(t, input)
		if q.IsAggregate() || q.FromJobs() {
			t.Fatalf("%q parsed as aggregate", input)
		}
		_ = q.Select(testJob())
	}
}
