package query

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/archive"
)

// Select runs the query over a job's operation tree: the slow,
// obviously-correct walker that SelectColumns is checked against.
func (q *Query) Select(job *archive.Job) []*archive.Operation {
	var out []*archive.Operation
	if job.Root == nil {
		return out
	}
	depths := map[*archive.Operation]int{}
	var walk func(op *archive.Operation, d int)
	walk = func(op *archive.Operation, d int) {
		depths[op] = d
		if q.where == nil || q.where.eval(op, d) {
			out = append(out, op)
		}
		for _, c := range op.Children {
			walk(c, d+1)
		}
	}
	walk(job.Root, 0)
	if q.orderBy != nil {
		field := q.orderBy.name
		sort.SliceStable(out, func(i, j int) bool {
			vi, _ := fieldValue(out[i], depths[out[i]], field)
			vj, _ := fieldValue(out[j], depths[out[j]], field)
			less := compareValues(vi, vj) < 0
			if q.desc {
				return !less && compareValues(vi, vj) != 0
			}
			return less
		})
	}
	if q.limit >= 0 && len(out) > q.limit {
		out = out[:q.limit]
	}
	return out
}

func testJob() *archive.Job {
	return &archive.Job{
		ID: "q",
		Root: &archive.Operation{
			ID: "r", Mission: "Job", Actor: "Client", Start: 0, End: 20,
			Children: []*archive.Operation{
				{ID: "a", Mission: "LoadGraph", Actor: "Master", Start: 0, End: 8,
					Infos: map[string]string{"Bytes": "1000"},
					Children: []*archive.Operation{
						{ID: "a1", Mission: "LocalLoad", Actor: "Worker-0", Start: 0, End: 7},
						{ID: "a2", Mission: "LocalLoad", Actor: "Worker-1", Start: 0, End: 8},
					}},
				{ID: "b", Mission: "ProcessGraph", Actor: "Master", Start: 8, End: 18,
					Children: []*archive.Operation{
						{ID: "b1", Mission: "Compute", Actor: "Worker-0", Start: 8, End: 12,
							Infos: map[string]string{"Vertices": "500"}},
						{ID: "b2", Mission: "Compute", Actor: "Worker-1", Start: 8, End: 18,
							Infos:   map[string]string{"Vertices": "1500"},
							Derived: map[string]string{"PercentOfJob": "50"}},
					}},
				{ID: "c", Mission: "Cleanup", Actor: "Client", Start: 18, End: 20},
			},
		},
	}
}

func ids(ops []*archive.Operation) []string {
	var out []string
	for _, op := range ops {
		out = append(out, op.ID)
	}
	return out
}

func selectIDs(t *testing.T, q string) []string {
	t.Helper()
	parsed, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return ids(parsed.Select(testJob()))
}

func eq(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSimplePredicates(t *testing.T) {
	eq(t, selectIDs(t, `mission = Compute`), []string{"b1", "b2"})
	eq(t, selectIDs(t, `actor = Worker-1`), []string{"a2", "b2"})
	eq(t, selectIDs(t, `actor ~ Worker`), []string{"a1", "a2", "b1", "b2"})
	eq(t, selectIDs(t, `duration > 9`), []string{"r", "b", "b2"})
	eq(t, selectIDs(t, `start >= 18`), []string{"c"})
	eq(t, selectIDs(t, `depth = 0`), []string{"r"})
	eq(t, selectIDs(t, `id = b1`), []string{"b1"})
	eq(t, selectIDs(t, `end <= 8`), []string{"a", "a1", "a2"})
}

func TestInfoAndDerivedFields(t *testing.T) {
	eq(t, selectIDs(t, `info.Vertices >= 1000`), []string{"b2"})
	eq(t, selectIDs(t, `info.Bytes = 1000`), []string{"a"})
	eq(t, selectIDs(t, `derived.PercentOfJob > 10`), []string{"b2"})
	// Missing keys never match.
	eq(t, selectIDs(t, `info.Nope = 1`), nil)
}

func TestBooleanCombinators(t *testing.T) {
	eq(t, selectIDs(t, `mission = Compute and duration > 5`), []string{"b2"})
	eq(t, selectIDs(t, `mission = Cleanup or mission = LoadGraph`), []string{"a", "c"})
	eq(t, selectIDs(t, `not mission = Compute and depth = 2`), []string{"a1", "a2"})
	eq(t, selectIDs(t, `(mission = Compute or mission = LocalLoad) and actor = Worker-0`),
		[]string{"a1", "b1"})
	eq(t, selectIDs(t, `mission != Job and depth < 2`), []string{"a", "b", "c"})
}

func TestOrderByAndLimit(t *testing.T) {
	eq(t, selectIDs(t, `mission ~ o and depth > 0 order by duration desc limit 3`),
		[]string{"b", "b2", "a"})
	eq(t, selectIDs(t, `depth = 2 order by duration asc`),
		[]string{"b1", "a1", "a2", "b2"})
	eq(t, selectIDs(t, `depth = 2 order by actor desc limit 2`),
		[]string{"a2", "b2"})
	eq(t, selectIDs(t, `limit 2`), []string{"r", "a"})
}

func TestEmptyQueryMatchesEverything(t *testing.T) {
	got := selectIDs(t, `order by start`)
	if len(got) != 8 {
		t.Fatalf("got %d ops, want 8", len(got))
	}
}

func TestQuotedValues(t *testing.T) {
	eq(t, selectIDs(t, `actor = "Worker-1"`), []string{"a2", "b2"})
	eq(t, selectIDs(t, `mission ~ "Gr"`), []string{"a", "b"})
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`mission =`,                // missing value
		`mission`,                  // missing operator
		`bogusfield = 1`,           // unknown field
		`mission == Compute extra`, // trailing junk... actually == parses as = then =; see below
		`(mission = Compute`,       // missing paren
		`mission = "unterminated`,  // bad string
		`order by`,                 // missing field
		`limit abc`,                // bad limit
		`limit -1`,                 // negative limit... lexes as token "-1"? Atoi parses -1, n<0 rejected
		`mission ? x`,              // bad operator
		`"mission" = x`,            // quoted field
		`and mission = x`,          // dangling combinator
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("expected parse error for %q", q)
		}
	}
	// A row query's order-by field resolves like a where-clause field
	// and is refused with the same messages; an absent info key is not
	// an error.
	for q, want := range map[string]string{
		`mission = Compute order by bogus`: `query: unknown field "bogus"`,
		`order by job.runtime`:             `query: field "job.runtime" is only available in aggregate queries`,
		`order by job.nope`:                `query: unknown job field "job.nope"`,
		`order by "duration"`:              `query: field name cannot be quoted`,
		`order by info.Nope`:               ``,
	} {
		_, err := Parse(q)
		if got := fmt.Sprint(err); want == "" && err != nil || want != "" && got != want {
			t.Errorf("Parse(%q) = %v, want %q", q, err, want)
		}
	}
}

func TestSelectOnEmptyJob(t *testing.T) {
	q, err := Parse(`mission = X`)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Select(&archive.Job{ID: "empty"}); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestNumericVsStringComparison(t *testing.T) {
	// "1000" as number: 1000 > 200 numerically, but "1000" < "200"
	// lexically — the numeric path must win when both parse.
	eq(t, selectIDs(t, `info.Bytes > 200`), []string{"a"})
	// String comparison for non-numeric values.
	eq(t, selectIDs(t, `mission > ProcessGraph and depth = 1`), nil)
}

func TestCompareValuesEdgeCases(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		// Plain numerics: "10" vs "9" must compare numerically (10 > 9),
		// not lexically ("10" < "9").
		{"10", "9", 1},
		{"9", "10", -1},
		{"10", "10", 0},
		// NaN is unordered as a float; string compare keeps a total order.
		{"NaN", "10", 1}, // "NaN" > "10" lexically
		{"10", "NaN", -1},
		{"NaN", "NaN", 0},
		// Infinities likewise fall back to string compare.
		{"Inf", "10", 1},
		{"+Inf", "-Inf", -1}, // lexical: '+' sorts before '-'
		{"-Inf", "10", -1},   // "-Inf" < "10" lexically
		{"Inf", "Inf", 0},
	}
	for _, c := range cases {
		if got := compareValues(c.a, c.b); got != c.want {
			t.Errorf("compareValues(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestNonFinitePredicateKeepsTotalOrder(t *testing.T) {
	// A NaN info value must land on exactly one side of every comparison
	// split: with float semantics, both `> 10` and `<= 10` would be false
	// and the operation would vanish from both result sets.
	job := &archive.Job{
		ID: "nan",
		Root: &archive.Operation{
			ID: "r", Mission: "Job", Actor: "Client", Start: 0, End: 1,
			Infos: map[string]string{"Bytes": "NaN"},
		},
	}
	sel := func(qs string) []*archive.Operation {
		t.Helper()
		q, err := Parse(qs)
		if err != nil {
			t.Fatalf("parse %q: %v", qs, err)
		}
		return q.Select(job)
	}
	gt := sel(`info.Bytes > 10`)
	le := sel(`info.Bytes <= 10`)
	if len(gt)+len(le) != 1 {
		t.Fatalf("NaN info matched %d of the {>, <=} split, want exactly 1", len(gt)+len(le))
	}
}
