// Query language v2: aggregation and cross-job scope.
//
// The v1 grammar filters, orders, and limits the operations of a single
// job. v2 adds three clauses that turn a query into an aggregation:
//
//	[from jobs] [<where>] group by <field>[, <field>...]
//	            [agg <fn>[, <fn>...]] [order by <field>|<fn> [asc|desc]]
//	            [limit N]
//	[from jobs] [<where>] top <k> <field>[, <field>...] by <fn>
//
// Aggregate functions: count, sum(f), avg(f), min(f), max(f), p50(f),
// p95(f), p99(f). sum/avg/percentiles require a numeric field
// (duration, start, end, depth, job.runtime, job.supersteps,
// job.operations); min/max accept any field. Group-by fields must be
// discrete: mission, actor, id, depth, or a job.* field.
//
// `from jobs` widens the scope from one job to every archived job and
// is only meaningful for aggregations (a cross-job row query would have
// no stable row identity), so it requires group by / top. The job.*
// fields — job.id, job.platform, job.algorithm, job.runtime,
// job.supersteps, job.operations — are constant per job and usable in
// the where clause and aggregates of aggregate queries.
//
// `top k f by fn` is sugar for
// `group by f agg fn order by fn desc limit k`.
package query

import (
	"fmt"
	"strconv"
	"strings"
)

// JobMeta is the job-level metadata queryable through the job.* fields.
// It rides along with every columnar frame and segment so aggregate
// queries can filter and group on job identity without loading the
// archive tree.
type JobMeta struct {
	ID         string  `json:"id"`
	Platform   string  `json:"platform"`
	Algorithm  string  `json:"algorithm"`
	Runtime    float64 `json:"runtime"`
	Supersteps int     `json:"supersteps"`
	Operations int     `json:"operations"`
}

// field resolves a (lower-cased) job.* field to the string form the
// query engine compares and groups on.
func (m *JobMeta) field(lf string) (string, bool) {
	switch lf {
	case "job.id":
		return m.ID, true
	case "job.platform":
		return m.Platform, true
	case "job.algorithm":
		return m.Algorithm, true
	case "job.runtime":
		return formatNumField(m.Runtime), true
	case "job.supersteps":
		return strconv.Itoa(m.Supersteps), true
	case "job.operations":
		return strconv.Itoa(m.Operations), true
	}
	return "", false
}

// numField resolves the numeric job.* fields.
func (m *JobMeta) numField(lf string) (float64, bool) {
	switch lf {
	case "job.runtime":
		return m.Runtime, true
	case "job.supersteps":
		return float64(m.Supersteps), true
	case "job.operations":
		return float64(m.Operations), true
	}
	return 0, false
}

func jobFieldKnown(lf string) bool {
	switch lf {
	case "job.id", "job.platform", "job.algorithm", "job.runtime", "job.supersteps", "job.operations":
		return true
	}
	return false
}

// aggSpec is one aggregate in the agg list: a function and, except for
// count, the field it aggregates.
type aggSpec struct {
	fn    string // count sum avg min max p50 p95 p99
	field string // "" for count
}

// name is the aggregate's stable display name, used as the key in
// rendered results and for order-by-aggregate matching.
func (a aggSpec) name() string {
	if a.fn == "count" {
		return "count"
	}
	return a.fn + "(" + a.field + ")"
}

func (a aggSpec) equal(b aggSpec) bool {
	return a.fn == b.fn && strings.EqualFold(a.field, b.field)
}

var aggFns = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
	"p50": true, "p95": true, "p99": true,
}

// percentileRank returns the percentile (50, 95, 99) for pXX functions.
func percentileRank(fn string) (int, bool) {
	switch fn {
	case "p50":
		return 50, true
	case "p95":
		return 95, true
	case "p99":
		return 99, true
	}
	return 0, false
}

// IsAggregate reports whether the query has a group by / top clause.
func (q *Query) IsAggregate() bool { return len(q.groupBy) > 0 }

// FromJobs reports whether the query scans every archived job.
func (q *Query) FromJobs() bool { return q.fromJobs }

// groupFields returns the group-by field list as written.
func (q *Query) groupFields() []string {
	return append([]string(nil), q.groupBy...)
}

// aggNames returns the display names of the aggregate list.
func (q *Query) aggNames() []string {
	out := make([]string, len(q.aggs))
	for i, a := range q.aggs {
		out[i] = a.name()
	}
	return out
}

// NeedsOps reports whether evaluating the query requires per-operation
// info/derived maps, which columnar segments do not carry. Such queries
// run only against sources that retain the operation tree.
func (q *Query) NeedsOps() bool {
	needs := false
	walkPredicates(q.where, func(pr predicate) {
		if opsOnlyField(pr.field) {
			needs = true
		}
	})
	for _, a := range q.aggs {
		if a.field != "" && opsOnlyField(a.field) {
			needs = true
		}
	}
	for _, f := range q.groupBy {
		if opsOnlyField(f) {
			needs = true
		}
	}
	return needs
}

func opsOnlyField(f string) bool {
	lf := strings.ToLower(f)
	return strings.HasPrefix(lf, "info.") || strings.HasPrefix(lf, "derived.")
}

func walkPredicates(e expr, fn func(pr predicate)) {
	switch t := e.(type) {
	case orExpr:
		walkPredicates(t.a, fn)
		walkPredicates(t.b, fn)
	case andExpr:
		walkPredicates(t.a, fn)
		walkPredicates(t.b, fn)
	case notExpr:
		walkPredicates(t.a, fn)
	case predicate:
		fn(t)
	}
}

// --- parsing ---

// symIs reports whether the next token is the unquoted punctuation s.
func (p *parser) symIs(s string) bool {
	return p.pos < len(p.toks) && !p.toks[p.pos].quoted && p.toks[p.pos].text == s
}

// parseAggClause parses an optional `group by ...` or `top k ...`
// clause into q.
func (p *parser) parseAggClause(q *Query) error {
	switch {
	case p.peekIs("group"):
		p.next()
		if !p.peekIs("by") {
			return fmt.Errorf("query: expected 'by' after 'group'")
		}
		p.next()
		fields, err := p.parseFieldList()
		if err != nil {
			return err
		}
		q.groupBy = fields
		if p.peekIs("agg") {
			p.next()
			aggs, err := p.parseAggList()
			if err != nil {
				return err
			}
			q.aggs = aggs
		} else {
			q.aggs = []aggSpec{{fn: "count"}}
		}
		return nil
	case p.peekIs("top"):
		p.next()
		if p.done() {
			return fmt.Errorf("query: expected count after 'top'")
		}
		ntok := p.next()
		n, err := strconv.Atoi(ntok.text)
		if err != nil || ntok.quoted || n <= 0 {
			return fmt.Errorf("query: bad top count %q", ntok.text)
		}
		fields, err := p.parseFieldList()
		if err != nil {
			return err
		}
		if !p.peekIs("by") {
			return fmt.Errorf("query: expected 'by' after top fields")
		}
		p.next()
		spec, err := p.parseAggSpec()
		if err != nil {
			return err
		}
		q.groupBy = fields
		q.aggs = []aggSpec{spec}
		q.orderAgg = &spec
		q.desc = true
		q.limit = n
		q.top = true
		return nil
	}
	return nil
}

// parseFieldList parses one or more comma-separated field names.
func (p *parser) parseFieldList() ([]string, error) {
	var out []string
	for {
		if p.done() {
			return nil, fmt.Errorf("query: expected field name")
		}
		t := p.next()
		if t.quoted {
			return nil, fmt.Errorf("query: field name cannot be quoted")
		}
		out = append(out, t.text)
		if !p.symIs(",") {
			return out, nil
		}
		p.next()
	}
}

// parseAggList parses one or more comma-separated aggregate specs.
func (p *parser) parseAggList() ([]aggSpec, error) {
	var out []aggSpec
	for {
		spec, err := p.parseAggSpec()
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
		if !p.symIs(",") {
			return out, nil
		}
		p.next()
	}
}

// parseAggSpec parses `count`, `count()`, or `fn(field)`.
func (p *parser) parseAggSpec() (aggSpec, error) {
	if p.done() {
		return aggSpec{}, fmt.Errorf("query: expected aggregate")
	}
	t := p.next()
	fn := strings.ToLower(t.text)
	if t.quoted || !aggFns[fn] {
		return aggSpec{}, fmt.Errorf("query: unknown aggregate %q", t.text)
	}
	if fn == "count" {
		if p.symIs("(") {
			p.next()
			if !p.symIs(")") {
				return aggSpec{}, fmt.Errorf("query: count takes no field")
			}
			p.next()
		}
		return aggSpec{fn: "count"}, nil
	}
	if !p.symIs("(") {
		return aggSpec{}, fmt.Errorf("query: expected '(' after %q", t.text)
	}
	p.next()
	if p.done() {
		return aggSpec{}, fmt.Errorf("query: expected field in %s()", fn)
	}
	ft := p.next()
	if ft.quoted {
		return aggSpec{}, fmt.Errorf("query: field name cannot be quoted")
	}
	if !p.symIs(")") {
		return aggSpec{}, fmt.Errorf("query: expected ')' after %s(%s", fn, ft.text)
	}
	p.next()
	return aggSpec{fn: fn, field: ft.text}, nil
}

// parseAggOrderTarget parses the order-by target of an aggregate query:
// either a group-by field or one of the declared aggregates.
func (p *parser) parseAggOrderTarget(q *Query) error {
	t := p.toks[p.pos]
	if !t.quoted && aggFns[strings.ToLower(t.text)] {
		spec, err := p.parseAggSpec()
		if err != nil {
			return err
		}
		q.orderAgg = &spec
		return nil
	}
	q.orderBy = p.next().text
	return nil
}

// --- validation ---

func validGroupField(f string) bool {
	lf := strings.ToLower(f)
	switch lf {
	case "mission", "actor", "id", "depth":
		return true
	}
	if strings.HasPrefix(lf, "job.") {
		return jobFieldKnown(lf)
	}
	// info./derived. keys are discrete too; they aggregate only on
	// sources that retain the operation tree (enforced at plan time).
	return strings.HasPrefix(lf, "info.") || strings.HasPrefix(lf, "derived.")
}

func numericAggField(f string) bool {
	lf := strings.ToLower(f)
	switch lf {
	case "duration", "start", "end", "depth", "job.runtime", "job.supersteps", "job.operations":
		return true
	}
	return false
}

func (a aggSpec) validate() error {
	switch a.fn {
	case "count":
		return nil
	case "sum", "avg", "p50", "p95", "p99":
		if !numericAggField(a.field) {
			return fmt.Errorf("query: %s requires a numeric field, got %q", a.fn, a.field)
		}
		return nil
	case "min", "max":
		if err := validateField(a.field); err != nil {
			return fmt.Errorf("query: bad field in %s(): %v", a.fn, err)
		}
		return nil
	}
	return fmt.Errorf("query: unknown aggregate %q", a.fn)
}

func firstJobField(e expr) string {
	found := ""
	walkPredicates(e, func(pr predicate) {
		if found == "" && strings.HasPrefix(strings.ToLower(pr.field), "job.") {
			found = pr.field
		}
	})
	return found
}

// validate enforces the cross-clause rules the recursive-descent parser
// cannot express locally.
func (q *Query) validate() error {
	if !q.IsAggregate() {
		if q.fromJobs {
			return fmt.Errorf("query: 'from jobs' requires 'group by' or 'top'")
		}
		if q.where != nil {
			if f := firstJobField(q.where); f != "" {
				return fmt.Errorf("query: field %q is only available in aggregate queries", f)
			}
		}
		return nil
	}
	seen := map[string]bool{}
	for _, f := range q.groupBy {
		if !validGroupField(f) {
			return fmt.Errorf("query: cannot group by %q", f)
		}
		lf := strings.ToLower(f)
		if seen[lf] {
			return fmt.Errorf("query: duplicate group field %q", f)
		}
		seen[lf] = true
	}
	names := map[string]bool{}
	for _, a := range q.aggs {
		if err := a.validate(); err != nil {
			return err
		}
		n := strings.ToLower(a.name())
		if names[n] {
			return fmt.Errorf("query: duplicate aggregate %q", a.name())
		}
		names[n] = true
	}
	if q.orderAgg != nil {
		found := false
		for i := range q.aggs {
			if q.aggs[i].equal(*q.orderAgg) {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("query: order by %s is not in the agg list", q.orderAgg.name())
		}
	} else if q.orderBy != "" {
		found := false
		for _, f := range q.groupBy {
			if strings.EqualFold(f, q.orderBy) {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("query: order by %q is not a group field; use an aggregate", q.orderBy)
		}
	}
	return nil
}
