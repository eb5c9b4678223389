package query

import (
	"errors"
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

// aggSpec is one aggregate in the agg list: a function and, except for
// count, the field it aggregates.
type aggSpec struct {
	fn    string // count sum avg min max p50 p95 p99
	field field  // unset for count
}

// name is the aggregate's stable display name, used as the key in
// rendered results and for order-by-aggregate matching.
func (a aggSpec) name() string {
	if a.fn == "count" {
		return "count"
	}
	return a.fn + "(" + a.field.name + ")"
}

func (a aggSpec) equal(b aggSpec) bool {
	return a.fn == b.fn && strings.EqualFold(a.field.name, b.field.name)
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
	out := make([]string, len(q.groupBy))
	for i, f := range q.groupBy {
		out[i] = f.name
	}
	return out
}

// aggNames returns the display names of the aggregate list.
func (q *Query) aggNames() []string {
	out := make([]string, len(q.aggs))
	for i, a := range q.aggs {
		out[i] = a.name()
	}
	return out
}

// needsOps reports whether the query reads a field only a frame built
// from an operation tree carries — an info or derived field — in its
// where clause, group fields or aggregates. Segments do not store them.
func (q *Query) needsOps() bool {
	needs := false
	walkPredicates(q.where, func(pr predicate) { needs = needs || pr.field.needsOps() })
	for i := range q.aggs {
		needs = needs || q.aggs[i].field.needsOps()
	}
	for i := range q.groupBy {
		needs = needs || q.groupBy[i].needsOps()
	}
	return needs
}

// ParseQuery2 parses a /query2 request's query: a cross-job aggregate
// over the fields columnar segments store. Its errors are the messages
// a node and the router both answer a bad request with.
func ParseQuery2(raw string) (*Query, error) {
	if raw == "" {
		return nil, errors.New("need a q= query parameter")
	}
	q, err := Parse(raw)
	if err != nil {
		return nil, err
	}
	if !q.IsAggregate() || !q.FromJobs() {
		return nil, errors.New("query2 needs a cross-job aggregate query: from jobs [where ...] group by ... (or top k ... by ...)")
	}
	if q.needsOps() {
		return nil, errors.New("info./derived. fields require operation details not stored in columnar segments; use /jobs/{id}/query")
	}
	return q, nil
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
func (p *parser) parseFieldList() ([]field, error) {
	var out []field
	for {
		if p.done() {
			return nil, fmt.Errorf("query: expected field name")
		}
		t := p.next()
		if t.quoted {
			return nil, fmt.Errorf("query: field name cannot be quoted")
		}
		out = append(out, field{name: t.text})
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
	return aggSpec{fn: fn, field: field{name: ft.text}}, nil
}

// --- validation ---

// resolve resolves the aggregate's field.
func (a *aggSpec) resolve() error {
	if a.fn == "count" {
		return nil
	}
	fd, err := resolveField(a.field.name)
	switch {
	case a.fn == "min" || a.fn == "max":
		if err != nil {
			return fmt.Errorf("query: bad field in %s(): %v", a.fn, err)
		}
	case err != nil || !fd.numeric:
		return fmt.Errorf("query: %s requires a numeric field, got %q", a.fn, a.field.name)
	}
	a.field = fd
	return nil
}

func firstJobField(e expr) string {
	found := ""
	walkPredicates(e, func(pr predicate) {
		if found == "" && pr.field.kind == jobField {
			found = pr.field.name
		}
	})
	return found
}

// validate resolves the group, aggregate and order-by fields and
// enforces the cross-clause rules the recursive-descent parser cannot
// express locally. orderBy is the order-by field token, nil when the
// query orders by an aggregate or not at all.
func (q *Query) validate(orderBy *token) error {
	if !q.IsAggregate() {
		if q.fromJobs {
			return fmt.Errorf("query: 'from jobs' requires 'group by' or 'top'")
		}
		if f := firstJobField(q.where); f != "" {
			return fmt.Errorf("query: field %q is only available in aggregate queries", f)
		}
		if orderBy != nil {
			if orderBy.quoted {
				return fmt.Errorf("query: field name cannot be quoted")
			}
			fd, err := resolveField(orderBy.text)
			if err != nil {
				return err
			}
			if fd.kind == jobField {
				return fmt.Errorf("query: field %q is only available in aggregate queries", fd.name)
			}
			q.orderBy = &fd
		}
		return nil
	}
	seen := map[string]bool{}
	for i, f := range q.groupBy {
		fd, err := resolveField(f.name)
		if err != nil || fd.kind == floatField {
			return fmt.Errorf("query: cannot group by %q", f.name)
		}
		lf := strings.ToLower(f.name)
		if seen[lf] {
			return fmt.Errorf("query: duplicate group field %q", f.name)
		}
		seen[lf] = true
		q.groupBy[i] = fd
	}
	names := map[string]bool{}
	for i := range q.aggs {
		a := &q.aggs[i]
		if err := a.resolve(); err != nil {
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
	} else if orderBy != nil && orderBy.text != "" {
		for i := range q.groupBy {
			if strings.EqualFold(q.groupBy[i].name, orderBy.text) {
				q.orderBy = &q.groupBy[i]
			}
		}
		if q.orderBy == nil {
			return fmt.Errorf("query: order by %q is not a group field; use an aggregate", orderBy.text)
		}
	}
	return nil
}
