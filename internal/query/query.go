// Package query implements a small query language over performance
// archives — the systematic querying the archive format exists for (paper
// Section 3.3, P3). A query filters a job's operations with boolean
// predicates over their fields and infos, optionally ordered and limited:
//
//	mission = Compute and duration > 1.5 order by duration desc limit 5
//	actor ~ "Worker-3" and not mission = PreStep
//	info.Vertices >= 1000 or derived.PercentOfJob > 10
//
// Fields: mission, actor, id, duration, start, end, depth, plus
// info.<Key> and derived.<Key>. Operators: = != ~ (substring) > >= < <=.
// Values: bare words, quoted strings, or numbers. Comparisons are numeric
// when both sides parse as numbers, string otherwise.
package query

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/archive"
)

// Query is a parsed query. The v1 form filters, orders, and limits the
// rows of one job. The v2 extensions (group by / top / from jobs) turn
// it into an aggregate query, optionally spanning every archived job;
// see v2.go for the aggregate grammar.
type Query struct {
	where   expr
	orderBy string
	desc    bool
	limit   int

	fromJobs bool
	groupBy  []string
	aggs     []aggSpec
	orderAgg *aggSpec
	top      bool
}

// Parse compiles a query string.
func Parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q := &Query{limit: -1}
	if p.peekIs("from") {
		p.next()
		if !p.peekIs("jobs") {
			return nil, fmt.Errorf("query: expected 'jobs' after 'from'")
		}
		p.next()
		q.fromJobs = true
	}
	if p.peekIs("where") {
		// `where` belongs to the cross-job form; the v1 single-job
		// grammar starts with the bare expression.
		if !q.fromJobs {
			return nil, fmt.Errorf("query: 'where' is only used after 'from jobs'")
		}
		p.next()
		if p.done() || p.peekIs("group") || p.peekIs("top") {
			return nil, fmt.Errorf("query: expected expression after 'where'")
		}
		q.where, err = p.parseOr()
		if err != nil {
			return nil, err
		}
	} else if !p.peekIs("order") && !p.peekIs("limit") && !p.peekIs("group") && !p.peekIs("top") && !p.done() {
		if q.fromJobs {
			return nil, fmt.Errorf("query: expected 'where', 'group by', or 'top' after 'from jobs'")
		}
		q.where, err = p.parseOr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.parseAggClause(q); err != nil {
		return nil, err
	}
	// A `top` clause defines its own ordering and limit; trailing
	// order/limit clauses fall through to the trailing-input error.
	if !q.top && p.peekIs("order") {
		p.next()
		if !p.peekIs("by") {
			return nil, fmt.Errorf("query: expected 'by' after 'order'")
		}
		p.next()
		if p.done() {
			return nil, fmt.Errorf("query: expected field after 'order by'")
		}
		if q.IsAggregate() {
			if err := p.parseAggOrderTarget(q); err != nil {
				return nil, err
			}
		} else {
			q.orderBy = p.next().text
		}
		if p.peekIs("desc") {
			q.desc = true
			p.next()
		} else if p.peekIs("asc") {
			p.next()
		}
	}
	if !q.top && p.peekIs("limit") {
		p.next()
		if p.done() {
			return nil, fmt.Errorf("query: expected number after 'limit'")
		}
		n, err := strconv.Atoi(p.next().text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("query: bad limit")
		}
		q.limit = n
	}
	if !p.done() {
		return nil, fmt.Errorf("query: unexpected trailing input near %q", p.next().text)
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// Select runs the query over a job's operation tree.
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
	if q.orderBy != "" {
		field := q.orderBy
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

// --- lexer ---

type token struct {
	text   string
	quoted bool
}

func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		ch := input[i]
		switch {
		case ch == ' ' || ch == '\t' || ch == '\n':
			i++
		case ch == '(' || ch == ')' || ch == ',':
			toks = append(toks, token{text: string(ch)})
			i++
		case ch == '"':
			j := i + 1
			var sb strings.Builder
			for j < len(input) && input[j] != '"' {
				if input[j] == '\\' && j+1 < len(input) {
					j++
				}
				sb.WriteByte(input[j])
				j++
			}
			if j >= len(input) {
				return nil, fmt.Errorf("query: unterminated string")
			}
			toks = append(toks, token{text: sb.String(), quoted: true})
			i = j + 1
		case strings.ContainsRune("=!<>~", rune(ch)):
			j := i + 1
			if j < len(input) && input[j] == '=' {
				j++
			}
			toks = append(toks, token{text: input[i:j]})
			i = j
		default:
			j := i
			for j < len(input) && !strings.ContainsRune(" \t\n(),=!<>~\"", rune(input[j])) {
				j++
			}
			toks = append(toks, token{text: input[i:j]})
			i = j
		}
	}
	return toks, nil
}

// --- parser ---

type parser struct {
	toks []token
	pos  int
}

func (p *parser) done() bool { return p.pos >= len(p.toks) }

func (p *parser) peekIs(word string) bool {
	return p.pos < len(p.toks) && !p.toks[p.pos].quoted &&
		strings.EqualFold(p.toks[p.pos].text, word)
}

func (p *parser) next() token {
	t := p.toks[p.pos]
	p.pos++
	return t
}

type expr interface {
	eval(op *archive.Operation, depth int) bool
}

type orExpr struct{ a, b expr }

func (e orExpr) eval(op *archive.Operation, d int) bool { return e.a.eval(op, d) || e.b.eval(op, d) }

type andExpr struct{ a, b expr }

func (e andExpr) eval(op *archive.Operation, d int) bool { return e.a.eval(op, d) && e.b.eval(op, d) }

type notExpr struct{ a expr }

func (e notExpr) eval(op *archive.Operation, d int) bool { return !e.a.eval(op, d) }

type predicate struct {
	field string
	op    string
	value string
}

// exactExpr matches rows whose mission, actor, or path ("A/B/C" from
// the root) is exactly value — string identity, where the = operator
// compares "5" and "5.0" as numbers. The grammar cannot produce it;
// Exact builds it for the service's ?mission=/?actor=/?path= lookups.
type exactExpr struct{ field, value string }

func (e exactExpr) eval(op *archive.Operation, _ int) bool {
	switch e.field {
	case "mission":
		return op.Mission == e.value
	case "actor":
		return op.Actor == e.value
	case "path":
		return strings.Join(op.Path(), "/") == e.value
	}
	return false
}

// Exact returns the query selecting every operation whose field —
// "mission", "actor", or "path" — equals value exactly, in row order.
func Exact(field, value string) *Query {
	return &Query{where: exactExpr{field: field, value: value}, limit: -1}
}

func (p *parser) parseOr() (expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peekIs("or") {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = orExpr{a: left, b: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peekIs("and") {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = andExpr{a: left, b: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (expr, error) {
	if p.peekIs("not") {
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return notExpr{a: inner}, nil
	}
	if !p.done() && p.toks[p.pos].text == "(" && !p.toks[p.pos].quoted {
		p.next()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.done() || p.toks[p.pos].text != ")" {
			return nil, fmt.Errorf("query: missing closing parenthesis")
		}
		p.next()
		return inner, nil
	}
	return p.parsePredicate()
}

var validOps = map[string]bool{"=": true, "!=": true, "~": true, ">": true, ">=": true, "<": true, "<=": true}

func (p *parser) parsePredicate() (expr, error) {
	if p.done() {
		return nil, fmt.Errorf("query: expected predicate")
	}
	field := p.next()
	if field.quoted {
		return nil, fmt.Errorf("query: field name cannot be quoted")
	}
	if err := validateField(field.text); err != nil {
		return nil, err
	}
	if p.done() {
		return nil, fmt.Errorf("query: expected operator after %q", field.text)
	}
	opTok := p.next()
	if opTok.quoted || !validOps[opTok.text] {
		return nil, fmt.Errorf("query: bad operator %q", opTok.text)
	}
	if p.done() {
		return nil, fmt.Errorf("query: expected value after %q %s", field.text, opTok.text)
	}
	val := p.next()
	// Keep the field's original case: info./derived. keys are
	// case-sensitive (only built-in field names are case-folded).
	return predicate{field: field.text, op: opTok.text, value: val.text}, nil
}

func validateField(f string) error {
	lf := strings.ToLower(f)
	switch lf {
	case "mission", "actor", "id", "duration", "start", "end", "depth":
		return nil
	}
	if strings.HasPrefix(lf, "info.") || strings.HasPrefix(lf, "derived.") {
		return nil
	}
	if strings.HasPrefix(lf, "job.") {
		if jobFieldKnown(lf) {
			return nil
		}
		return fmt.Errorf("query: unknown job field %q", f)
	}
	return fmt.Errorf("query: unknown field %q", f)
}

// fieldValue returns the string form of a field on an operation; ok is
// false when the field (e.g. an info key) is absent.
func fieldValue(op *archive.Operation, depth int, field string) (string, bool) {
	lf := strings.ToLower(field)
	switch lf {
	case "mission":
		return op.Mission, true
	case "actor":
		return op.Actor, true
	case "id":
		return op.ID, true
	case "duration":
		return strconv.FormatFloat(op.Duration(), 'f', -1, 64), true
	case "start":
		return strconv.FormatFloat(op.Start, 'f', -1, 64), true
	case "end":
		return strconv.FormatFloat(op.End, 'f', -1, 64), true
	case "depth":
		return strconv.Itoa(depth), true
	}
	if key, ok := strings.CutPrefix(field, "info."); ok {
		v, present := op.Infos[key]
		return v, present
	}
	if key, ok := strings.CutPrefix(field, "derived."); ok {
		v, present := op.Derived[key]
		return v, present
	}
	return "", false
}

func (pr predicate) eval(op *archive.Operation, depth int) bool {
	actual, present := fieldValue(op, depth, pr.field)
	if !present {
		return false
	}
	switch pr.op {
	case "~":
		return strings.Contains(actual, pr.value)
	case "=":
		return compareValues(actual, pr.value) == 0
	case "!=":
		return compareValues(actual, pr.value) != 0
	case ">":
		return compareValues(actual, pr.value) > 0
	case ">=":
		return compareValues(actual, pr.value) >= 0
	case "<":
		return compareValues(actual, pr.value) < 0
	case "<=":
		return compareValues(actual, pr.value) <= 0
	}
	return false
}

// compareValues compares numerically when both sides parse as finite
// numbers, lexically otherwise. ParseFloat accepts "NaN" and "Inf", but
// NaN is unordered — every float comparison against it is false, which
// would make both `> x` and `<= x` fail and leave a total order the
// sorter relies on broken — so non-finite operands fall back to the
// string comparison, which is total.
func compareValues(a, b string) int {
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	if errA == nil && errB == nil && isFinite(fa) && isFinite(fb) {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a, b)
}

func isFinite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}
