// Package query implements Granula's query language over performance
// archives — the systematic querying the archive format exists for
// (paper Section 3.3, P3). One grammar covers two kinds of query: a row
// query filters, orders and limits one job's operations; an aggregate
// query groups them, over one job or over every archived job.
//
//	[<expr>] [order by <field> [asc|desc]] [limit N]
//	<scope> group by <field>[, <field>...] [agg <fn>[, <fn>...]]
//	        [order by <field>|<fn> [asc|desc]] [limit N]
//	<scope> top <k> <field>[, <field>...] by <fn>
//
// where <scope> is [<expr>] for one job or `from jobs [where <expr>]`
// for every archived job, and `top k f by fn` is sugar for
// `group by f agg fn order by fn desc limit k`. An <expr> combines
// predicates `<field> <op> <value>` with and, or, not and parentheses:
//
//	mission = Compute and duration > 1.5 order by duration desc limit 5
//	actor ~ "Worker-3" and not mission = PreStep
//	info.Vertices >= 1000 or derived.PercentOfJob > 10
//	from jobs where job.platform = Giraph group by actor agg count, p95(duration)
//
// Fields: mission, actor and id; duration, start and end; depth; the
// job.* fields job.id, job.platform, job.algorithm, job.runtime,
// job.supersteps and job.operations, constant per job and read only by
// aggregate queries; and info.<Key> and derived.<Key>, the operation
// details columnar segments do not store. Built-in names are
// case-insensitive, info and derived keys are not. Operators: = != ~
// (substring) > >= < <=. Values: bare words, quoted strings, or
// numbers; comparisons are numeric when both sides parse as finite
// numbers, string otherwise.
//
// Aggregates: count, sum(f), avg(f), min(f), max(f), p50(f), p95(f),
// p99(f). sum, avg and the percentiles need a numeric field (duration,
// start, end, depth, job.runtime, job.supersteps, job.operations);
// min and max take any field. Any field but duration, start and end can
// be grouped by, and an aggregate query orders by a group field or one
// of its aggregates. `from jobs` requires group by or top: a cross-job
// row query would have no stable row identity.
package query

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/archive"
)

// Query is a parsed query: a row query, or an aggregate query when it
// has a group by or top clause.
type Query struct {
	where expr
	// orderBy is the field the query orders by: a row query's, or the
	// group field an aggregate query names. Nil when it orders by an
	// aggregate or not at all.
	orderBy *field
	desc    bool
	limit   int

	fromJobs bool
	groupBy  []field
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
		// `where` belongs to the cross-job form; the single-job forms
		// start with the bare expression.
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
	var orderTok *token
	if !q.top && p.peekIs("order") {
		p.next()
		if !p.peekIs("by") {
			return nil, fmt.Errorf("query: expected 'by' after 'order'")
		}
		p.next()
		if p.done() {
			return nil, fmt.Errorf("query: expected field after 'order by'")
		}
		if t := p.toks[p.pos]; q.IsAggregate() && !t.quoted && aggFns[strings.ToLower(t.text)] {
			spec, err := p.parseAggSpec()
			if err != nil {
				return nil, err
			}
			q.orderAgg = &spec
		} else {
			tok := p.next()
			orderTok = &tok
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
	if err := q.validate(orderTok); err != nil {
		return nil, err
	}
	return q, nil
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
	field field
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
	name := p.next()
	if name.quoted {
		return nil, fmt.Errorf("query: field name cannot be quoted")
	}
	fd, err := resolveField(name.text)
	if err != nil {
		return nil, err
	}
	if p.done() {
		return nil, fmt.Errorf("query: expected operator after %q", name.text)
	}
	opTok := p.next()
	if opTok.quoted || !validOps[opTok.text] {
		return nil, fmt.Errorf("query: bad operator %q", opTok.text)
	}
	if p.done() {
		return nil, fmt.Errorf("query: expected value after %q %s", name.text, opTok.text)
	}
	return predicate{field: fd, op: opTok.text, value: p.next().text}, nil
}

// --- fields ---

// fieldKind is what a resolved field reads.
type fieldKind uint8

const (
	symbolField  fieldKind = iota // mission, actor, id: an interned symbol column
	floatField                    // duration, start, end
	depthField                    // depth
	jobField                      // job.*: constant per job
	infoField                     // info.<key>
	derivedField                  // derived.<key>
	absentField                   // a case-mismatched info./derived. prefix: absent on every row
)

// field is a field resolved once, by Parse: the name as written, its
// kind, and for a built-in field how to read it.
type field struct {
	name string
	kind fieldKind
	key  string // an info or derived key
	// numeric fields are the ones sum, avg and the percentiles take.
	numeric bool
	// A symbol or float field's column and its zone map in a segment's
	// stats; a job.* field's string form and, when numeric, its number.
	syms    func(*Frame) []uint32
	floats  func(*Frame) []float64
	symZone func(*SegStats) SymRange
	numZone func(*SegStats) NumRange
	job     func(*JobMeta) (string, float64)
}

// builtinFields are the fields other than info. and derived. keys, by
// lower-cased name: the one list of them outside the tree-walk oracle.
var builtinFields = map[string]field{
	"mission": {kind: symbolField,
		syms: func(f *Frame) []uint32 { return f.Mission }, symZone: func(s *SegStats) SymRange { return s.Mission }},
	"actor": {kind: symbolField,
		syms: func(f *Frame) []uint32 { return f.Actor }, symZone: func(s *SegStats) SymRange { return s.Actor }},
	"id": {kind: symbolField,
		syms: func(f *Frame) []uint32 { return f.ID }, symZone: func(s *SegStats) SymRange { return s.ID }},
	"duration": {kind: floatField, numeric: true,
		floats: func(f *Frame) []float64 { return f.Dur }, numZone: func(s *SegStats) NumRange { return s.Dur }},
	"start": {kind: floatField, numeric: true,
		floats: func(f *Frame) []float64 { return f.Start }, numZone: func(s *SegStats) NumRange { return s.Start }},
	"end": {kind: floatField, numeric: true,
		floats: func(f *Frame) []float64 { return f.End }, numZone: func(s *SegStats) NumRange { return s.End }},
	"depth": {kind: depthField, numeric: true,
		numZone: func(s *SegStats) NumRange { return s.Depth }},
	"job.id": {kind: jobField,
		job: func(m *JobMeta) (string, float64) { return m.ID, 0 }},
	"job.platform": {kind: jobField,
		job: func(m *JobMeta) (string, float64) { return m.Platform, 0 }},
	"job.algorithm": {kind: jobField,
		job: func(m *JobMeta) (string, float64) { return m.Algorithm, 0 }},
	"job.runtime": {kind: jobField, numeric: true,
		job: func(m *JobMeta) (string, float64) { return formatNumField(m.Runtime), m.Runtime }},
	"job.supersteps": {kind: jobField, numeric: true,
		job: func(m *JobMeta) (string, float64) { return strconv.Itoa(m.Supersteps), float64(m.Supersteps) }},
	"job.operations": {kind: jobField, numeric: true,
		job: func(m *JobMeta) (string, float64) { return strconv.Itoa(m.Operations), float64(m.Operations) }},
}

// resolveField resolves a field name as written: built-in and job.*
// names case-insensitively, info. and derived. keys case-sensitively.
func resolveField(name string) (field, error) {
	lf := strings.ToLower(name)
	if fd, ok := builtinFields[lf]; ok {
		fd.name = name
		return fd, nil
	}
	for _, p := range [...]struct {
		prefix string
		kind   fieldKind
	}{{"info.", infoField}, {"derived.", derivedField}} {
		if !strings.HasPrefix(lf, p.prefix) {
			continue
		}
		if key, ok := strings.CutPrefix(name, p.prefix); ok {
			return field{name: name, kind: p.kind, key: key}, nil
		}
		return field{name: name, kind: absentField}, nil
	}
	if strings.HasPrefix(lf, "job.") {
		return field{}, fmt.Errorf("query: unknown job field %q", name)
	}
	return field{}, fmt.Errorf("query: unknown field %q", name)
}

// --- tree-walk oracle ---

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
	actual, present := fieldValue(op, depth, pr.field.name)
	return present && evalStringPredicate(actual, pr.op, pr.value)
}

// --- comparison ---

// value is a string with the number compareValues reads it as: finite
// when it parses as a finite number.
type value struct {
	s      string
	f      float64
	finite bool
}

func valueOf(s string) value {
	f, err := strconv.ParseFloat(s, 64)
	return value{s: s, f: f, finite: err == nil && isFinite(f)}
}

// compare orders two values numerically when both are finite numbers,
// as strings otherwise. ParseFloat accepts "NaN" and "Inf", but NaN is
// unordered — every float comparison against it is false, which would
// make both `> x` and `<= x` fail and leave a total order the sorter
// relies on broken — so non-finite values compare as strings, which is
// total.
func (a value) compare(b value) int {
	if a.finite && b.finite {
		return cmp.Compare(a.f, b.f)
	}
	return strings.Compare(a.s, b.s)
}

// compareValues compares two field values as the language does.
func compareValues(a, b string) int { return valueOf(a).compare(valueOf(b)) }

// compareFloat is compareValues between a float column value, in its
// formatNumField form, and v — without formatting a finite one.
func compareFloat(x float64, v value) int {
	if v.finite && isFinite(x) {
		return cmp.Compare(x, v.f)
	}
	return strings.Compare(formatNumField(x), v.s)
}

func isFinite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// formatNumField is the exact string form fieldValue produces for the
// numeric built-in fields.
func formatNumField(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// opHolds applies a comparison operator other than ~ to a compare
// result.
func opHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	}
	return false
}

// truth is an operator's outcome for each compare result -1, 0 and 1,
// so a compiled predicate looks it up per row.
type truth [3]bool

func truthOf(op string) truth { return truth{opHolds(op, -1), opHolds(op, 0), opHolds(op, 1)} }

// evalStringPredicate applies an operator to one field value.
func evalStringPredicate(actual, op, value string) bool {
	if op == "~" {
		return strings.Contains(actual, value)
	}
	return opHolds(op, compareValues(actual, value))
}
