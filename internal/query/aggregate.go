// Aggregate execution: per-job partial aggregates, a canonical merge
// across jobs, and byte-deterministic rendering.
//
// Float sums are not associative, so the result of a distributed
// aggregation is DEFINED as the following canonical fold, and every
// execution path implements exactly it:
//
//  1. Per job, accumulators fold matching rows in depth-first row
//     order (the order the archive tree walks).
//  2. Across jobs, per-job partials fold in ascending job-ID order.
//
// The naive tree-walk oracle, the single-node frame scan, and the
// router's scatter-gather merge all produce the same fold, which is
// what makes their rendered bytes identical. The frame scan is the
// kernel in kernel.go: the where clause becomes a selection vector,
// group keys map to dense slots, and each aggregate folds its column
// over the selection, whose order is row order. Percentiles are EXACT,
// not sketched: partials carry the matching values themselves and the
// merge sorts the concatenation — see DESIGN.md, "Cross-job
// aggregation", for the contract and the sketch trade-off.
//
// Partials are typed: sums and percentile values are float64s, a
// min/max is its winning value. Strings appear only on the wire, in
// JobPartial's JSON form (the router's GET /internal/query2), where
// floats are shortest round-trip strings ('g', -1), which survive JSON
// exactly (including NaN/Inf, which encoding/json would reject as
// numbers). The single-node merge and the router's merge of decoded
// partials are one typed fold.
package query

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/archive"
)

// JobPartial is one job's contribution to a cross-job aggregation —
// the unit the router's scatter-gather ships between nodes. Its groups
// are in order of first appearance in the job; the JSON form orders
// them by group key.
type JobPartial struct {
	Job    string
	Pruned bool
	Rows   int
	groups []groupPartial
}

// groupPartial is one group's per-job partial: the group key, the
// number of matching rows, and one partial per aggregate in the
// query's agg list.
type groupPartial struct {
	key  []string
	n    uint64
	aggs []aggPartial
}

// aggPartial is one aggregate's per-job partial state. Which fields
// are set depends on the function: sum/avg carry sum, min/max carry
// ext (when a row had a value), percentiles carry the matched values
// in row order, and count needs nothing beyond the group's row count.
type aggPartial struct {
	has  uint8 // hasSum, hasMin or hasMax
	sum  float64
	ext  extreme
	vals []float64
}

const (
	hasSum = 1 << iota
	hasMin
	hasMax
)

// extreme is a min/max winner as compareValues reads it. A winner from
// a numeric column keeps only its number (bare) until the wire or the
// rendered response needs its string form; a non-finite one is never
// bare.
type extreme struct {
	value
	bare bool
}

// numExtreme is the extreme for x read from a numeric column.
func numExtreme(x float64) extreme {
	if isFinite(x) {
		return extreme{value: value{f: x, finite: true}, bare: true}
	}
	return extreme{value: value{s: formatNumField(x), f: x}}
}

// str is the value's string form, as fieldValue gives it on the tree.
func (e *extreme) str() string {
	if e.bare {
		return formatNumField(e.f)
	}
	return e.s
}

// compare orders two extremes as compareValues orders their strings.
func (e *extreme) compare(o *extreme) int {
	if e.finite && o.finite {
		return cmp.Compare(e.f, o.f)
	}
	return strings.Compare(e.str(), o.str())
}

// PrunedPartial is the contribution of a job whose zone map proved it
// cannot contain a matching row.
func PrunedPartial(jobID string) JobPartial {
	return JobPartial{Job: jobID, Pruned: true}
}

// --- wire form ---

// wirePartial and its parts are JobPartial's JSON form: every float a
// string, groups ordered by key.
type wirePartial struct {
	Job    string      `json:"job"`
	Pruned bool        `json:"pruned,omitempty"`
	Rows   int         `json:"rows"`
	Groups []wireGroup `json:"groups,omitempty"`
}

type wireGroup struct {
	Key  []string  `json:"key"`
	N    uint64    `json:"n"`
	Aggs []wireAgg `json:"aggs"`
}

type wireAgg struct {
	Sum  string   `json:"sum,omitempty"`
	Min  *string  `json:"min,omitempty"`
	Max  *string  `json:"max,omitempty"`
	Vals []string `json:"vals,omitempty"`
}

// formatFloatWire is the exact-round-trip wire form for floats in
// partials ('g' keeps NaN/±Inf representable; -1 precision round-trips
// every float64 bit pattern except the NaN payload, which compareValues
// semantics never observe).
func formatFloatWire(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// MarshalJSON writes the partial's wire form.
func (jp JobPartial) MarshalJSON() ([]byte, error) {
	w := wirePartial{Job: jp.Job, Pruned: jp.Pruned, Rows: jp.Rows}
	if len(jp.groups) > 0 {
		w.Groups = make([]wireGroup, len(jp.groups))
	}
	for i := range jp.groups {
		g := &jp.groups[i]
		wg := wireGroup{Key: g.key, N: g.n, Aggs: make([]wireAgg, len(g.aggs))}
		for ai := range g.aggs {
			a, wa := &g.aggs[ai], &wg.Aggs[ai]
			if a.has&hasSum != 0 {
				wa.Sum = formatFloatWire(a.sum)
			}
			if a.has&(hasMin|hasMax) != 0 {
				s := a.ext.str()
				if a.has&hasMin != 0 {
					wa.Min = &s
				} else {
					wa.Max = &s
				}
			}
			if len(a.vals) > 0 {
				wa.Vals = make([]string, len(a.vals))
				for k, v := range a.vals {
					wa.Vals[k] = formatFloatWire(v)
				}
			}
		}
		w.Groups[i] = wg
	}
	sort.Slice(w.Groups, func(i, j int) bool { return cmpKey(w.Groups[i].Key, w.Groups[j].Key) < 0 })
	return json.Marshal(w)
}

// UnmarshalJSON reads the partial's wire form. A sum or percentile
// value that does not parse as a float is an error.
func (jp *JobPartial) UnmarshalJSON(b []byte) error {
	var w wirePartial
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*jp = JobPartial{Job: w.Job, Pruned: w.Pruned, Rows: w.Rows}
	if len(w.Groups) > 0 {
		jp.groups = make([]groupPartial, len(w.Groups))
	}
	for i, wg := range w.Groups {
		g := &jp.groups[i]
		g.key, g.n, g.aggs = wg.Key, wg.N, make([]aggPartial, len(wg.Aggs))
		for ai, wa := range wg.Aggs {
			a := &g.aggs[ai]
			if wa.Sum != "" {
				v, err := strconv.ParseFloat(wa.Sum, 64)
				if err != nil {
					return fmt.Errorf("query: malformed sum partial %q", wa.Sum)
				}
				a.has, a.sum = a.has|hasSum, v
			}
			switch {
			case wa.Min != nil:
				a.has, a.ext = a.has|hasMin, extreme{value: valueOf(*wa.Min)}
			case wa.Max != nil:
				a.has, a.ext = a.has|hasMax, extreme{value: valueOf(*wa.Max)}
			}
			for _, vs := range wa.Vals {
				v, err := strconv.ParseFloat(vs, 64)
				if err != nil {
					return fmt.Errorf("query: malformed percentile partial %q", vs)
				}
				a.vals = append(a.vals, v)
			}
		}
	}
	return nil
}

// --- per-frame execution ---

// AggregateFrame scans one frame and returns the job's partial
// aggregate. Its allocations depend on the number of groups, not rows
// (percentile aggregates are the documented exception — they retain
// the matching values, in one allocation, which is what makes the
// merge exact).
func (q *Query) AggregateFrame(f *Frame) (JobPartial, error) {
	s := getScan(f)
	defer s.release()
	return s.aggregate(q)
}

// aggregate runs the kernel for q over s's frame: the selection, the
// group slots, then one fold per aggregate.
func (s *scan) aggregate(q *Query) (JobPartial, error) {
	f := s.f
	jp := JobPartial{Job: f.Meta.ID}
	sel, err := s.selection(q.where)
	if err != nil {
		return jp, err
	}
	defer s.put(sel)
	na, ng := len(q.aggs), len(q.groupBy)
	cols := grow(s.cols, na+ng) // zero: cleared after each scan
	defer clear(cols)
	s.cols = cols
	for i, a := range q.aggs {
		if a.fn == "count" {
			continue
		}
		if cols[i], err = f.column(a.field); err != nil {
			return jp, err
		}
	}
	for i, gf := range q.groupBy {
		if cols[na+i], err = f.column(gf); err != nil {
			return jp, err
		}
	}
	slots := s.group(cols[na:], sel)
	jp.Rows = len(sel)
	keys := make([]string, slots*ng)
	aggs := make([]aggPartial, slots*na)
	jp.groups = make([]groupPartial, slots)
	for sl := range jp.groups {
		g := &jp.groups[sl]
		g.key = keys[sl*ng : (sl+1)*ng : (sl+1)*ng]
		for i := range g.key {
			g.key[i], _ = cols[na+i].value(int(s.first[sl]))
		}
		g.n = s.n[sl]
		g.aggs = aggs[sl*na : (sl+1)*na : (sl+1)*na]
	}
	if slots == 0 {
		return jp, nil
	}
	for i, a := range q.aggs {
		s.fold(a.fn, &cols[i], sel, aggs[i:], na)
	}
	return jp, nil
}

// fold folds column c over the selection into one aggregate's partial
// of every slot, slot sl's at out[sl*stride].
func (s *scan) fold(fn string, c *column, sel []int32, out []aggPartial, stride int) {
	slot := s.slot
	switch fn {
	case "count":
	case "sum", "avg":
		sums := grow(s.acc, len(s.n))
		clear(sums)
		switch c.kind {
		case floatField:
			for i, r := range sel {
				sums[slot[i]] += c.num[r]
			}
		case depthField:
			for i, r := range sel {
				sums[slot[i]] += float64(c.depth[r])
			}
		default: // a numeric job.* field: added once per row, in row order
			for i := range sel {
				sums[slot[i]] += c.cnum
			}
		}
		for sl, sum := range sums {
			out[sl*stride].has, out[sl*stride].sum = hasSum, sum
		}
		s.acc = sums
	case "min", "max":
		s.extremes(fn == "min", c, sel, out, stride)
	default: // p50, p95, p99: each slot's values, in row order, in one array
		vals := make([]float64, len(sel))
		lo := 0
		for sl, n := range s.n {
			out[sl*stride].vals = vals[lo : lo : lo+int(n)]
			lo += int(n)
		}
		for i, r := range sel {
			p := &out[int(slot[i])*stride]
			p.vals = append(p.vals, c.number(int(r)))
		}
	}
}

// extremes folds a min (or max) over the selection: the first row
// whose value orders strictly before (after) every earlier one in its
// group wins, in compareValues order.
func (s *scan) extremes(isMin bool, c *column, sel []int32, out []aggPartial, stride int) {
	f, slot := s.f, s.slot
	bit := uint8(hasMax)
	if isMin {
		bit = hasMin
	}
	wins := func(c int) bool { return isMin && c < 0 || !isMin && c > 0 }
	switch {
	case c.kind == depthField || c.kind == floatField:
		// Each group starts from its first row. An all-finite float
		// column compares by number alone; depths, and floats beside a
		// non-finite value, through compareFloats.
		best := grow(s.acc, len(s.n))
		for sl, r := range s.first {
			best[sl] = c.number(int(r))
		}
		if c.kind == floatField && c.finite {
			sign := 1.0 // for finite x and y, x < y is -x > -y
			if !isMin {
				sign = -1
			}
			for i, r := range sel {
				if x := c.num[r]; sign*x < sign*best[slot[i]] {
					best[slot[i]] = x
				}
			}
		} else {
			for i, r := range sel {
				if x := c.number(int(r)); wins(compareFloats(x, best[slot[i]])) {
					best[slot[i]] = x
				}
			}
		}
		for sl, x := range best {
			out[sl*stride].has, out[sl*stride].ext = bit, numExtreme(x)
		}
		s.acc = best
	case c.kind == symbolField:
		best := grow(s.best, len(s.n))
		s.best = best
		for i, r := range sel {
			sl, id := slot[i], c.sym[r]
			p := &out[int(sl)*stride]
			if p.has == 0 || wins(f.symCompare(id, best[sl])) {
				p.has, best[sl] = bit, id
			}
		}
		for sl := range s.n {
			out[sl*stride].ext = extreme{value: f.symValue(best[sl])}
		}
	case c.kind == jobField:
		// One value per frame: every group's first row wins.
		v := extreme{value: valueOf(c.str)}
		for sl := range s.n {
			out[sl*stride].has, out[sl*stride].ext = bit, v
		}
	case c.kind == infoField || c.kind == derivedField:
		for i, r := range sel {
			str, ok := c.value(int(r))
			if !ok {
				continue
			}
			v := valueOf(str)
			p := &out[int(slot[i])*stride]
			if p.has == 0 || wins(v.compare(p.ext.value)) {
				p.has, p.ext = bit, extreme{value: v}
			}
		}
	}
}

// compareFloats is compareValues between two numbers' formatNumField
// forms, formatting only when one is not finite.
func compareFloats(a, b float64) int {
	if isFinite(a) && isFinite(b) {
		return cmp.Compare(a, b)
	}
	return strings.Compare(formatNumField(a), formatNumField(b))
}

// cmpKeyComponent is the total order on group-key components:
// compareValues first (numeric when both sides are finite numbers),
// raw string compare to break compareValues ties between distinct
// strings ("1" vs "1.0").
func cmpKeyComponent(a, b string) int {
	if c := compareValues(a, b); c != 0 {
		return c
	}
	return strings.Compare(a, b)
}

func cmpKey(a, b []string) int {
	for i := range a {
		if i >= len(b) {
			return 1
		}
		if c := cmpKeyComponent(a[i], b[i]); c != 0 {
			return c
		}
	}
	if len(a) < len(b) {
		return -1
	}
	return 0
}

// --- tree-walk oracle ---

// AggregateTree computes the same partial as AggregateFrame by walking
// the archive tree with per-row string conversions — the slow,
// obviously-correct oracle the randomized equivalence suites compare
// the columnar path against.
func (q *Query) AggregateTree(job *archive.Job, meta JobMeta) (JobPartial, error) {
	jp := JobPartial{Job: meta.ID}
	type group struct {
		key  []string
		n    uint64
		aggs []aggPartial
	}
	groups := map[string]*group{}
	var order []*group

	fieldStr := func(op *archive.Operation, d int, fd field) (string, bool) {
		if fd.kind == jobField {
			s, _ := fd.job(&meta)
			return s, true
		}
		return fieldValue(op, d, fd.name)
	}
	numVal := func(op *archive.Operation, d int, fd field) float64 {
		switch strings.ToLower(fd.name) {
		case "duration":
			return op.Duration()
		case "start":
			return op.Start
		case "end":
			return op.End
		case "depth":
			return float64(d)
		}
		_, v := fd.job(&meta)
		return v
	}
	var evalWhere func(e expr, op *archive.Operation, d int) bool
	evalWhere = func(e expr, op *archive.Operation, d int) bool {
		switch t := e.(type) {
		case orExpr:
			return evalWhere(t.a, op, d) || evalWhere(t.b, op, d)
		case andExpr:
			return evalWhere(t.a, op, d) && evalWhere(t.b, op, d)
		case notExpr:
			return !evalWhere(t.a, op, d)
		case predicate:
			if t.field.kind == jobField {
				v, _ := fieldStr(op, d, t.field)
				return evalStringPredicate(v, t.op, t.value)
			}
			return t.eval(op, d)
		}
		return false
	}

	if job != nil && job.Root != nil {
		var walk func(op *archive.Operation, d int)
		walk = func(op *archive.Operation, d int) {
			if q.where == nil || evalWhere(q.where, op, d) {
				jp.Rows++
				key := make([]string, len(q.groupBy))
				for gi, gf := range q.groupBy {
					key[gi], _ = fieldStr(op, d, gf)
				}
				jk := string(appendKey(nil, key))
				g, ok := groups[jk]
				if !ok {
					g = &group{key: key, aggs: make([]aggPartial, len(q.aggs))}
					groups[jk] = g
					order = append(order, g)
				}
				g.n++
				for ai, a := range q.aggs {
					ac := &g.aggs[ai]
					switch a.fn {
					case "count":
					case "sum", "avg":
						ac.has = hasSum
						ac.sum += numVal(op, d, a.field)
					case "p50", "p95", "p99":
						ac.vals = append(ac.vals, numVal(op, d, a.field))
					case "min":
						if v, ok := fieldStr(op, d, a.field); ok && (ac.has == 0 || compareValues(v, ac.ext.s) < 0) {
							ac.has, ac.ext = hasMin, extreme{value: valueOf(v)}
						}
					case "max":
						if v, ok := fieldStr(op, d, a.field); ok && (ac.has == 0 || compareValues(v, ac.ext.s) > 0) {
							ac.has, ac.ext = hasMax, extreme{value: valueOf(v)}
						}
					}
				}
			}
			for _, c := range op.Children {
				walk(c, d+1)
			}
		}
		walk(job.Root, 0)
	}

	jp.groups = make([]groupPartial, 0, len(order))
	for _, g := range order {
		jp.groups = append(jp.groups, groupPartial{key: g.key, n: g.n, aggs: g.aggs})
	}
	return jp, nil
}

// appendKey appends an unambiguous composite key of parts to b
// (length-prefixed components, so no separator collision).
func appendKey(b []byte, parts []string) []byte {
	for _, p := range parts {
		b = strconv.AppendInt(b, int64(len(p)), 10)
		b = append(b, ':')
		b = append(b, p...)
	}
	return b
}

// --- merge + render ---

// AggGroupView is one rendered result group.
type AggGroupView struct {
	Key        []string          `json:"key"`
	Rows       uint64            `json:"rows"`
	Aggregates map[string]string `json:"aggregates"`
}

// AggResponse is the rendered aggregation result. Every JSON field is
// a function of the data alone: groups are ordered by the query's
// order-by (group key ascending by default), aggregate maps render
// with sorted keys, and all numbers format through the fixed rules the
// row queries already use. Scanned/Pruned describe how the engine got
// there (zone-map pruning is an execution detail the tree-walk oracle
// doesn't share), so they are excluded from the body and surface as
// response headers instead — keeping oracle and frame-scan bodies
// byte-identical.
type AggResponse struct {
	Query      string         `json:"query"`
	Scope      string         `json:"scope"`
	Job        string         `json:"job,omitempty"`
	GroupBy    []string       `json:"groupBy"`
	Aggregates []string       `json:"aggregates"`
	Jobs       int            `json:"jobs"`
	Rows       int            `json:"rows"`
	Groups     []AggGroupView `json:"groups"`

	Scanned int `json:"-"`
	Pruned  int `json:"-"`
}

type mergedAgg struct {
	sum  float64
	set  bool
	ext  extreme
	vals []float64
}

type mergedGroup struct {
	key  []string
	n    uint64
	aggs []mergedAgg
}

// MergePartials folds per-job partials into the final response value.
// Partials are first sorted by job ID and deduplicated (replicas of a
// job produce byte-identical partials, so keeping the first is
// well-defined) — that gives every caller, single-node or scatter-
// gather, the same canonical fold order. The merged groups are put in
// plain string order of their keys before the query orders them, so
// the result does not depend on the order groups arrive in within a
// job's partial either.
func (q *Query) MergePartials(raw, scope, jobID string, partials []JobPartial) (*AggResponse, error) {
	sort.SliceStable(partials, func(i, j int) bool { return partials[i].Job < partials[j].Job })
	deduped := partials[:0:0]
	for i, jp := range partials {
		if i > 0 && jp.Job == partials[i-1].Job {
			continue
		}
		deduped = append(deduped, jp)
	}

	resp := &AggResponse{
		Query:      raw,
		Scope:      scope,
		Job:        jobID,
		GroupBy:    q.groupFields(),
		Aggregates: q.aggNames(),
		Jobs:       len(deduped),
	}
	groups := map[string]*mergedGroup{}
	var order []*mergedGroup
	var kb []byte
	for _, jp := range deduped {
		if jp.Pruned {
			resp.Pruned++
			continue
		}
		resp.Scanned++
		resp.Rows += jp.Rows
		for gi := range jp.groups {
			gp := &jp.groups[gi]
			if len(gp.key) != len(q.groupBy) || len(gp.aggs) != len(q.aggs) {
				return nil, fmt.Errorf("query: malformed partial from job %q", jp.Job)
			}
			kb = appendKey(kb[:0], gp.key)
			g, ok := groups[string(kb)]
			if !ok {
				g = &mergedGroup{key: gp.key, aggs: make([]mergedAgg, len(q.aggs))}
				groups[string(kb)] = g
				order = append(order, g)
			}
			g.n += gp.n
			for ai, a := range q.aggs {
				ma, ap := &g.aggs[ai], &gp.aggs[ai]
				switch a.fn {
				case "count":
				case "sum", "avg":
					if ap.has&hasSum == 0 {
						return nil, fmt.Errorf("query: malformed sum partial from job %q", jp.Job)
					}
					ma.sum += ap.sum
				case "p50", "p95", "p99":
					ma.vals = append(ma.vals, ap.vals...)
				case "min":
					if ap.has&hasMin != 0 && (!ma.set || ap.ext.compare(&ma.ext) < 0) {
						ma.set, ma.ext = true, ap.ext
					}
				case "max":
					if ap.has&hasMax != 0 && (!ma.set || ap.ext.compare(&ma.ext) > 0) {
						ma.set, ma.ext = true, ap.ext
					}
				}
			}
		}
	}
	slices.SortFunc(order, func(a, b *mergedGroup) int { return slices.Compare(a.key, b.key) })

	resp.Groups = make([]AggGroupView, 0, len(order))
	for _, g := range order {
		view := AggGroupView{Key: g.key, Rows: g.n, Aggregates: map[string]string{}}
		for ai, a := range q.aggs {
			ma := &g.aggs[ai]
			switch a.fn {
			case "count":
				view.Aggregates[a.name()] = strconv.FormatUint(g.n, 10)
			case "sum":
				view.Aggregates[a.name()] = formatNumField(ma.sum)
			case "avg":
				view.Aggregates[a.name()] = formatNumField(ma.sum / float64(g.n))
			case "p50", "p95", "p99":
				if len(ma.vals) > 0 {
					rank, _ := percentileRank(a.fn)
					view.Aggregates[a.name()] = formatNumField(percentile(ma.vals, rank))
				}
			case "min", "max":
				if ma.set {
					view.Aggregates[a.name()] = ma.ext.str()
				}
			}
		}
		resp.Groups = append(resp.Groups, view)
	}
	q.orderGroups(resp.Groups)
	if q.limit >= 0 && len(resp.Groups) > q.limit {
		resp.Groups = resp.Groups[:q.limit]
	}
	return resp, nil
}

// RenderAggregate merges partials and renders the response with the
// exact byte format the service's JSON writer produces (two-space
// indent plus trailing newline), so the router can reproduce a
// single-node response byte for byte.
func (q *Query) RenderAggregate(raw, scope, jobID string, partials []JobPartial) ([]byte, error) {
	resp, err := q.MergePartials(raw, scope, jobID, partials)
	if err != nil {
		return nil, err
	}
	return RenderAggResponse(resp)
}

// RenderAggResponse renders an already-merged response with the same
// byte format. Callers that need the response value (for the scanned/
// pruned headers) merge first and render second; the bytes are
// identical to RenderAggregate's.
func RenderAggResponse(resp *AggResponse) ([]byte, error) {
	b, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// percentile is the exact nearest-rank percentile: the value at rank
// ceil(p/100*n) of the sorted values. Sorting uses a deterministic
// total order (NaN first, then -0 before +0, then ascending).
func percentile(vals []float64, rank int) float64 {
	sortFloatsDet(vals)
	idx := int(math.Ceil(float64(rank) / 100 * float64(len(vals))))
	if idx < 1 {
		idx = 1
	}
	if idx > len(vals) {
		idx = len(vals)
	}
	return vals[idx-1]
}

func sortFloatsDet(vals []float64) {
	sort.Slice(vals, func(i, j int) bool {
		a, b := vals[i], vals[j]
		an, bn := math.IsNaN(a), math.IsNaN(b)
		if an || bn {
			return an && !bn
		}
		if a == 0 && b == 0 {
			return math.Signbit(a) && !math.Signbit(b)
		}
		return a < b
	})
}

// orderGroups applies the query's ordering: by default the group key
// ascending; `order by <group field>` orders by that component;
// `order by <agg>` orders by the aggregate's value with compareValues
// semantics. Ties (and the default) always fall back to the full group
// key ascending, which is a total order — so the result order is fully
// determined by the data, never by map iteration or sort internals.
func (q *Query) orderGroups(groups []AggGroupView) {
	c := q.groupOrder()
	sort.Slice(groups, func(i, j int) bool { return c(groups[i], groups[j]) < 0 })
}

// groupOrder returns the comparison orderGroups sorts by.
func (q *Query) groupOrder() func(a, b AggGroupView) int {
	by := func(a, b AggGroupView) int { return 0 }
	switch {
	case q.orderAgg != nil:
		name := q.orderAgg.name()
		by = func(a, b AggGroupView) int {
			va, oka := a.Aggregates[name]
			vb, okb := b.Aggregates[name]
			if oka != okb {
				// Groups with the aggregate present order before
				// groups where it is absent (e.g. min over a field no
				// row carries).
				if oka {
					return -1
				}
				return 1
			}
			if !oka {
				return 0
			}
			return compareValues(va, vb)
		}
	case q.orderBy != nil:
		gi := 0
		for i, f := range q.groupBy {
			if strings.EqualFold(f.name, q.orderBy.name) {
				gi = i
			}
		}
		by = func(a, b AggGroupView) int { return cmpKeyComponent(a.Key[gi], b.Key[gi]) }
	}
	return func(a, b AggGroupView) int {
		c := by(a, b)
		if q.desc {
			c = -c
		}
		if c != 0 {
			return c
		}
		return cmpKey(a.Key, b.Key)
	}
}
