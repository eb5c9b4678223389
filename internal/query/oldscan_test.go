package query

// The parent commit's frame scan and merge, kept as the oracle of the
// kernel (kernel.go) and the typed merge: a per-row closure scan over
// compiled predicates, per-job partials holding strings, and a merge
// that parses them back. kernel_diff_test.go runs both over random
// frames and queries. Only identifiers are renamed (an "old" prefix).

import (
	"cmp"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// oldAggPartial is one aggregate's per-job partial state. Which fields
// are set depends on the function: sum/avg carry Sum, min/max carry
// Min or Max (the winning value's string form), percentiles carry the
// matched values, and count needs nothing beyond the group's row count.
type oldAggPartial struct {
	Sum  string   `json:"sum,omitempty"`
	Min  *string  `json:"min,omitempty"`
	Max  *string  `json:"max,omitempty"`
	Vals []string `json:"vals,omitempty"`
}

// oldGroupPartial is one group's per-job partial: the group key, the
// number of matching rows, and one partial per aggregate in the
// query's agg list.
type oldGroupPartial struct {
	Key  []string        `json:"key"`
	N    uint64          `json:"n"`
	Aggs []oldAggPartial `json:"aggs"`
}

// oldJobPartial is one job's contribution to a cross-job aggregation —
// the unit the router's scatter-gather ships between nodes.
type oldJobPartial struct {
	Job    string            `json:"job"`
	Pruned bool              `json:"pruned,omitempty"`
	Rows   int               `json:"rows"`
	Groups []oldGroupPartial `json:"groups,omitempty"`
}

// aggregate accumulator modes, one per function family.
const (
	oamCount = iota
	oamSum   // sum and avg: fold a float sum in row order
	oamPerc  // percentile: collect matching values
	oamMin   // min: keep the row whose value orders first
	oamMax   // max: keep the row whose value orders last
)

// oldFrameAgg is one aggregate of the agg list resolved against a frame.
type oldFrameAgg struct {
	mode int
	col  column
	// numeric orders min/max rows by number: the column is depth, or
	// floats that are all finite, where number order is compareValues
	// order.
	numeric bool
}

type oldFrameAcc struct {
	set  bool
	row  int // min/max: the winning row
	sum  float64
	vals []float64
}

// oldFrameAggs resolves the query's agg list against a concrete frame.
func oldFrameAggs(q *Query, f *Frame) ([]oldFrameAgg, error) {
	out := make([]oldFrameAgg, len(q.aggs))
	for i, a := range q.aggs {
		ag := &out[i]
		switch a.fn {
		case "count":
			ag.mode = oamCount
			continue
		case "sum", "avg":
			ag.mode = oamSum
		case "min":
			ag.mode = oamMin
		case "max":
			ag.mode = oamMax
		default:
			ag.mode = oamPerc
		}
		col, err := f.column(a.field)
		if err != nil {
			return nil, err
		}
		ag.col = col
		ag.numeric = col.kind == depthField || col.kind == floatField && allFinite(col.num)
	}
	return out, nil
}

// cmpRows orders rows a and b of a min/max column as compareValues
// orders their values: by symbol, by number, or by string form. A
// job.* value is one per frame and compares equal to itself.
func (ag *oldFrameAgg) cmpRows(a, b int) int {
	c := &ag.col
	switch {
	case c.kind == symbolField:
		return c.f.symCompare(c.sym[a], c.sym[b])
	case c.kind == jobField:
		return 0
	case ag.numeric:
		return cmp.Compare(c.number(a), c.number(b))
	}
	va, _ := c.value(a)
	vb, _ := c.value(b)
	return compareValues(va, vb)
}

// wins reports whether row r replaces row best as the min (orders
// strictly before it) or the max (strictly after).
func (ag *oldFrameAgg) wins(r, best int) bool {
	c := ag.cmpRows(r, best)
	return ag.mode == oamMin && c < 0 || ag.mode == oamMax && c > 0
}

// present reports whether row r has a value for a min/max: only info
// and derived fields can lack one.
func (ag *oldFrameAgg) present(r int) bool {
	switch ag.col.kind {
	case infoField, derivedField, absentField:
		_, ok := ag.col.value(r)
		return ok
	}
	return true
}

// oldGroupKeyer packs one row's group-by values into a comparable key.
// When the per-field value domains fit, the key is a packed uint64 of
// symbol IDs / depths — no per-row allocation; otherwise it falls back
// to a composite string.
type oldGroupKeyer struct {
	packed bool
	cols   []column
	widths []uint
}

func oldBuildKeyer(q *Query, f *Frame) (oldGroupKeyer, error) {
	k := oldGroupKeyer{packed: true, cols: make([]column, len(q.groupBy)), widths: make([]uint, len(q.groupBy))}
	total := uint(0)
	for i, gf := range q.groupBy {
		c, err := f.column(gf)
		if err != nil {
			return k, err
		}
		switch c.kind {
		case symbolField:
			k.widths[i] = bitsFor(len(f.Syms))
		case depthField:
			k.widths[i] = bitsFor(int(oldMaxDepth(c.depth)) + 1)
		case infoField, derivedField:
			k.packed = false
		}
		// A job.* field, constant per frame, adds nothing to the key.
		k.cols[i] = c
		total += k.widths[i]
	}
	if total > 63 {
		k.packed = false
	}
	return k, nil
}

func (k *oldGroupKeyer) pack(r int) uint64 {
	key := uint64(0)
	for i := range k.cols {
		c := &k.cols[i]
		key <<= k.widths[i]
		switch c.kind {
		case symbolField:
			key |= uint64(c.sym[r])
		case depthField:
			key |= uint64(c.depth[r])
		}
	}
	return key
}

// values returns row r's group key, each value as fieldValue forms it.
func (k *oldGroupKeyer) values(r int, key []string) []string {
	for i := range k.cols {
		key[i], _ = k.cols[i].value(r)
	}
	return key
}

// AggregateFrame scans one frame and returns the job's partial
// aggregate. The hot loop allocates O(distinct groups), not O(rows):
// group slots live in flat slices keyed by a packed integer key
// (percentile aggregates are the documented exception — they retain
// matching values, which is what makes the merge exact).
func oldAggregateFrame(q *Query, f *Frame) (oldJobPartial, error) {
	jp := oldJobPartial{Job: f.Meta.ID}
	scan, err := oldFilter(q, f)
	if err != nil {
		return jp, err
	}
	aggs, err := oldFrameAggs(q, f)
	if err != nil {
		return jp, err
	}
	keyer, err := oldBuildKeyer(q, f)
	if err != nil {
		return jp, err
	}
	na := len(aggs)

	type slot struct {
		first int32
		n     uint64
	}
	var slots []slot
	var accs []oldFrameAcc
	var lookupU map[uint64]int32
	var lookupS map[string]int32
	if keyer.packed {
		lookupU = make(map[uint64]int32)
	} else {
		lookupS = make(map[string]int32)
	}
	keyBuf := make([]string, len(q.groupBy))

	scan(func(r int) {
		jp.Rows++
		var si int32
		var ok bool
		if keyer.packed {
			k := keyer.pack(r)
			if si, ok = lookupU[k]; !ok {
				si = int32(len(slots))
				lookupU[k] = si
			}
		} else {
			k := joinKey(keyer.values(r, keyBuf))
			if si, ok = lookupS[k]; !ok {
				si = int32(len(slots))
				lookupS[k] = si
			}
		}
		if !ok {
			slots = append(slots, slot{first: int32(r)})
			accs = append(accs, make([]oldFrameAcc, na)...)
		}
		slots[si].n++
		base := int(si) * na
		for ai := range aggs {
			ag := &aggs[ai]
			acc := &accs[base+ai]
			switch ag.mode {
			case oamSum:
				acc.sum += ag.col.number(r)
			case oamPerc:
				acc.vals = append(acc.vals, ag.col.number(r))
			case oamMin, oamMax:
				if ag.present(r) && (!acc.set || ag.wins(r, acc.row)) {
					acc.set, acc.row = true, r
				}
			}
		}
	})

	jp.Groups = make([]oldGroupPartial, 0, len(slots))
	for si := range slots {
		key := keyer.values(int(slots[si].first), make([]string, len(q.groupBy)))
		gp := oldGroupPartial{Key: key, N: slots[si].n, Aggs: make([]oldAggPartial, na)}
		for ai := range aggs {
			gp.Aggs[ai] = oldFinalizePartial(&aggs[ai], &accs[si*na+ai])
		}
		jp.Groups = append(jp.Groups, gp)
	}
	oldSortGroupPartials(jp.Groups)
	return jp, nil
}

func oldFinalizePartial(ag *oldFrameAgg, acc *oldFrameAcc) oldAggPartial {
	switch ag.mode {
	case oamSum:
		return oldAggPartial{Sum: formatFloatWire(acc.sum)}
	case oamPerc:
		vals := make([]string, len(acc.vals))
		for i, v := range acc.vals {
			vals[i] = formatFloatWire(v)
		}
		return oldAggPartial{Vals: vals}
	case oamMin, oamMax:
		if !acc.set {
			break
		}
		s, _ := ag.col.value(acc.row)
		if ag.mode == oamMin {
			return oldAggPartial{Min: &s}
		}
		return oldAggPartial{Max: &s}
	}
	return oldAggPartial{}
}

func oldSortGroupPartials(gs []oldGroupPartial) {
	sort.Slice(gs, func(i, j int) bool { return cmpKey(gs[i].Key, gs[j].Key) < 0 })
}

type oldMergedAgg struct {
	sum  float64
	mm   *string
	vals []float64
}

type oldMergedGroup struct {
	key  []string
	n    uint64
	aggs []oldMergedAgg
}

// MergePartials folds per-job partials into the final response value.
// Partials are first sorted by job ID and deduplicated (replicas of a
// job produce byte-identical partials, so keeping the first is
// well-defined) — that gives every caller, single-node or scatter-
// gather, the same canonical fold order.
func oldMergePartials(q *Query, raw, scope, jobID string, partials []oldJobPartial) (*AggResponse, error) {
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
	groups := map[string]*oldMergedGroup{}
	var order []*oldMergedGroup
	for _, jp := range deduped {
		if jp.Pruned {
			resp.Pruned++
			continue
		}
		resp.Scanned++
		resp.Rows += jp.Rows
		for _, gp := range jp.Groups {
			if len(gp.Key) != len(q.groupBy) || len(gp.Aggs) != len(q.aggs) {
				return nil, fmt.Errorf("query: malformed partial from job %q", jp.Job)
			}
			jk := joinKey(gp.Key)
			g, ok := groups[jk]
			if !ok {
				g = &oldMergedGroup{key: gp.Key, aggs: make([]oldMergedAgg, len(q.aggs))}
				groups[jk] = g
				order = append(order, g)
			}
			g.n += gp.N
			for ai, a := range q.aggs {
				ma := &g.aggs[ai]
				ap := gp.Aggs[ai]
				switch a.fn {
				case "count":
				case "sum", "avg":
					v, err := strconv.ParseFloat(ap.Sum, 64)
					if err != nil {
						return nil, fmt.Errorf("query: malformed sum partial %q", ap.Sum)
					}
					ma.sum += v
				case "p50", "p95", "p99":
					for _, vs := range ap.Vals {
						v, err := strconv.ParseFloat(vs, 64)
						if err != nil {
							return nil, fmt.Errorf("query: malformed percentile partial %q", vs)
						}
						ma.vals = append(ma.vals, v)
					}
				case "min":
					if ap.Min != nil && (ma.mm == nil || compareValues(*ap.Min, *ma.mm) < 0) {
						ma.mm = ap.Min
					}
				case "max":
					if ap.Max != nil && (ma.mm == nil || compareValues(*ap.Max, *ma.mm) > 0) {
						ma.mm = ap.Max
					}
				}
			}
		}
	}

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
				if ma.mm != nil {
					view.Aggregates[a.name()] = *ma.mm
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

// oldRowEval is a compiled predicate over one frame row.
type oldRowEval func(row int) bool

// oldFilter compiles the where clause against f and returns the scan of
// the rows it matches, which calls fn on each in row order: the row
// loop of SelectColumns and AggregateFrame alike.
func oldFilter(q *Query, f *Frame) (func(fn func(r int)), error) {
	var ev oldRowEval
	if q.where != nil {
		var err error
		if ev, err = oldCompileFrameExpr(q.where, f); err != nil {
			return nil, err
		}
	}
	return func(fn func(r int)) {
		for r := 0; r < f.rows(); r++ {
			if ev == nil || ev(r) {
				fn(r)
			}
		}
	}, nil
}

// oldCompileFrameExpr compiles the where tree against a frame — the only
// function that turns an expr into a oldRowEval. job.* fields are constant
// per frame; info./derived. fields and path matches error when the
// frame has no details.
func oldCompileFrameExpr(e expr, f *Frame) (oldRowEval, error) {
	switch t := e.(type) {
	case orExpr:
		a, err := oldCompileFrameExpr(t.a, f)
		if err != nil {
			return nil, err
		}
		b, err := oldCompileFrameExpr(t.b, f)
		if err != nil {
			return nil, err
		}
		return func(r int) bool { return a(r) || b(r) }, nil
	case andExpr:
		a, err := oldCompileFrameExpr(t.a, f)
		if err != nil {
			return nil, err
		}
		b, err := oldCompileFrameExpr(t.b, f)
		if err != nil {
			return nil, err
		}
		return func(r int) bool { return a(r) && b(r) }, nil
	case notExpr:
		a, err := oldCompileFrameExpr(t.a, f)
		if err != nil {
			return nil, err
		}
		return func(r int) bool { return !a(r) }, nil
	case predicate:
		return oldCompileFramePredicate(t, f)
	case exactExpr:
		return oldCompileFrameExact(t, f)
	}
	return nil, fmt.Errorf("query: unknown expression")
}

// oldCompileFramePredicate compiles pr against the field's column. A
// symbol or depth predicate is decided once per distinct value into a
// bitmap, a float predicate is a float compare per row, a job.* one is
// constant per frame, mirroring what the zone-map pruner decides for
// whole segments.
func oldCompileFramePredicate(pr predicate, f *Frame) (oldRowEval, error) {
	c, err := f.column(pr.field)
	if err != nil {
		return nil, err
	}
	op, v := pr.op, valueOf(pr.value)
	switch c.kind {
	case symbolField:
		col, t := c.sym, truthOf(op)
		match := make([]bool, len(f.Syms))
		for s, str := range f.Syms {
			if op == "~" {
				match[s] = strings.Contains(str, v.s)
			} else {
				match[s] = t[f.symValue(uint32(s)).compare(v)+1]
			}
		}
		return func(r int) bool { return match[col[r]] }, nil
	case depthField:
		col := c.depth
		match := make([]bool, oldMaxDepth(col)+1)
		for d := range match {
			match[d] = evalStringPredicate(strconv.Itoa(d), op, v.s)
		}
		return func(r int) bool { return match[col[r]] }, nil
	case floatField:
		col := c.num
		if op == "~" {
			// Substring match over the decimal form; rare, so the per-row
			// format cost is acceptable.
			return func(r int) bool { return strings.Contains(formatNumField(col[r]), v.s) }, nil
		}
		t := truthOf(op)
		return func(r int) bool { return t[compareFloat(col[r], v)+1] }, nil
	case infoField, derivedField:
		return func(r int) bool {
			s, ok := c.value(r)
			return ok && evalStringPredicate(s, op, v.s)
		}, nil
	}
	s, ok := c.value(0)
	res := ok && evalStringPredicate(s, op, v.s)
	return func(int) bool { return res }, nil
}

// oldMaxDepth returns the largest depth in col, 0 for none: depths are
// dense from 0, so a bitmap over 0..oldMaxDepth covers every row.
func oldMaxDepth(col []int32) int32 {
	top := int32(0)
	for _, d := range col {
		top = max(top, d)
	}
	return top
}

// oldCompileFrameExact compiles an exact match to a symbol-ID compare: the
// value is looked up once in the column's dictionary and rows compare
// IDs, so "5" never equals "5.0" the way the = operator has it.
func oldCompileFrameExact(e exactExpr, f *Frame) (oldRowEval, error) {
	var col []uint32
	dict := f.Syms
	switch e.field {
	case "mission":
		col = f.Mission
	case "actor":
		col = f.Actor
	case "path":
		if !f.detailed() {
			return nil, fmt.Errorf("query: path matches require operation details not stored in columnar segments")
		}
		col, dict = f.Path, f.Paths
	default:
		return nil, fmt.Errorf("query: no exact match on field %q", e.field)
	}
	for id, s := range dict {
		if s == e.value {
			want := uint32(id)
			return func(r int) bool { return col[r] == want }, nil
		}
	}
	return func(int) bool { return false }, nil
}

// joinKey builds an unambiguous composite string key (length-prefixed
// components, so no separator collision).
func joinKey(parts []string) string {
	var sb strings.Builder
	for _, p := range parts {
		sb.WriteString(strconv.Itoa(len(p)))
		sb.WriteByte(':')
		sb.WriteString(p)
	}
	return sb.String()
}
