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
// The naive tree-walk oracle, the single-node segment scan, and the
// router's scatter-gather merge all produce the same fold, which is
// what makes their rendered bytes identical. Percentiles are EXACT,
// not sketched: partials carry the matching values themselves and the
// merge sorts the concatenation — see DESIGN.md for the contract and
// the sketch trade-off. Partials serialize floats as shortest
// round-trip strings ('g', -1), which survive JSON exactly (including
// NaN/Inf, which encoding/json would reject as numbers).
package query

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/archive"
)

// AggPartial is one aggregate's per-job partial state. Which fields
// are set depends on the function: sum/avg carry Sum, min/max carry
// Min or Max (the winning value's string form), percentiles carry the
// matched values, and count needs nothing beyond the group's row count.
type AggPartial struct {
	Sum  string   `json:"sum,omitempty"`
	Min  *string  `json:"min,omitempty"`
	Max  *string  `json:"max,omitempty"`
	Vals []string `json:"vals,omitempty"`
}

// GroupPartial is one group's per-job partial: the group key, the
// number of matching rows, and one partial per aggregate in the
// query's agg list.
type GroupPartial struct {
	Key  []string     `json:"key"`
	N    uint64       `json:"n"`
	Aggs []AggPartial `json:"aggs"`
}

// JobPartial is one job's contribution to a cross-job aggregation —
// the unit the router's scatter-gather ships between nodes.
type JobPartial struct {
	Job    string         `json:"job"`
	Pruned bool           `json:"pruned,omitempty"`
	Rows   int            `json:"rows"`
	Groups []GroupPartial `json:"groups,omitempty"`
}

// PrunedPartial is the contribution of a job whose segment the zone
// maps proved cannot contain a matching row.
func PrunedPartial(jobID string) JobPartial {
	return JobPartial{Job: jobID, Pruned: true}
}

// formatFloatWire is the exact-round-trip wire form for floats in
// partials ('g' keeps NaN/±Inf representable; -1 precision round-trips
// every float64 bit pattern except the NaN payload, which compareValues
// semantics never observe).
func formatFloatWire(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// --- per-frame execution ---

// aggregate accumulator modes; chosen per (function, field, frame).
const (
	amCount  = iota
	amSum    // sum and avg: fold a float sum in row order
	amMinNum // min over an all-finite numeric column
	amMaxNum // max over an all-finite numeric column
	amMinSym // min over an interned symbol column
	amMaxSym // max over an interned symbol column
	amMinStr // min via per-row string forms (job.*, info., non-finite numeric)
	amMaxStr // max via per-row string forms
	amPerc   // percentile: collect matching values
)

type frameAgg struct {
	mode int
	num  func(r int) float64
	str  func(r int) (string, bool)
	col  []uint32
}

type frameAcc struct {
	set  bool
	sum  float64
	numv float64
	sym  uint32
	strv string
	vals []float64
}

// allFinite reports whether every value in col is finite.
func allFinite(col []float64) bool {
	for _, v := range col {
		if !isFinite(v) {
			return false
		}
	}
	return true
}

// frameAggs resolves the query's agg list against a concrete frame.
func (q *Query) frameAggs(f *Frame) ([]frameAgg, error) {
	out := make([]frameAgg, len(q.aggs))
	for i, a := range q.aggs {
		switch a.fn {
		case "count":
			out[i] = frameAgg{mode: amCount}
		case "sum", "avg", "p50", "p95", "p99":
			num, err := f.numExtractor(a.field)
			if err != nil {
				return nil, err
			}
			mode := amSum
			if _, ok := percentileRank(a.fn); ok {
				mode = amPerc
			}
			out[i] = frameAgg{mode: mode, num: num}
		case "min", "max":
			ag, err := f.minMaxAgg(a)
			if err != nil {
				return nil, err
			}
			out[i] = ag
		default:
			return nil, fmt.Errorf("query: unknown aggregate %q", a.fn)
		}
	}
	return out, nil
}

// minMaxAgg picks the fastest sound representation for min/max on this
// frame: symbol-ID compare for interned columns, float compare for
// all-finite numeric columns, per-row string forms otherwise (the
// fallback has exactly compareValues semantics, like the others).
func (f *Frame) minMaxAgg(a aggSpec) (frameAgg, error) {
	isMin := a.fn == "min"
	lf := strings.ToLower(a.field)
	switch lf {
	case "mission":
		return symMinMax(isMin, f.Mission), nil
	case "actor":
		return symMinMax(isMin, f.Actor), nil
	case "id":
		return symMinMax(isMin, f.ID), nil
	case "duration", "start", "end", "depth":
		num, err := f.numExtractor(lf)
		if err != nil {
			return frameAgg{}, err
		}
		finite := true
		switch lf {
		case "duration":
			finite = allFinite(f.Dur)
		case "start":
			finite = allFinite(f.Start)
		case "end":
			finite = allFinite(f.End)
		}
		if finite {
			mode := amMaxNum
			if isMin {
				mode = amMinNum
			}
			return frameAgg{mode: mode, num: num}, nil
		}
	}
	if opsOnlyField(a.field) && f.Ops == nil {
		return frameAgg{}, fmt.Errorf("query: field %q requires operation details not stored in columnar segments", a.field)
	}
	field := a.field
	str := func(r int) (string, bool) { return f.fieldString(r, field) }
	mode := amMaxStr
	if isMin {
		mode = amMinStr
	}
	return frameAgg{mode: mode, str: str}, nil
}

func symMinMax(isMin bool, col []uint32) frameAgg {
	mode := amMaxSym
	if isMin {
		mode = amMinSym
	}
	return frameAgg{mode: mode, col: col}
}

// groupKeyer packs one row's group-by values into a comparable key.
// When the per-field value domains fit, the key is a packed uint64 of
// symbol IDs / depths — no per-row allocation; otherwise it falls back
// to a composite string.
type groupKeyer struct {
	packed bool
	cols   []keyCol
}

type keyCol struct {
	sym   []uint32 // symbol column, or
	depth []int32  // depth column; neither set for per-frame constants
	width uint
}

func buildKeyer(q *Query, f *Frame) groupKeyer {
	k := groupKeyer{packed: true}
	total := uint(0)
	for _, gf := range q.groupBy {
		lf := strings.ToLower(gf)
		var kc keyCol
		switch lf {
		case "mission":
			kc = keyCol{sym: f.Mission, width: bitsFor(len(f.Syms))}
		case "actor":
			kc = keyCol{sym: f.Actor, width: bitsFor(len(f.Syms))}
		case "id":
			kc = keyCol{sym: f.ID, width: bitsFor(len(f.Syms))}
		case "depth":
			max := int32(0)
			for _, d := range f.Depth {
				if d > max {
					max = d
				}
			}
			kc = keyCol{depth: f.Depth, width: bitsFor(int(max) + 1)}
		default:
			// job.* (constant per frame) contributes nothing to the
			// key; info./derived. force the string fallback.
			if opsOnlyField(gf) {
				k.packed = false
			}
			kc = keyCol{}
		}
		total += kc.width
		k.cols = append(k.cols, kc)
	}
	if total > 63 {
		k.packed = false
	}
	return k
}

// bitsFor returns the bits needed to represent values in [0, n).
func bitsFor(n int) uint {
	w := uint(0)
	for (1 << w) < n {
		w++
	}
	return w
}

func (k *groupKeyer) pack(r int) uint64 {
	key := uint64(0)
	for i := range k.cols {
		kc := &k.cols[i]
		key <<= kc.width
		switch {
		case kc.sym != nil:
			key |= uint64(kc.sym[r])
		case kc.depth != nil:
			key |= uint64(kc.depth[r])
		}
	}
	return key
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

// AggregateFrame scans one frame and returns the job's partial
// aggregate. The hot loop allocates O(distinct groups), not O(rows):
// group slots live in flat slices keyed by a packed integer key
// (percentile aggregates are the documented exception — they retain
// matching values, which is what makes the merge exact).
func (q *Query) AggregateFrame(f *Frame) (JobPartial, error) {
	jp := JobPartial{Job: f.Meta.ID}
	var ev rowEval
	if q.where != nil {
		var err error
		ev, err = compileFrameExpr(q.where, f)
		if err != nil {
			return jp, err
		}
	}
	aggs, err := q.frameAggs(f)
	if err != nil {
		return jp, err
	}
	keyer := buildKeyer(q, f)
	na := len(aggs)

	type slot struct {
		first int32
		n     uint64
	}
	var slots []slot
	var accs []frameAcc
	var lookupU map[uint64]int32
	var lookupS map[string]int32
	if keyer.packed {
		lookupU = make(map[uint64]int32)
	} else {
		lookupS = make(map[string]int32)
	}
	keyBuf := make([]string, len(q.groupBy))

	rows := f.rows()
	for r := 0; r < rows; r++ {
		if ev != nil && !ev(r) {
			continue
		}
		jp.Rows++
		var si int32
		if keyer.packed {
			k := keyer.pack(r)
			s, ok := lookupU[k]
			if !ok {
				s = int32(len(slots))
				lookupU[k] = s
				slots = append(slots, slot{first: int32(r)})
				accs = append(accs, make([]frameAcc, na)...)
			}
			si = s
		} else {
			for gi, gf := range q.groupBy {
				keyBuf[gi], _ = f.fieldString(r, gf)
			}
			k := joinKey(keyBuf)
			s, ok := lookupS[k]
			if !ok {
				s = int32(len(slots))
				lookupS[k] = s
				slots = append(slots, slot{first: int32(r)})
				accs = append(accs, make([]frameAcc, na)...)
			}
			si = s
		}
		slots[si].n++
		base := int(si) * na
		for ai := range aggs {
			ag := &aggs[ai]
			acc := &accs[base+ai]
			switch ag.mode {
			case amCount:
			case amSum:
				acc.sum += ag.num(r)
			case amPerc:
				acc.vals = append(acc.vals, ag.num(r))
			case amMinNum:
				v := ag.num(r)
				if !acc.set || v < acc.numv {
					acc.set, acc.numv = true, v
				}
			case amMaxNum:
				v := ag.num(r)
				if !acc.set || v > acc.numv {
					acc.set, acc.numv = true, v
				}
			case amMinSym:
				id := ag.col[r]
				if !acc.set {
					acc.set, acc.sym = true, id
				} else if f.symCompare(id, acc.sym) < 0 {
					acc.sym = id
				}
			case amMaxSym:
				id := ag.col[r]
				if !acc.set {
					acc.set, acc.sym = true, id
				} else if f.symCompare(id, acc.sym) > 0 {
					acc.sym = id
				}
			case amMinStr:
				if v, ok := ag.str(r); ok && (!acc.set || compareValues(v, acc.strv) < 0) {
					acc.set, acc.strv = true, v
				}
			case amMaxStr:
				if v, ok := ag.str(r); ok && (!acc.set || compareValues(v, acc.strv) > 0) {
					acc.set, acc.strv = true, v
				}
			}
		}
	}

	jp.Groups = make([]GroupPartial, 0, len(slots))
	for si := range slots {
		key := make([]string, len(q.groupBy))
		for gi, gf := range q.groupBy {
			key[gi], _ = f.fieldString(int(slots[si].first), gf)
		}
		gp := GroupPartial{Key: key, N: slots[si].n, Aggs: make([]AggPartial, na)}
		for ai := range aggs {
			gp.Aggs[ai] = finalizePartial(f, &aggs[ai], &accs[si*na+ai])
		}
		jp.Groups = append(jp.Groups, gp)
	}
	sortGroupPartials(jp.Groups)
	return jp, nil
}

func finalizePartial(f *Frame, ag *frameAgg, acc *frameAcc) AggPartial {
	switch ag.mode {
	case amSum:
		return AggPartial{Sum: formatFloatWire(acc.sum)}
	case amPerc:
		vals := make([]string, len(acc.vals))
		for i, v := range acc.vals {
			vals[i] = formatFloatWire(v)
		}
		return AggPartial{Vals: vals}
	case amMinNum:
		if acc.set {
			s := formatNumField(acc.numv)
			return AggPartial{Min: &s}
		}
	case amMaxNum:
		if acc.set {
			s := formatNumField(acc.numv)
			return AggPartial{Max: &s}
		}
	case amMinSym:
		if acc.set {
			s := f.Syms[acc.sym]
			return AggPartial{Min: &s}
		}
	case amMaxSym:
		if acc.set {
			s := f.Syms[acc.sym]
			return AggPartial{Max: &s}
		}
	case amMinStr:
		if acc.set {
			s := acc.strv
			return AggPartial{Min: &s}
		}
	case amMaxStr:
		if acc.set {
			s := acc.strv
			return AggPartial{Max: &s}
		}
	}
	return AggPartial{}
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

func sortGroupPartials(gs []GroupPartial) {
	sort.Slice(gs, func(i, j int) bool { return cmpKey(gs[i].Key, gs[j].Key) < 0 })
}

// --- tree-walk oracle ---

// AggregateTree computes the same partial as AggregateFrame by walking
// the archive tree with per-row string conversions — the slow,
// obviously-correct oracle the randomized equivalence suites compare
// the columnar path against.
func (q *Query) AggregateTree(job *archive.Job, meta JobMeta) (JobPartial, error) {
	jp := JobPartial{Job: meta.ID}
	type acc struct {
		set  bool
		sum  float64
		strv string
		vals []float64
	}
	type group struct {
		key  []string
		n    uint64
		accs []acc
	}
	groups := map[string]*group{}
	var order []*group

	fieldStr := func(op *archive.Operation, d int, field string) (string, bool) {
		lf := strings.ToLower(field)
		if strings.HasPrefix(lf, "job.") {
			return meta.field(lf)
		}
		return fieldValue(op, d, field)
	}
	numVal := func(op *archive.Operation, d int, field string) float64 {
		switch strings.ToLower(field) {
		case "duration":
			return op.Duration()
		case "start":
			return op.Start
		case "end":
			return op.End
		case "depth":
			return float64(d)
		}
		v, _ := meta.numField(strings.ToLower(field))
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
			if strings.HasPrefix(strings.ToLower(t.field), "job.") {
				v, ok := meta.field(strings.ToLower(t.field))
				return ok && evalStringPredicate(v, t.op, t.value)
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
				jk := joinKey(key)
				g, ok := groups[jk]
				if !ok {
					g = &group{key: key, accs: make([]acc, len(q.aggs))}
					groups[jk] = g
					order = append(order, g)
				}
				g.n++
				for ai, a := range q.aggs {
					ac := &g.accs[ai]
					switch a.fn {
					case "count":
					case "sum", "avg":
						ac.sum += numVal(op, d, a.field)
					case "p50", "p95", "p99":
						ac.vals = append(ac.vals, numVal(op, d, a.field))
					case "min":
						if v, ok := fieldStr(op, d, a.field); ok && (!ac.set || compareValues(v, ac.strv) < 0) {
							ac.set, ac.strv = true, v
						}
					case "max":
						if v, ok := fieldStr(op, d, a.field); ok && (!ac.set || compareValues(v, ac.strv) > 0) {
							ac.set, ac.strv = true, v
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

	jp.Groups = make([]GroupPartial, 0, len(order))
	for _, g := range order {
		gp := GroupPartial{Key: g.key, N: g.n, Aggs: make([]AggPartial, len(q.aggs))}
		for ai, a := range q.aggs {
			ac := &g.accs[ai]
			switch a.fn {
			case "sum", "avg":
				gp.Aggs[ai] = AggPartial{Sum: formatFloatWire(ac.sum)}
			case "p50", "p95", "p99":
				vals := make([]string, len(ac.vals))
				for i, v := range ac.vals {
					vals[i] = formatFloatWire(v)
				}
				gp.Aggs[ai] = AggPartial{Vals: vals}
			case "min":
				if ac.set {
					s := ac.strv
					gp.Aggs[ai] = AggPartial{Min: &s}
				}
			case "max":
				if ac.set {
					s := ac.strv
					gp.Aggs[ai] = AggPartial{Max: &s}
				}
			}
		}
		jp.Groups = append(jp.Groups, gp)
	}
	sortGroupPartials(jp.Groups)
	return jp, nil
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
// response headers instead — keeping oracle and segment-path bodies
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
	mm   *string
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
// gather, the same canonical fold order.
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
				g = &mergedGroup{key: gp.Key, aggs: make([]mergedAgg, len(q.aggs))}
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
	cmp := func(a, b AggGroupView) int { return 0 }
	switch {
	case q.orderAgg != nil:
		name := q.orderAgg.name()
		cmp = func(a, b AggGroupView) int {
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
	case q.orderBy != "":
		gi := 0
		for i, f := range q.groupBy {
			if strings.EqualFold(f, q.orderBy) {
				gi = i
			}
		}
		cmp = func(a, b AggGroupView) int { return cmpKeyComponent(a.Key[gi], b.Key[gi]) }
	}
	sort.Slice(groups, func(i, j int) bool {
		c := cmp(groups[i], groups[j])
		if q.desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
		return cmpKey(groups[i].Key, groups[j].Key) < 0
	})
}
