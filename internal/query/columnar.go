package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/archive"
)

// Columns builds one job's Frame: the operation tree flattened into the
// frame's typed parallel arrays, with mission, actor, and ID strings
// interned into its symbol table and mission paths into its path table.
// It declares no column of its own — the frame is the only row layout —
// and adds just the intern maps a builder needs. Built once when a job
// enters the store and treated as immutable, so repeated queries
// evaluate predicates against typed columns — an integer compare or a
// precomputed per-symbol bitmap per row — instead of converting fields
// to strings per operation the way the tree walker does. The tree
// walker (Query.Select) remains the oracle: Query.SelectColumns returns
// exactly the same operations in the same order.
type Columns struct {
	f Frame
	// symIDs and pathIDs index f.Syms and f.Paths while rows are being
	// added; nil once BuildColumns returns and on snapshots, both
	// read-only.
	symIDs  map[string]uint32
	pathIDs map[string]uint32
}

func newColumns() Columns {
	return Columns{symIDs: map[string]uint32{}, pathIDs: map[string]uint32{}}
}

// intern returns s's ID in the frame's symbol table, adding it on first
// sight together with the numeric interpretation compareValues would
// give it, so compiled predicates and sort keys never re-parse a symbol.
func (c *Columns) intern(s string) uint32 {
	if id, ok := c.symIDs[s]; ok {
		return id
	}
	f := &c.f
	id := uint32(len(f.Syms))
	c.symIDs[s] = id
	f.Syms = append(f.Syms, s)
	v, err := strconv.ParseFloat(s, 64)
	f.SymFloat = append(f.SymFloat, v)
	f.SymFinite = append(f.SymFinite, err == nil && isFinite(v))
	return id
}

// add appends one operation row. path is the operation's mission path
// from the root, "A/B/C".
func (c *Columns) add(op *archive.Operation, depth int32, path string) {
	f := &c.f
	pid, ok := c.pathIDs[path]
	if !ok {
		pid = uint32(len(f.Paths))
		c.pathIDs[path] = pid
		f.Paths = append(f.Paths, path)
	}
	f.Ops = append(f.Ops, op)
	f.Depth = append(f.Depth, depth)
	f.Start = append(f.Start, op.Start)
	f.End = append(f.End, op.End)
	f.Dur = append(f.Dur, op.Duration())
	f.Mission = append(f.Mission, c.intern(op.Mission))
	f.Actor = append(f.Actor, c.intern(op.Actor))
	f.ID = append(f.ID, c.intern(op.ID))
	f.Path = append(f.Path, pid)
}

// BuildColumns flattens job's operation tree into columns, in
// depth-first order. A nil or empty job yields zero rows.
func BuildColumns(job *archive.Job) *Columns {
	if job == nil || job.Root == nil {
		return &Columns{}
	}
	c := newColumns()
	var walk func(op *archive.Operation, d int32, path string)
	walk = func(op *archive.Operation, d int32, path string) {
		c.add(op, d, path)
		for _, ch := range op.Children {
			walk(ch, d+1, path+"/"+ch.Mission)
		}
	}
	walk(job.Root, 0, job.Root.Mission)
	// The columns are read-only from here; the intern maps are garbage.
	c.symIDs, c.pathIDs = nil, nil
	return &c
}

// rows returns the number of operations in the columns.
func (c *Columns) rows() int { return c.f.rows() }

// Frame returns the columns' frame under the given job metadata: a
// header copy sharing every column slice. The frame is immutable, like
// the columns.
func (c *Columns) Frame(meta JobMeta) *Frame {
	f := c.f
	f.Meta = meta
	return &f
}

// SelectColumns runs the query against the columnar projection and
// returns exactly what Select(job) would return for the job the columns
// were built from: the same operations, in the same order. The
// predicate tree is compiled once per call into row evaluators (cheap —
// a bitmap over the symbol table per string predicate), after which
// evaluation does no per-row string conversion on the built-in fields.
func (q *Query) SelectColumns(c *Columns) []*archive.Operation {
	if c == nil || c.rows() == 0 {
		return nil
	}
	f := &c.f
	var ev rowEval
	if q.where != nil {
		var err error
		if ev, err = compileFrameExpr(q.where, f); err != nil {
			// Columns always carry Ops and Path, and parsed queries name
			// only known fields, so nothing a caller passes can get here.
			panic(fmt.Sprintf("query: SelectColumns: %v", err))
		}
	}
	var out []*archive.Operation
	var rows []int32
	needRows := q.orderBy != ""
	for r, op := range f.Ops {
		if ev == nil || ev(r) {
			out = append(out, op)
			if needRows {
				rows = append(rows, int32(r))
			}
		}
	}
	if q.orderBy != "" && len(out) > 1 {
		q.sortByColumns(f, out, rows)
	}
	if q.limit >= 0 && len(out) > q.limit {
		out = out[:q.limit]
	}
	return out
}

// sortKey is one selected row's precomputed order-by key: the string
// form fieldValue would produce plus its numeric interpretation, so the
// comparator applies compareValues semantics (numeric when both sides
// are finite, lexical otherwise) without re-converting per comparison.
type sortKey struct {
	str string
	num float64
	ok  bool
}

func makeSortKey(f *Frame, row int32, field string) sortKey {
	// fieldValue is the oracle for the string form (including "" for an
	// absent info key, which the tree path sorts on as well).
	s, _ := fieldValue(f.Ops[row], int(f.Depth[row]), field)
	v, err := strconv.ParseFloat(s, 64)
	return sortKey{str: s, num: v, ok: err == nil && isFinite(v)}
}

func (q *Query) sortByColumns(f *Frame, out []*archive.Operation, rows []int32) {
	type pair struct {
		op  *archive.Operation
		key sortKey
	}
	pairs := make([]pair, len(out))
	for i := range out {
		pairs[i] = pair{op: out[i], key: makeSortKey(f, rows[i], q.orderBy)}
	}
	cmp := func(a, b sortKey) int {
		if a.ok && b.ok {
			switch {
			case a.num < b.num:
				return -1
			case a.num > b.num:
				return 1
			default:
				return 0
			}
		}
		return strings.Compare(a.str, b.str)
	}
	// The tree path's desc branch is `!less && compare != 0`, i.e.
	// compare > 0; stable sort preserves depth-first order on ties in
	// both directions, exactly like the oracle.
	if q.desc {
		sort.SliceStable(pairs, func(i, j int) bool { return cmp(pairs[i].key, pairs[j].key) > 0 })
	} else {
		sort.SliceStable(pairs, func(i, j int) bool { return cmp(pairs[i].key, pairs[j].key) < 0 })
	}
	for i := range pairs {
		out[i] = pairs[i].op
	}
}

// rowEval is a compiled predicate over one columns row.
type rowEval func(row int) bool

// evalStringPredicate applies pr's operator to one candidate string,
// with exactly the semantics of predicate.eval over fieldValue output.
func evalStringPredicate(actual, op, value string) bool {
	switch op {
	case "~":
		return strings.Contains(actual, value)
	case "=":
		return compareValues(actual, value) == 0
	case "!=":
		return compareValues(actual, value) != 0
	case ">":
		return compareValues(actual, value) > 0
	case ">=":
		return compareValues(actual, value) >= 0
	case "<":
		return compareValues(actual, value) < 0
	case "<=":
		return compareValues(actual, value) <= 0
	}
	return false
}

// symbolPredicate evaluates pr once per distinct symbol into a bitmap;
// row evaluation is then a single indexed load. Exact by construction:
// every row with symbol s has fieldValue == Syms[s], and the
// precomputed (float, finite) per symbol mirrors what compareValues
// would decide per comparison — without re-parsing.
func (f *Frame) symbolPredicate(pr predicate, col []uint32) rowEval {
	match := make([]bool, len(f.Syms))
	if pr.op == "~" {
		for s, str := range f.Syms {
			match[s] = strings.Contains(str, pr.value)
		}
		return func(r int) bool { return match[col[r]] }
	}
	vf, err := strconv.ParseFloat(pr.value, 64)
	vOK := err == nil && isFinite(vf)
	for s, str := range f.Syms {
		var cmp int
		if vOK && f.SymFinite[s] {
			switch {
			case f.SymFloat[s] < vf:
				cmp = -1
			case f.SymFloat[s] > vf:
				cmp = 1
			}
		} else {
			cmp = strings.Compare(str, pr.value)
		}
		match[s] = opHolds(pr.op, cmp)
	}
	return func(r int) bool { return match[col[r]] }
}

// opHolds applies a comparison operator to a compareValues result.
func opHolds(op string, cmp int) bool {
	switch op {
	case "=":
		return cmp == 0
	case "!=":
		return cmp != 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	}
	return false
}

// depthPredicate evaluates pr once per distinct depth (depths are
// dense 0..max) into a bitmap.
func depthPredicate(pr predicate, depth []int32) rowEval {
	max := int32(0)
	for _, d := range depth {
		if d > max {
			max = d
		}
	}
	match := make([]bool, max+1)
	for d := range match {
		match[d] = evalStringPredicate(strconv.Itoa(d), pr.op, pr.value)
	}
	return func(r int) bool { return match[depth[r]] }
}

// compileNumericPredicate compiles pr against a float64 column. The hot
// path — finite column value, finite constant — is a float compare with
// no conversion. Non-finite values and non-numeric constants fall back
// to comparing the exact string form fieldValue would produce, which is
// what compareValues does on the tree path.
func compileNumericPredicate(pr predicate, col []float64) rowEval {
	value := pr.value
	if pr.op == "~" {
		// Substring match over the decimal form; rare, so the per-row
		// format cost is acceptable.
		return func(r int) bool {
			return strings.Contains(formatNumField(col[r]), value)
		}
	}
	vf, err := strconv.ParseFloat(value, 64)
	vOK := err == nil && isFinite(vf)
	cmp := func(v float64) int {
		if vOK && isFinite(v) {
			switch {
			case v < vf:
				return -1
			case v > vf:
				return 1
			default:
				return 0
			}
		}
		return strings.Compare(formatNumField(v), value)
	}
	switch pr.op {
	case "=":
		return func(r int) bool { return cmp(col[r]) == 0 }
	case "!=":
		return func(r int) bool { return cmp(col[r]) != 0 }
	case ">":
		return func(r int) bool { return cmp(col[r]) > 0 }
	case ">=":
		return func(r int) bool { return cmp(col[r]) >= 0 }
	case "<":
		return func(r int) bool { return cmp(col[r]) < 0 }
	case "<=":
		return func(r int) bool { return cmp(col[r]) <= 0 }
	}
	return func(r int) bool { return false }
}

// formatNumField is the exact string form fieldValue produces for the
// numeric built-in fields.
func formatNumField(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
