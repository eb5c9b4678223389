package query

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/archive"
)

// Frame is one job's rows in columnar form plus its job-level metadata
// — the only row layout: row queries, aggregates, the segment codec and
// the archive tree a reader asks for (Tree) all come from it. Two
// sources produce frames: Columns, filled from an operation tree when a
// job enters the store or as a live job's operations complete (every
// column set, so info./derived. fields and path lookups work), and
// decoded on-disk segments (no paths, infos or derived). Both yield
// byte-identical aggregation results for queries that stay on the
// columnar fields.
type Frame struct {
	Meta JobMeta

	Depth   []int32
	Start   []float64
	End     []float64
	Dur     []float64
	Mission []uint32
	Actor   []uint32
	ID      []uint32

	Syms      []string
	SymFloat  []float64
	SymFinite []bool

	// Path is each row's mission path from the root ("A/B/C") as an index
	// into Paths; infos and derived are each row's recorded and derived
	// infos, interned into kvs. They live in memory only: segments do not
	// store them, so a decoded frame has none.
	Path           []uint32
	Paths          []string
	infos, derived kvColumn
	kvs            []string
}

// kvColumn is a string map per row in columnar form: row r's entries
// are pairs[end[r-1]:end[r]] (from 0 for the first row), sorted by key,
// each a key and a value index into the frame's kvs.
type kvColumn struct {
	end   []uint32
	pairs [][2]uint32
}

// row returns row r's entries.
func (c *kvColumn) row(r int) [][2]uint32 {
	lo := uint32(0)
	if r > 0 {
		lo = c.end[r-1]
	}
	return c.pairs[lo:c.end[r]]
}

// rows returns the number of operation rows in the frame.
func (f *Frame) rows() int { return len(f.Depth) }

// detailed reports whether the frame carries paths, infos and derived.
func (f *Frame) detailed() bool { return f.Path != nil }

// lookup returns row r's value for key in c.
func (f *Frame) lookup(c *kvColumn, r int, key string) (string, bool) {
	for _, p := range c.row(r) {
		if f.kvs[p[0]] == key {
			return f.kvs[p[1]], true
		}
	}
	return "", false
}

// kvMap returns row r's entries in c as a fresh map, nil when it has
// none.
func (f *Frame) kvMap(c *kvColumn, r int) map[string]string {
	pairs := c.row(r)
	if len(pairs) == 0 {
		return nil
	}
	m := make(map[string]string, len(pairs))
	for _, p := range pairs {
		m[f.kvs[p[0]]] = f.kvs[p[1]]
	}
	return m
}

// Infos returns row r's recorded infos as a fresh map, nil when it has
// none.
func (f *Frame) Infos(r int) map[string]string { return f.kvMap(&f.infos, r) }

// Derived returns row r's derived infos as a fresh map, nil when it has
// none.
func (f *Frame) Derived(r int) map[string]string { return f.kvMap(&f.derived, r) }

// Tree rebuilds the operation tree of a depth-first frame — one that
// BuildColumns filled — and returns its root, nil for a frame without
// rows. A row's parent is the nearest earlier row one level up, so no
// parent column is needed; children keep row order. Parent links are
// left to archive.Archive.Add, as for any decoded tree.
func (f *Frame) Tree() *archive.Operation {
	if f.rows() == 0 {
		return nil
	}
	ops := make([]archive.Operation, f.rows())
	var open []*archive.Operation // open[d] is the latest row at depth d
	for r := range ops {
		op := &ops[r]
		*op = archive.Operation{
			ID: f.Syms[f.ID[r]], Actor: f.Syms[f.Actor[r]], Mission: f.Syms[f.Mission[r]],
			Start: f.Start[r], End: f.End[r], Infos: f.Infos(r), Derived: f.Derived(r),
		}
		d := int(f.Depth[r])
		if d > 0 {
			parent := open[d-1]
			parent.Children = append(parent.Children, op)
		}
		open = append(open[:d], op)
	}
	return &ops[0]
}

// symValue returns symbol s with its precomputed numeric reading.
func (f *Frame) symValue(s uint32) value {
	return value{s: f.Syms[s], f: f.SymFloat[s], finite: f.SymFinite[s]}
}

// symCompare orders two interned symbols as compareValues orders their
// strings.
func (f *Frame) symCompare(a, b uint32) int {
	if a == b {
		return 0
	}
	return f.symValue(a).compare(f.symValue(b))
}

// column is one resolved field's values on one frame: a symbol, float,
// depth or key/value column by kind; a job.* field is a per-frame
// constant, and an absent field is absent on every row.
type column struct {
	f     *Frame
	kind  fieldKind
	sym   []uint32
	num   []float64
	depth []int32
	kv    *kvColumn
	key   string
	str   string  // a job.* field's string form
	cnum  float64 // a numeric job.* field's number
}

// column looks a resolved field up on the frame — the one place a field
// meets a frame's columns. Info and derived fields need the operation
// details only a frame built from a tree carries.
func (f *Frame) column(fd field) (column, error) {
	c := column{f: f, kind: fd.kind}
	switch fd.kind {
	case symbolField:
		c.sym = fd.syms(f)
	case floatField:
		c.num = fd.floats(f)
	case depthField:
		c.depth = f.Depth
	case jobField:
		c.str, c.cnum = fd.job(&f.Meta)
	default:
		if !f.detailed() {
			return c, fmt.Errorf("query: field %q requires operation details not stored in columnar segments", fd.name)
		}
		c.kv, c.key = &f.infos, fd.key
		if fd.kind == derivedField {
			c.kv = &f.derived
		}
	}
	return c, nil
}

// value returns row r's value in the form fieldValue gives it on the
// tree; ok is false where the field is absent.
func (c *column) value(r int) (string, bool) {
	switch c.kind {
	case symbolField:
		return c.f.Syms[c.sym[r]], true
	case floatField:
		return formatNumField(c.num[r]), true
	case depthField:
		return strconv.Itoa(int(c.depth[r])), true
	case jobField:
		return c.str, true
	case infoField, derivedField:
		return c.f.lookup(c.kv, r, c.key)
	}
	return "", false
}

// number returns row r's value of a numeric field.
func (c *column) number(r int) float64 {
	switch c.kind {
	case floatField:
		return c.num[r]
	case depthField:
		return float64(c.depth[r])
	}
	return c.cnum
}

// compileFrameExpr compiles the where tree against a frame — the only
// function that turns an expr into a rowEval. job.* fields are constant
// per frame; info./derived. fields and path matches error when the
// frame has no details.
func compileFrameExpr(e expr, f *Frame) (rowEval, error) {
	switch t := e.(type) {
	case orExpr:
		a, err := compileFrameExpr(t.a, f)
		if err != nil {
			return nil, err
		}
		b, err := compileFrameExpr(t.b, f)
		if err != nil {
			return nil, err
		}
		return func(r int) bool { return a(r) || b(r) }, nil
	case andExpr:
		a, err := compileFrameExpr(t.a, f)
		if err != nil {
			return nil, err
		}
		b, err := compileFrameExpr(t.b, f)
		if err != nil {
			return nil, err
		}
		return func(r int) bool { return a(r) && b(r) }, nil
	case notExpr:
		a, err := compileFrameExpr(t.a, f)
		if err != nil {
			return nil, err
		}
		return func(r int) bool { return !a(r) }, nil
	case predicate:
		return compileFramePredicate(t, f)
	case exactExpr:
		return compileFrameExact(t, f)
	}
	return nil, fmt.Errorf("query: unknown expression")
}

// compileFramePredicate compiles pr against the field's column. A
// symbol or depth predicate is decided once per distinct value into a
// bitmap, a float predicate is a float compare per row, a job.* one is
// constant per frame, mirroring what the zone-map pruner decides for
// whole segments.
func compileFramePredicate(pr predicate, f *Frame) (rowEval, error) {
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
		match := make([]bool, maxDepth(col)+1)
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

// maxDepth returns the largest depth in col, 0 for none: depths are
// dense from 0, so a bitmap over 0..maxDepth covers every row.
func maxDepth(col []int32) int32 {
	top := int32(0)
	for _, d := range col {
		top = max(top, d)
	}
	return top
}

// compileFrameExact compiles an exact match to a symbol-ID compare: the
// value is looked up once in the column's dictionary and rows compare
// IDs, so "5" never equals "5.0" the way the = operator has it.
func compileFrameExact(e exactExpr, f *Frame) (rowEval, error) {
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
