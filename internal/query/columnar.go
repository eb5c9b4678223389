package query

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/archive"
)

// Columns builds one job's Frame: the operation tree flattened into the
// frame's typed parallel arrays, with mission, actor, and ID strings
// interned into its symbol table, mission paths into its path table,
// and info keys and values into its key/value table. It declares no
// column of its own — the frame is the only row layout — and adds just
// the intern maps a builder needs. BuildColumns fills it from a tree in
// depth-first order; ColumnsFrom fills it from rows in any order, such
// as a live job's completed operations. Either way it is immutable once
// handed out, and queries evaluate against its typed columns
// (Frame.column) instead of converting fields to strings per operation
// the way the tree walker does. The tree walker (Query.Select, in the
// tests) is the oracle: Query.SelectColumns returns the rows of exactly
// the same operations in the same order.
type Columns struct {
	f Frame
	// symIDs, pathIDs and kvIDs index f.Syms, f.Paths and f.kvs while rows
	// are being added; nil once the columns are built and read-only.
	symIDs, pathIDs, kvIDs map[string]uint32
	keys                   []string // scratch for sorting one map's keys
}

func newColumns() Columns {
	return Columns{symIDs: map[string]uint32{}, pathIDs: map[string]uint32{}, kvIDs: map[string]uint32{}}
}

// intern returns s's ID in the frame's symbol table, adding it on first
// sight together with the numeric interpretation compareValues would
// give it, so compiled predicates and sort keys never re-parse a symbol.
func (c *Columns) intern(s string) uint32 {
	f := &c.f
	id := internIn(c.symIDs, &f.Syms, s)
	if int(id) == len(f.SymFloat) {
		v := valueOf(s)
		f.SymFloat = append(f.SymFloat, v.f)
		f.SymFinite = append(f.SymFinite, v.finite)
	}
	return id
}

// internIn returns s's ID in the table ids indexes, appending it to
// *table on first sight.
func internIn(ids map[string]uint32, table *[]string, s string) uint32 {
	id, ok := ids[s]
	if !ok {
		id = uint32(len(*table))
		ids[s] = id
		*table = append(*table, s)
	}
	return id
}

// addKVs appends one row of col: m's entries, sorted by key.
func (c *Columns) addKVs(col *kvColumn, m map[string]string) {
	c.keys = c.keys[:0]
	for k := range m {
		c.keys = append(c.keys, k)
	}
	sort.Strings(c.keys)
	for _, k := range c.keys {
		col.pairs = append(col.pairs, [2]uint32{internIn(c.kvIDs, &c.f.kvs, k), internIn(c.kvIDs, &c.f.kvs, m[k])})
	}
	col.end = append(col.end, uint32(len(col.pairs)))
}

// add appends one operation row, copying its infos and derived infos.
// path is the operation's mission path from the root, "A/B/C".
func (c *Columns) add(op *archive.Operation, depth int32, path string) {
	f := &c.f
	f.Path = append(f.Path, internIn(c.pathIDs, &f.Paths, path))
	c.addKVs(&f.infos, op.Infos)
	c.addKVs(&f.derived, op.Derived)
	f.Depth = append(f.Depth, depth)
	f.Start = append(f.Start, op.Start)
	f.End = append(f.End, op.End)
	f.Dur = append(f.Dur, op.Duration())
	f.Mission = append(f.Mission, c.intern(op.Mission))
	f.Actor = append(f.Actor, c.intern(op.Actor))
	f.ID = append(f.ID, c.intern(op.ID))
}

// BuildColumns flattens job's operation tree into columns, in
// depth-first order. A nil or empty job yields zero rows.
func BuildColumns(job *archive.Job) *Columns {
	if job == nil || job.Root == nil {
		return &Columns{}
	}
	return ColumnsFrom(func(add func(op *archive.Operation, depth int, path string)) {
		var walk func(op *archive.Operation, d int, path string)
		walk = func(op *archive.Operation, d int, path string) {
			add(op, d, path)
			for _, ch := range op.Children {
				walk(ch, d+1, path+"/"+ch.Mission)
			}
		}
		walk(job.Root, 0, job.Root.Mission)
	})
}

// ColumnsFrom builds columns from the rows each passes to add, in that
// order: an operation, its tree depth and its mission path from the
// root ("A/B/C"). The columns copy what they need of each operation, its
// infos included, and keep nothing of it once ColumnsFrom returns.
func ColumnsFrom(each func(add func(op *archive.Operation, depth int, path string))) *Columns {
	c := newColumns()
	each(func(op *archive.Operation, depth int, path string) { c.add(op, int32(depth), path) })
	// The columns are read-only from here; the intern maps are garbage.
	c.symIDs, c.pathIDs, c.kvIDs, c.keys = nil, nil, nil, nil
	c.f.noteFinite()
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

// SelectColumns runs the query against the columns and returns the
// matching rows, ordered and limited. For columns BuildColumns made
// from a job these are the depth-first indexes of exactly the
// operations the tree walker returns, in the same order.
func (q *Query) SelectColumns(c *Columns) []int {
	if c == nil || c.rows() == 0 {
		return nil
	}
	f := &c.f
	s := getScan(f)
	sel, err := s.selection(q.where)
	var out []int
	if err == nil && len(sel) > 0 {
		out = make([]int, len(sel))
		for i, r := range sel {
			out[i] = int(r)
		}
		s.put(sel)
	}
	s.release()
	if err == nil && q.orderBy != nil && len(out) > 1 {
		err = sortRows(f, *q.orderBy, q.desc, out)
	}
	if err != nil {
		// Columns with rows always carry their details, and parsed
		// queries name only known fields, so nothing a caller passes
		// can get here.
		panic(fmt.Sprintf("query: SelectColumns: %v", err))
	}
	if q.limit >= 0 && len(out) > q.limit {
		out = out[:q.limit]
	}
	return out
}

// sortRows stable-sorts rows by the field's value with compareValues
// semantics, ascending or descending: depth-first order breaks ties in
// both directions, as on the tree. An absent value sorts as "", as it
// does there. A depth column, or a float column with only finite
// values, is keyed by its numbers, where number order is compareValues
// order; other columns by their values as compare reads them.
func sortRows(f *Frame, by field, desc bool, rows []int) error {
	c, err := f.column(by)
	if err != nil {
		return err
	}
	sign := 1
	if desc {
		sign = -1
	}
	if c.kind == depthField || c.kind == floatField && c.finite {
		type keyed struct {
			row int
			key float64
		}
		keys := make([]keyed, len(rows))
		for i, r := range rows {
			keys[i] = keyed{row: r, key: c.number(r)}
		}
		slices.SortStableFunc(keys, func(a, b keyed) int { return sign * cmp.Compare(a.key, b.key) })
		for i := range keys {
			rows[i] = keys[i].row
		}
		return nil
	}
	type keyed struct {
		row int
		key value
	}
	keys := make([]keyed, len(rows))
	for i, r := range rows {
		if c.kind == symbolField {
			keys[i] = keyed{row: r, key: f.symValue(c.sym[r])}
			continue
		}
		s, _ := c.value(r)
		keys[i] = keyed{row: r, key: valueOf(s)}
	}
	slices.SortStableFunc(keys, func(a, b keyed) int { return sign * a.key.compare(b.key) })
	for i := range keys {
		rows[i] = keys[i].row
	}
	return nil
}
