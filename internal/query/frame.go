package query

import (
	"fmt"
	"strconv"

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

	// startFinite, endFinite and durFinite report that every value of the
	// column is finite, so number order is compareValues order; noted
	// once, when the frame is built.
	startFinite, endFinite, durFinite bool

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

// noteFinite notes which float columns hold only finite values.
func (f *Frame) noteFinite() {
	f.startFinite, f.endFinite, f.durFinite = allFinite(f.Start), allFinite(f.End), allFinite(f.Dur)
}

func allFinite(col []float64) bool {
	for _, v := range col {
		if !isFinite(v) {
			return false
		}
	}
	return true
}

// rows returns the number of operation rows in the frame.
func (f *Frame) rows() int { return len(f.Depth) }

// detailed reports whether the frame carries paths, infos and derived.
func (f *Frame) detailed() bool { return f.Path != nil }

// lookup returns row r's value for key in c.
func (f *Frame) lookup(c *kvColumn, r int, key string) (string, bool) {
	if id, ok := f.lookupID(c, r, key); ok {
		return f.kvs[id], true
	}
	return "", false
}

// lookupID returns the index in kvs of row r's value for key in c.
func (f *Frame) lookupID(c *kvColumn, r int, key string) (uint32, bool) {
	for _, p := range c.row(r) {
		if f.kvs[p[0]] == key {
			return p[1], true
		}
	}
	return 0, false
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

// KV is one row's recorded or derived infos as a view into its frame,
// in key (byte) order; reading it builds no map.
type KV struct {
	pairs [][2]uint32
	kvs   []string
}

// Len returns the number of entries.
func (kv KV) Len() int { return len(kv.pairs) }

// At returns entry i's key and value.
func (kv KV) At(i int) (key, value string) {
	p := kv.pairs[i]
	return kv.kvs[p[0]], kv.kvs[p[1]]
}

// RowKV returns row r's recorded and derived infos.
func (f *Frame) RowKV(r int) (infos, derived KV) {
	return KV{f.infos.row(r), f.kvs}, KV{f.derived.row(r), f.kvs}
}

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
			Start: f.Start[r], End: f.End[r], Infos: f.kvMap(&f.infos, r), Derived: f.kvMap(&f.derived, r),
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
	// finite reports that a float column holds only finite values.
	finite bool
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
		c.num, c.finite = fd.floats(f)
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
