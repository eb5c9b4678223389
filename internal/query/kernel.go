package query

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// The frame scan kernel: the one loop over a frame's rows, used by row
// queries (SelectColumns) and aggregates (AggregateFrame) alike. It
// works a column at a time:
//
//  1. The where clause becomes a selection vector, the ascending row
//     numbers that match. A predicate filters the vector it is given;
//     and narrows it (its right side filters its left side's rows), or
//     merges (its right side sees only the rows its left side missed),
//     and not complements it.
//  2. The group key of each selected row is packed from per-column
//     integer ids (symbol ids, depths, interned info values) and mapped
//     to a group slot, numbered in order of first appearance: through a
//     dense table when the packed key is at most denseBits wide, else
//     through a map. A key that would pass 64 bits is numbered so far,
//     and packing goes on from the slot numbers.
//  3. Each aggregate folds its column over the selection. Selection
//     order is row order, so every group's float sum folds in row order.
//
// Per-column finiteness is noted once, when the frame is built. The
// scratch memory (selection buffers, tables, per-row keys and slots) is
// pooled, so the frames one worker scans in turn reuse it.

// denseBits is the widest packed group key mapped through a dense table.
const denseBits = 16

// scan is one frame scan's working memory.
type scan struct {
	f     *Frame
	free  [][]int32 // selection buffers not in use
	match []uint8   // a symbol or depth predicate's outcome per value: 0 unknown, 1 no, 2 yes
	comp  []uint32  // one group column's id per selected row
	keys  []uint64  // packed group key per selected row
	slot  []int32   // group slot per selected row
	first []int32   // per slot: its first selected row
	n     []uint64  // per slot: its selected rows
	used  []uint64  // per slot: its packed key, to clear dense after the scan
	dense []int32   // packed key -> slot+1; all zero between scans
	wide  map[uint64]int32
	best  []uint32  // per slot: a symbol min/max's winning symbol
	acc   []float64 // per slot: a sum, or a numeric min/max's winning value
	cols  []column  // an aggregate query's agg columns, then its group columns
}

var scanPool = sync.Pool{New: func() any { return new(scan) }}

func getScan(f *Frame) *scan {
	s := scanPool.Get().(*scan)
	s.f = f
	return s
}

func (s *scan) release() {
	s.f = nil
	scanPool.Put(s)
}

// buf returns an empty selection buffer with room for n rows.
func (s *scan) buf(n int) []int32 {
	if k := len(s.free); k > 0 {
		b := s.free[k-1]
		s.free = s.free[:k-1]
		if cap(b) >= n {
			return b[:0]
		}
	}
	return make([]int32, 0, n)
}

func (s *scan) put(b []int32) { s.free = append(s.free, b) }

// selection returns the rows e matches, ascending; every row when e is
// nil. The caller hands the buffer back with put.
func (s *scan) selection(e expr) ([]int32, error) {
	n := s.f.rows()
	all := s.buf(n)[:n]
	for i := range all {
		all[i] = int32(i)
	}
	if e == nil {
		return all, nil
	}
	sel, err := s.where(e, all)
	s.put(all)
	return sel, err
}

// where returns the rows of in (ascending) that e matches, ascending.
// Both sides of and/or are evaluated even when no row is left, so a
// field the frame cannot answer is an error whatever the data.
func (s *scan) where(e expr, in []int32) ([]int32, error) {
	switch t := e.(type) {
	case andExpr:
		a, err := s.where(t.a, in)
		if err != nil {
			return nil, err
		}
		b, err := s.where(t.b, a)
		s.put(a)
		return b, err
	case orExpr:
		a, err := s.where(t.a, in)
		if err != nil {
			return nil, err
		}
		rest := s.minus(in, a)
		b, err := s.where(t.b, rest)
		s.put(rest)
		if err != nil {
			return nil, err
		}
		u := s.union(a, b)
		s.put(a)
		s.put(b)
		return u, nil
	case notExpr:
		a, err := s.where(t.a, in)
		if err != nil {
			return nil, err
		}
		out := s.minus(in, a)
		s.put(a)
		return out, nil
	case predicate:
		return s.predicate(t, in)
	case exactExpr:
		return s.exact(t, in)
	}
	return nil, fmt.Errorf("query: unknown expression")
}

// minus returns the rows of in not in sub, a subsequence of in.
func (s *scan) minus(in, sub []int32) []int32 {
	out := s.buf(len(in) - len(sub))
	j := 0
	for _, r := range in {
		if j < len(sub) && sub[j] == r {
			j++
			continue
		}
		out = append(out, r)
	}
	return out
}

// union merges two disjoint ascending selections.
func (s *scan) union(a, b []int32) []int32 {
	out := s.buf(len(a) + len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// table returns s.match cleared to n unknown entries.
func (s *scan) table(n int) []uint8 {
	if cap(s.match) < n {
		s.match = make([]uint8, n)
	}
	s.match = s.match[:n]
	clear(s.match)
	return s.match
}

// predicate filters in by pr. A symbol predicate is decided once per
// distinct symbol the rows hold, a depth predicate once per depth, a
// float predicate against a finite constant on an all-finite column is
// one compare per row, and a job.* predicate is constant per frame.
func (s *scan) predicate(pr predicate, in []int32) ([]int32, error) {
	f := s.f
	c, err := f.column(pr.field)
	if err != nil {
		return nil, err
	}
	op, v := pr.op, valueOf(pr.value)
	t := truthOf(op)
	out := s.buf(len(in))
	switch c.kind {
	case symbolField:
		col, match := c.sym, s.table(len(f.Syms))
		for _, r := range in {
			id := col[r]
			if match[id] == 0 {
				if op == "~" {
					match[id] = 1 + b2u(strings.Contains(f.Syms[id], v.s))
				} else {
					match[id] = 1 + b2u(t[f.symValue(id).compare(v)+1])
				}
			}
			if match[id] == 2 {
				out = append(out, r)
			}
		}
	case depthField:
		col := c.depth
		lo, hi := depthRange(col)
		if lo < 0 {
			// Only a malformed segment holds a negative depth; decide each
			// row on its own.
			for _, r := range in {
				if evalStringPredicate(strconv.Itoa(int(col[r])), op, v.s) {
					out = append(out, r)
				}
			}
			break
		}
		match := s.table(int(hi) + 1)
		for d := range match {
			match[d] = 1 + b2u(evalStringPredicate(strconv.Itoa(d), op, v.s))
		}
		for _, r := range in {
			if match[col[r]] == 2 {
				out = append(out, r)
			}
		}
	case floatField:
		col := c.num
		switch {
		case op == "~":
			// Substring match over the decimal form; rare, so the per-row
			// format cost is acceptable.
			for _, r := range in {
				if strings.Contains(formatNumField(col[r]), v.s) {
					out = append(out, r)
				}
			}
		case v.finite && c.finite:
			out = filterFloat(col, op, v.f, in, out)
		default:
			for _, r := range in {
				if t[compareFloat(col[r], v)+1] {
					out = append(out, r)
				}
			}
		}
	case infoField, derivedField:
		for _, r := range in {
			if str, ok := c.value(int(r)); ok && evalStringPredicate(str, op, v.s) {
				out = append(out, r)
			}
		}
	default: // job.* and absent fields: one answer for every row
		if str, ok := c.value(0); ok && evalStringPredicate(str, op, v.s) {
			out = append(out, in...)
		}
	}
	return out, nil
}

// filterFloat appends the rows of in whose value in col satisfies
// "col[r] op x", for finite x and an all-finite col, where number order
// is compareValues order.
func filterFloat(col []float64, op string, x float64, in, out []int32) []int32 {
	switch op {
	case "=":
		for _, r := range in {
			if col[r] == x {
				out = append(out, r)
			}
		}
	case "!=":
		for _, r := range in {
			if col[r] != x {
				out = append(out, r)
			}
		}
	case ">":
		for _, r := range in {
			if col[r] > x {
				out = append(out, r)
			}
		}
	case ">=":
		for _, r := range in {
			if col[r] >= x {
				out = append(out, r)
			}
		}
	case "<":
		for _, r := range in {
			if col[r] < x {
				out = append(out, r)
			}
		}
	case "<=":
		for _, r := range in {
			if col[r] <= x {
				out = append(out, r)
			}
		}
	}
	return out
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// depthRange returns the least depth in col if it is negative, else 0,
// and the largest, 0 for none.
func depthRange(col []int32) (lo, hi int32) {
	for _, d := range col {
		lo, hi = min(lo, d), max(hi, d)
	}
	return lo, hi
}

// exact filters in by an exact match, a symbol-ID compare: the value is
// looked up once in the column's dictionary and rows compare IDs, so
// "5" never equals "5.0" the way the = operator has it.
func (s *scan) exact(e exactExpr, in []int32) ([]int32, error) {
	f := s.f
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
	out := s.buf(len(in))
	for id, str := range dict {
		if str == e.value {
			want := uint32(id)
			for _, r := range in {
				if col[r] == want {
					out = append(out, r)
				}
			}
			break
		}
	}
	return out, nil
}

// --- grouping ---

// ids appends each selected row's id in group column c to dst and
// returns them with the bits an id needs: a symbol's id, a depth, an
// info or derived value's index in the frame's key/value table plus one
// (0 for absent or "", which key the same group). A job.* or absent
// field is constant per frame and needs no bits.
func (s *scan) ids(c *column, sel []int32, dst []uint32) ([]uint32, uint) {
	f := s.f
	switch c.kind {
	case symbolField:
		for _, r := range sel {
			dst = append(dst, c.sym[r])
		}
		return dst, bitsFor(len(f.Syms))
	case depthField:
		for _, r := range sel {
			dst = append(dst, uint32(c.depth[r]))
		}
		if lo, hi := depthRange(c.depth); lo >= 0 {
			return dst, bitsFor(int(hi) + 1)
		}
		return dst, 32
	case infoField, derivedField:
		for _, r := range sel {
			id, ok := f.lookupID(c.kv, int(r), c.key)
			if !ok || f.kvs[id] == "" {
				id = 0 // the key renders "" either way: one group
			} else {
				id++
			}
			dst = append(dst, id)
		}
		return dst, bitsFor(len(f.kvs) + 1)
	}
	return dst, 0
}

// bitsFor returns the bits needed to represent values in [0, n).
func bitsFor(n int) uint {
	w := uint(0)
	for (1 << w) < n {
		w++
	}
	return w
}

// group gives every selected row its group slot in s.slot, numbering
// slots in order of first appearance, and returns the slot count.
// s.first and s.n hold each slot's first row and row count.
func (s *scan) group(cols []column, sel []int32) int {
	keys := grow(s.keys, len(sel))
	clear(keys)
	var width uint
	for i := range cols {
		comp, w := s.ids(&cols[i], sel, s.comp[:0])
		s.comp = comp
		if w == 0 {
			continue
		}
		if width+w > 64 {
			// Too wide to pack: number the keys so far and pack on from
			// their slots, which need at most 31 bits.
			n := s.number(keys, sel, width)
			for r, sl := range s.slot {
				keys[r] = uint64(sl)
			}
			width = bitsFor(n)
		}
		for r, id := range comp {
			keys[r] = keys[r]<<w | uint64(id)
		}
		width += w
	}
	s.keys = keys
	return s.number(keys, sel, width)
}

// number gives each selected row the slot of its packed key in s.slot,
// numbering slots in order of first appearance, through a dense table
// when the keys are at most denseBits wide, else through a map, and
// returns the slot count. s.first and s.n hold each slot's first row
// and row count.
func (s *scan) number(keys []uint64, sel []int32, width uint) int {
	slot := grow(s.slot, len(sel))
	s.first, s.n, s.used = s.first[:0], s.n[:0], s.used[:0]
	if width <= denseBits {
		dense := grow(s.dense, 1<<width)
		for i, k := range keys {
			d := dense[k]
			if d == 0 {
				d = s.newSlot(sel[i], k) + 1
				dense[k] = d
			}
			slot[i] = d - 1
			s.n[d-1]++
		}
		for _, k := range s.used {
			dense[k] = 0
		}
		s.dense = dense
	} else {
		if s.wide == nil {
			s.wide = map[uint64]int32{}
		}
		for i, k := range keys {
			d, ok := s.wide[k]
			if !ok {
				d = s.newSlot(sel[i], k)
				s.wide[k] = d
			}
			slot[i] = d
			s.n[d]++
		}
		clear(s.wide)
	}
	s.slot = slot
	return len(s.first)
}

// newSlot opens the next group slot, first seen at row r under packed
// key k.
func (s *scan) newSlot(r int32, k uint64) int32 {
	s.first = append(s.first, r)
	s.n = append(s.n, 0)
	s.used = append(s.used, k)
	return int32(len(s.first) - 1)
}

// grow returns b resized to n, reallocated when its capacity is short;
// reused entries keep their values.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}
