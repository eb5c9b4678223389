package query

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/archive"
)

// flattenDFS returns (op, depth, path) rows in the depth-first order
// BuildColumns uses.
type opDepth struct {
	op    *archive.Operation
	depth int
	path  string
}

func flattenDFS(job *archive.Job) []opDepth {
	var out []opDepth
	var walk func(op *archive.Operation, d int, path string)
	walk = func(op *archive.Operation, d int, path string) {
		out = append(out, opDepth{op, d, path})
		for _, ch := range op.Children {
			walk(ch, d+1, path+"/"+ch.Mission)
		}
	}
	if job != nil && job.Root != nil {
		walk(job.Root, 0, job.Root.Mission)
	}
	return out
}

// requireColumnsIdentical asserts two column sets hold identical
// frames: same rows, same typed values, and the same interned symbol,
// path and key/value tables.
func requireColumnsIdentical(t *testing.T, want, got *Columns) {
	t.Helper()
	w, g := &want.f, &got.f
	if w.rows() != g.rows() {
		t.Fatalf("rows: want %d, got %d", w.rows(), g.rows())
	}
	for name, cols := range map[string][2]any{
		"depth": {w.Depth, g.Depth}, "start": {w.Start, g.Start}, "end": {w.End, g.End}, "dur": {w.Dur, g.Dur},
		"mission": {w.Mission, g.Mission}, "actor": {w.Actor, g.Actor}, "id": {w.ID, g.ID},
		"path": {w.Path, g.Path}, "paths": {w.Paths, g.Paths},
		"infos": {w.infos, g.infos}, "derived": {w.derived, g.derived}, "kvs": {w.kvs, g.kvs},
		"syms": {w.Syms, g.Syms}, "symFinite": {w.SymFinite, g.SymFinite},
	} {
		if !reflect.DeepEqual(cols[0], cols[1]) {
			t.Fatalf("column %s differs", name)
		}
	}
	for s := range w.Syms {
		if w.SymFinite[s] && w.SymFloat[s] != g.SymFloat[s] {
			t.Fatalf("symbol %d float differs", s)
		}
	}
}

// columnsOf builds columns from explicit rows with ColumnsFrom.
func columnsOf(rows []opDepth) *Columns {
	return ColumnsFrom(func(add func(op *archive.Operation, depth int, path string)) {
		for _, od := range rows {
			add(od.op, od.depth, od.path)
		}
	})
}

// TestColumnsFromDFSOrderEqualsBuild pins the seal-equivalence property
// at the column layer: a finished tree's operations given to ColumnsFrom
// in depth-first order produce columns identical — rows, typed values,
// and symbol table — to a from-scratch walk of the tree.
func TestColumnsFromDFSOrderEqualsBuild(t *testing.T) {
	jobs := []*archive.Job{testJob(), weirdJob(), randomJob(rand.New(rand.NewSource(7)), 300)}
	for _, job := range jobs {
		requireColumnsIdentical(t, BuildColumns(job), columnsOf(flattenDFS(job)))
	}
}

// appendOracleSelect mirrors the tree walker's semantics over an
// explicit (op, depth) arrival order: filter with the parsed predicate,
// stable-sort with fieldValue/compareValues, truncate to the limit.
func appendOracleSelect(q *Query, rows []opDepth) []*archive.Operation {
	var kept []opDepth
	for _, od := range rows {
		if q.where == nil || q.where.eval(od.op, od.depth) {
			kept = append(kept, od)
		}
	}
	if q.orderBy != nil {
		key := func(od opDepth) string {
			s, _ := fieldValue(od.op, od.depth, q.orderBy.name)
			return s
		}
		sort.SliceStable(kept, func(i, j int) bool {
			c := compareValues(key(kept[i]), key(kept[j]))
			if q.desc {
				return c > 0
			}
			return c < 0
		})
	}
	out := make([]*archive.Operation, len(kept))
	for i, od := range kept {
		out[i] = od.op
	}
	if q.limit >= 0 && len(out) > q.limit {
		out = out[:q.limit]
	}
	return out
}

// TestColumnsFromCompletionOrderOracle runs every oracle query over
// columns built in a shuffled (completion-like) order and checks
// SelectColumns against an independent reimplementation of the tree
// walker's semantics over that same arrival order. This is the live
// /query contract: completed operations, arrival order, identical
// predicate and sort semantics.
func TestColumnsFromCompletionOrderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, job := range []*archive.Job{testJob(), weirdJob(), randomJob(rng, 200)} {
		rows := flattenDFS(job)
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		cols := columnsOf(rows)
		order := make([]*archive.Operation, len(rows))
		for i, od := range rows {
			order[i] = od.op
		}
		for _, qs := range oracleQueries {
			q, err := Parse(qs)
			if err != nil {
				t.Fatalf("parse %q: %v", qs, err)
			}
			assertSameOps(t, qs, appendOracleSelect(q, rows), q.SelectColumns(cols), order)
		}
	}
}
