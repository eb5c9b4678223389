package query

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
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
// frames: same rows (pointer-identical ops), same typed values, and the
// same interned symbol and path tables.
func requireColumnsIdentical(t *testing.T, want, got *Columns) {
	t.Helper()
	w, g := &want.f, &got.f
	if len(w.Ops) != len(g.Ops) {
		t.Fatalf("rows: want %d, got %d", len(w.Ops), len(g.Ops))
	}
	for i := range w.Ops {
		if w.Ops[i] != g.Ops[i] {
			t.Fatalf("row %d: different operation (%q vs %q)", i, w.Ops[i].ID, g.Ops[i].ID)
		}
	}
	for name, cols := range map[string][2]any{
		"depth": {w.Depth, g.Depth}, "start": {w.Start, g.Start}, "end": {w.End, g.End}, "dur": {w.Dur, g.Dur},
		"mission": {w.Mission, g.Mission}, "actor": {w.Actor, g.Actor}, "id": {w.ID, g.ID},
		"path": {w.Path, g.Path}, "paths": {w.Paths, g.Paths},
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

// TestAppendColumnsDFSOrderEqualsBuild pins the seal-equivalence
// property at the column layer: appending a finished tree's operations
// in depth-first order produces columns identical — rows, typed values,
// and symbol table — to a from-scratch BuildColumns.
func TestAppendColumnsDFSOrderEqualsBuild(t *testing.T) {
	jobs := []*archive.Job{testJob(), weirdJob(), randomJob(rand.New(rand.NewSource(7)), 300)}
	for _, job := range jobs {
		ac := NewAppendColumns()
		for _, od := range flattenDFS(job) {
			ac.Append(od.op, od.depth, od.path)
		}
		requireColumnsIdentical(t, BuildColumns(job), ac.Snapshot())
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
	if q.orderBy != "" {
		key := func(od opDepth) string {
			s, _ := fieldValue(od.op, od.depth, q.orderBy)
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

// TestAppendColumnsCompletionOrderOracle runs every oracle query over
// columns appended in a shuffled (completion-like) order and checks
// SelectColumns against an independent reimplementation of the tree
// walker's semantics over that same arrival order. This is the live
// /query contract: completed operations, arrival order, identical
// predicate and sort semantics.
func TestAppendColumnsCompletionOrderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, job := range []*archive.Job{testJob(), weirdJob(), randomJob(rng, 200)} {
		rows := flattenDFS(job)
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		ac := NewAppendColumns()
		for _, od := range rows {
			ac.Append(od.op, od.depth, od.path)
		}
		snap := ac.Snapshot()
		for _, qs := range oracleQueries {
			q, err := Parse(qs)
			if err != nil {
				t.Fatalf("parse %q: %v", qs, err)
			}
			assertSameOps(t, qs, appendOracleSelect(q, rows), q.SelectColumns(snap))
		}
	}
}

// TestAppendColumnsSnapshotIsolation proves a snapshot never observes
// rows appended after it was taken, and that concurrent appenders and
// queriers are race-free (run under -race).
func TestAppendColumnsSnapshotIsolation(t *testing.T) {
	job := randomJob(rand.New(rand.NewSource(3)), 500)
	rows := flattenDFS(job)
	ac := NewAppendColumns()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			queries := []string{`mission = Compute`, `duration > 5 order by start`, `actor ~ Worker limit 9`}
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := ac.Snapshot()
				n := snap.rows()
				for _, qs := range queries {
					q, err := Parse(qs)
					if err != nil {
						t.Errorf("parse: %v", err)
						return
					}
					got := q.SelectColumns(snap)
					if len(got) > n {
						t.Errorf("snapshot of %d rows returned %d ops", n, len(got))
						return
					}
				}
				if snap.rows() != n {
					t.Errorf("snapshot grew from %d to %d rows", n, snap.rows())
					return
				}
			}
		}(int64(r))
	}
	for _, od := range rows {
		ac.Append(od.op, od.depth, od.path)
	}
	close(stop)
	wg.Wait()
	if ac.Rows() != len(rows) {
		t.Fatalf("appended %d rows, have %d", len(rows), ac.Rows())
	}
}
