package query

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/archive"
)

// Frame is one job's rows in columnar form plus its job-level metadata
// — the only row layout: row queries, aggregates, and the segment codec
// all read it. Two sources produce frames: Columns, filled from an
// operation tree when a job enters the store or as a live job's
// operations complete (Ops and Path populated, so info./derived. fields
// and path lookups work), and decoded on-disk segments (Ops and Path
// nil; the engine never materializes the archive tree). Both yield
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

	// Ops is the operation of each row when the source retains the tree;
	// nil for frames decoded from segments.
	Ops []*archive.Operation

	// Path is each row's mission path from the root ("A/B/C") as an index
	// into Paths. In memory only, like Ops: segments do not store it.
	Path  []uint32
	Paths []string
}

// rows returns the number of operation rows in the frame.
func (f *Frame) rows() int { return len(f.Depth) }

// symCompare orders two interned symbols with compareValues semantics,
// using the precomputed numeric interpretations.
func (f *Frame) symCompare(a, b uint32) int {
	if a == b {
		return 0
	}
	if f.SymFinite[a] && f.SymFinite[b] {
		switch {
		case f.SymFloat[a] < f.SymFloat[b]:
			return -1
		case f.SymFloat[a] > f.SymFloat[b]:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(f.Syms[a], f.Syms[b])
}

// fieldString returns the string form of a field on one frame row —
// the frame analogue of fieldValue, extended with job.* fields.
func (f *Frame) fieldString(r int, field string) (string, bool) {
	lf := strings.ToLower(field)
	switch lf {
	case "mission":
		return f.Syms[f.Mission[r]], true
	case "actor":
		return f.Syms[f.Actor[r]], true
	case "id":
		return f.Syms[f.ID[r]], true
	case "duration":
		return formatNumField(f.Dur[r]), true
	case "start":
		return formatNumField(f.Start[r]), true
	case "end":
		return formatNumField(f.End[r]), true
	case "depth":
		return strconv.Itoa(int(f.Depth[r])), true
	}
	if strings.HasPrefix(lf, "job.") {
		return f.Meta.field(lf)
	}
	if f.Ops != nil {
		if key, ok := strings.CutPrefix(field, "info."); ok {
			v, present := f.Ops[r].Infos[key]
			return v, present
		}
		if key, ok := strings.CutPrefix(field, "derived."); ok {
			v, present := f.Ops[r].Derived[key]
			return v, present
		}
	}
	return "", false
}

// numExtractor returns a per-row numeric extractor for the numeric
// fields (the ones numericAggField admits).
func (f *Frame) numExtractor(field string) (func(r int) float64, error) {
	lf := strings.ToLower(field)
	switch lf {
	case "duration":
		col := f.Dur
		return func(r int) float64 { return col[r] }, nil
	case "start":
		col := f.Start
		return func(r int) float64 { return col[r] }, nil
	case "end":
		col := f.End
		return func(r int) float64 { return col[r] }, nil
	case "depth":
		col := f.Depth
		return func(r int) float64 { return float64(col[r]) }, nil
	}
	if v, ok := f.Meta.numField(lf); ok {
		return func(int) float64 { return v }, nil
	}
	return nil, fmt.Errorf("query: %q is not a numeric field", field)
}

// compileFrameExpr compiles the where tree against a frame — the only
// function that turns an expr into a rowEval. job.* fields are constant
// per frame; info./derived. fields and path matches error when the
// frame has no operation tree.
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

func compileFramePredicate(pr predicate, f *Frame) (rowEval, error) {
	lf := strings.ToLower(pr.field)
	switch lf {
	case "mission":
		return f.symbolPredicate(pr, f.Mission), nil
	case "actor":
		return f.symbolPredicate(pr, f.Actor), nil
	case "id":
		return f.symbolPredicate(pr, f.ID), nil
	case "depth":
		return depthPredicate(pr, f.Depth), nil
	case "duration":
		return compileNumericPredicate(pr, f.Dur), nil
	case "start":
		return compileNumericPredicate(pr, f.Start), nil
	case "end":
		return compileNumericPredicate(pr, f.End), nil
	}
	if strings.HasPrefix(lf, "job.") {
		// Constant per frame: fold to a constant evaluator, mirroring
		// what the zone-map pruner decides for whole segments.
		v, ok := f.Meta.field(lf)
		res := ok && evalStringPredicate(v, pr.op, pr.value)
		return func(int) bool { return res }, nil
	}
	if opsOnlyField(pr.field) {
		if f.Ops == nil {
			return nil, fmt.Errorf("query: field %q requires operation details not stored in columnar segments", pr.field)
		}
		if key, ok := strings.CutPrefix(pr.field, "info."); ok {
			op, value := pr.op, pr.value
			ops := f.Ops
			return func(r int) bool {
				v, present := ops[r].Infos[key]
				return present && evalStringPredicate(v, op, value)
			}, nil
		}
		if key, ok := strings.CutPrefix(pr.field, "derived."); ok {
			op, value := pr.op, pr.value
			ops := f.Ops
			return func(r int) bool {
				v, present := ops[r].Derived[key]
				return present && evalStringPredicate(v, op, value)
			}, nil
		}
		// Case-mismatched prefix (e.g. "Info.X"): absent on every row,
		// exactly like fieldValue on the tree path.
		return func(int) bool { return false }, nil
	}
	return nil, fmt.Errorf("query: unknown field %q", pr.field)
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
		if f.Path == nil {
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
