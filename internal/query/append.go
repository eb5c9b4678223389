package query

import (
	"sync"

	"repro/internal/archive"
)

// AppendColumns is the incremental counterpart of BuildColumns for live
// jobs: completed operations are appended one at a time as a streaming
// job runs, and Snapshot hands out an immutable point-in-time Columns
// view that Query.SelectColumns evaluates without rebuilding anything.
//
// Row order is arrival (completion) order, not the depth-first order
// BuildColumns produces — a live job's tree is still growing, so there
// is no final DFS order to use yet, and no tree to rebuild (Frame.Tree
// needs depth-first rows). Live query results therefore come back in
// completion order; the sealed archive entering the store is re-indexed
// with BuildColumns, which restores the canonical DFS order (the
// seal-equivalence suite pins that the two agree byte for byte on the
// finished tree).
//
// Concurrency: Append and Snapshot are safe to call concurrently. A
// snapshot copies only slice headers (O(1)); appends after the snapshot
// either write past the snapshot's length or reallocate the backing
// array, so rows a snapshot can reach are never rewritten — and since
// the infos were copied, a later change to the appended operation (an
// info event after its end) is invisible to readers. The intern maps
// are touched only under the writer lock.
type AppendColumns struct {
	mu   sync.Mutex
	cols Columns
}

// NewAppendColumns returns an empty incremental column set.
func NewAppendColumns() *AppendColumns {
	return &AppendColumns{cols: newColumns()}
}

// Append adds one completed operation at the given tree depth; path is
// its mission path from the root ("A/B/C"). The columns keep nothing of
// op once Append returns.
func (a *AppendColumns) Append(op *archive.Operation, depth int, path string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cols.add(op, int32(depth), path)
}

// Rows returns the number of operations appended so far.
func (a *AppendColumns) Rows() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cols.rows()
}

// Snapshot returns an immutable view of the columns appended so far.
// The view is safe to query concurrently with further appends; it never
// observes rows appended after the call.
func (a *AppendColumns) Snapshot() *Columns {
	a.mu.Lock()
	defer a.mu.Unlock()
	// Copy the frame: slice headers are value copies pinned at the
	// current length, so later appends (in place past len, or after a
	// reallocation) are invisible to the snapshot. Symbol and path IDs
	// referenced by the copied rows all precede the copied table lengths.
	// Readers never consult the intern maps, so the snapshot has none.
	return &Columns{f: a.cols.f}
}
