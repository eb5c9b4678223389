package query_test

import (
	"fmt"

	"repro/internal/archive"
	"repro/internal/query"
)

// Select the slowest compute operations from an archived job.
func ExampleParse() {
	job := &archive.Job{
		ID: "demo",
		Root: &archive.Operation{
			ID: "r", Mission: "Job", Start: 0, End: 10,
			Children: []*archive.Operation{
				{ID: "c1", Mission: "Compute", Actor: "Worker-0", Start: 0, End: 4},
				{ID: "c2", Mission: "Compute", Actor: "Worker-1", Start: 0, End: 7},
				{ID: "s", Mission: "Sync", Actor: "Worker-0", Start: 7, End: 8},
			},
		},
	}
	q, err := query.Parse(`mission = Compute order by duration desc limit 1`)
	if err != nil {
		fmt.Println("parse error:", err)
		return
	}
	cols := query.BuildColumns(job)
	f := cols.Frame(query.JobMeta{ID: job.ID})
	for _, r := range q.SelectColumns(cols) {
		fmt.Printf("%s by %s: %.0fs\n", f.Syms[f.Mission[r]], f.Syms[f.Actor[r]], f.Dur[r])
	}
	// Output:
	// Compute by Worker-1: 7s
}
