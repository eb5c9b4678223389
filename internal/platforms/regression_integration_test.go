package platforms

import (
	"context"
	"testing"

	"repro/internal/regression"
)

// TestRegressionWorkflowEndToEnd exercises the paper's envisioned
// performance-regression practice: run the same job on two "builds" of
// the platform (the second with a slower input parser), compare the
// archives, and check that the regression is localized to the loading
// operations rather than just the total.
func TestRegressionWorkflowEndToEnd(t *testing.T) {
	ds := smallDataset(t)

	spec := Spec{
		Platform: "Giraph", Algorithm: "BFS", Dataset: ds,
		Cluster: smallCluster(), WorkScale: 1500, JobID: "nightly",
	}
	baselineCal := paperCalibration(spec)
	baseline, err := run(context.Background(), spec, baselineCal)
	if err != nil {
		t.Fatal(err)
	}

	// The "new build": parsing became 2.5x more expensive.
	slowCal := paperCalibration(spec)
	slowCal.Pregel.Costs.ParseCPUPerByte *= 2.5
	current, err := run(context.Background(), spec, slowCal)
	if err != nil {
		t.Fatal(err)
	}

	report, err := regression.Compare(baseline.Job, current.Job, regression.Thresholds{
		RelativeChange: 0.15,
		MinSeconds:     0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Pass() {
		t.Fatal("a 2.5x parser slowdown must fail the regression gate")
	}
	if report.MakespanChange <= 0 {
		t.Fatalf("makespan change = %+.2f%%, want positive", 100*report.MakespanChange)
	}
	// The findings must point at loading, not at processing.
	loadFlagged, processFlagged := false, false
	for _, f := range report.Findings {
		if f.Verdict != "regression" {
			continue
		}
		switch f.Mission {
		case "LoadGraph", "LocalLoad":
			loadFlagged = true
		case "Compute", "Superstep", "ProcessGraph":
			processFlagged = true
		}
	}
	if !loadFlagged {
		t.Fatalf("regression not localized to loading: %+v", report.Findings)
	}
	if processFlagged {
		t.Fatal("processing falsely flagged — the slowdown was in parsing only")
	}

	// An identical re-run passes (determinism makes thresholds exact).
	again, err := run(context.Background(), spec, baselineCal)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := regression.Compare(baseline.Job, again.Job, regression.Thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Pass() || len(clean.Findings) != 0 {
		t.Fatalf("identical runs produced findings: %+v", clean.Findings)
	}
}
